"""Complex linear algebra with Gram-weighted inner products, on numpy alone.

Operators and Gram matrices are tagged with the basis they act in; mixing
bases raises :class:`~geoquant.errors.BasisMismatch`.  Operator entries are
dense ``numpy`` arrays for the truncated analytic bases (Fock, sphere
sectors); the grid modules give a matrix-free
:class:`~geoquant.grid.FirstOrderOperator`, which is kept as it is and
densified by its ``toarray()`` where a dense result is needed.

Every basis the toolkit builds is orthogonal (monomials under a
rotation-invariant weight, cylinder modes, grid nodes), so a
:class:`GramMatrix` is its positive diagonal, validated at construction.
Every spectrum the toolkit takes is that of a Gram-self-adjoint operator,
and there is one route to it: the Hermitian-definite pencil is reduced by
the square root of that diagonal (Golub & Van Loan, *Matrix Computations*,
8.7) and solved by ``eigvalsh``.  An operator whose reduction is not
Hermitian to ``Tolerances.exact`` is refused before any solve.  The
operator is split into its contiguous diagonal blocks (a Fock degree shell
under a degree-keeping operator, one state under a diagonal one), and each
group of equal-size blocks is solved by one stacked eigensolver call.  The
refusal reads maxima over the blocks, which are the maxima over the whole
matrix, since off-block entries are zero.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import BasisMismatch, DegenerateGram, EigenFailure, QuadratureFailure

__all__ = [
    "OperatorMatrix",
    "GramMatrix",
    "commutator",
    "adjoint_wrt",
    "spectrum",
    "real_spectrum",
    "gram_inner",
    "gram_norm",
    "monomial_gram",
    "polar_gram_oracle",
]

_SOLVER = "numpy.linalg.eigvalsh"


def _is_square(m) -> bool:
    return m.ndim == 2 and m.shape[0] == m.shape[1]


def _has_toarray(m) -> bool:
    return hasattr(m, "toarray")


def _as_dense(entries) -> np.ndarray:
    return np.asarray(entries.toarray() if _has_toarray(entries) else entries, dtype=complex)


@dataclass(frozen=True)
class OperatorMatrix:
    """Square operator in a declared basis; entries dense, or a matrix with ``toarray()``."""

    entries: object
    basis_id: str

    def __post_init__(self):
        if not _is_square(self.entries):
            raise ValueError("operator entries must be a square matrix")
        if not _has_toarray(self.entries):
            object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dense(self) -> np.ndarray:
        return _as_dense(self.entries)


@dataclass(frozen=True)
class GramMatrix:
    """Positive diagonal of the Gram matrix of an orthogonal basis.

    ``entries`` is the 1-D diagonal; any other shape raises ``ValueError``,
    and a sparse matrix ``TypeError``.  Construction checks Hermiticity,
    that is real entries, against ``tolerances.gram_hermiticity``, then that
    the real parts, the Gram's eigenvalues, are positive.
    """

    entries: np.ndarray
    basis_id: str
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, compare=False)

    def __post_init__(self):
        if _has_toarray(self.entries):
            raise TypeError("Gram entries must be a numpy array, not a sparse matrix")
        g = np.asarray(self.entries, dtype=complex)
        if g.ndim != 1:
            raise ValueError("Gram entries must be the 1-D diagonal")
        object.__setattr__(self, "entries", g)
        if not np.max(np.abs(g - g.conj())) <= self.tolerances.gram_hermiticity:
            raise DegenerateGram("Gram matrix is not Hermitian")
        eigmin = np.min(g.real)
        if not eigmin > 0:
            raise DegenerateGram(f"Gram matrix not positive definite (min eig {eigmin:.3e})")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return self.entries

    @classmethod
    def identity(cls, dim: int, basis_id: str) -> "GramMatrix":
        return cls(np.ones(dim, dtype=complex), basis_id)


def _require_same_basis(a, b):
    if a.basis_id != b.basis_id:
        raise BasisMismatch(f"basis mismatch: {a.basis_id!r} vs {b.basis_id!r}")


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Return ``AB - BA`` in the common basis of ``a`` and ``b``, as one dense product each way."""
    _require_same_basis(a, b)
    da, db = a.dense(), b.dense()
    return OperatorMatrix(da @ db - db @ da, a.basis_id)


def adjoint_wrt(a: OperatorMatrix, gram: GramMatrix) -> OperatorMatrix:
    """Adjoint of ``a`` in the ``gram``-weighted inner product: G^-1 A^H G, dense.

    ``a`` is self-adjoint for that inner product iff the result equals ``a``.
    """
    _require_same_basis(a, gram)
    g = gram.entries
    return OperatorMatrix(a.dense().conj().T * g / g[:, np.newaxis], a.basis_id)


def _diagonal_blocks(nonzero: np.ndarray) -> list[np.ndarray]:
    """Contiguous diagonal blocks of the pattern ``nonzero | nonzero^T``, grouped by size.

    Returns one (k, b) array of indices per block size b, one row per block.  A block ends
    at row i when no row or column up to i has a nonzero past i.  Sets the diagonal of
    ``nonzero``, so that each row reaches at least itself.
    """
    n = nonzero.shape[0]
    nonzero.flat[::n + 1] = True
    # n - 1 - the last nonzero of each row or of each column, whichever is later
    from_end = np.minimum(nonzero[:, ::-1].argmax(axis=1), nonzero[::-1].argmax(axis=0))
    ends = np.flatnonzero(np.maximum.accumulate(n - 1 - from_end) == np.arange(n))
    sizes = ends - np.concatenate(([-1], ends[:-1]))
    return [ends[sizes == b, np.newaxis] + np.arange(1 - b, 1) for b in set(sizes.tolist())]


def spectrum(a: OperatorMatrix, gram: GramMatrix,
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Real eigenvalues, ascending, of the Gram-self-adjoint operator ``a``.

    ``a.entries`` is the action matrix on basis coefficients, so the weak
    form of the eigenproblem is the pencil ``(G A) v = mu G v``.  With
    ``root = sqrt(diag G)`` it reduces to the Gram-root similarity
    ``C = root A / root = root^-1 (G A) root^-1``, Hermitian iff ``a`` is
    Gram-self-adjoint, and ``eigvalsh`` returns its eigenvalues.  C has A's
    scale whatever the Gram's, and stays finite where ``G A`` overflows.

    When C's Hermitian defect exceeds ``tolerances.exact`` times its largest
    entry, or is NaN, :class:`EigenFailure` is raised before any solve,
    naming the defect and the scale.  ``A`` is split into its contiguous
    diagonal blocks, and the blocks of each size are solved as one stack;
    off-block entries are zero, so the largest entry of C and of its
    Hermitian defect are the largest over the blocks.  A matrix that couples
    everything is one block.
    """
    _require_same_basis(a, gram)
    adense, g = a.dense(), gram.entries
    stacks, defect, scale = [], 0.0, 0.0
    for idx in _diagonal_blocks(adense != 0):
        root = np.sqrt(g[idx].real)
        ab = adense[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
        c = root[:, :, np.newaxis] * ab / root[:, np.newaxis, :]
        # np.maximum, not max(): a NaN must survive into the test
        defect = np.maximum(defect, np.abs(c - c.conj().mT).max())
        scale = np.maximum(scale, np.abs(c).max())
        stacks.append(c)
    if not defect <= tolerances.exact * scale:
        raise EigenFailure(f"Hermitian defect {defect:.3e} of the Gram-root similarity exceeds "
                           f"{tolerances.exact:.3g} times its largest entry {scale:.3e}; "
                           "the operator is not Gram-self-adjoint", dim=a.dim)
    try:
        vals = np.concatenate([np.linalg.eigvalsh(c if c.imag.any() else c.real).ravel()
                               for c in stacks])
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigensolver failed: {exc}", dim=a.dim, solver=_SOLVER) from exc
    if not np.isfinite(vals).all():
        raise EigenFailure("eigensolver produced non-finite eigenvalues",
                           dim=a.dim, solver=_SOLVER)
    return np.sort(vals)


real_spectrum = spectrum


def gram_inner(u: np.ndarray, v: np.ndarray, gram: GramMatrix) -> complex:
    """Inner product <u, v> = u^H G v (conjugate-linear in the first slot)."""
    return complex(np.vdot(u, gram.entries * v))


def gram_norm(v: np.ndarray, gram: GramMatrix) -> float:
    val = gram_inner(v, v, gram)
    return float(np.sqrt(max(val.real, 0.0)))


def monomial_gram(factors, indices: np.ndarray, basis_id: str) -> GramMatrix:
    """Diagonal Gram prod_a factors[m_a] of the monomials z^m, one row of ``indices`` per m.

    ``factors`` yields Python floats for the powers 0, 1, ...; one that overflows float64 reads
    as inf.  :class:`DegenerateGram` names the first m whose entry is not finite and positive.
    """
    table = np.full(int(indices.max()) + 1, np.inf)
    with suppress(OverflowError):
        for k, factor in enumerate(factors):
            table[k] = factor
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        diag = table[indices].prod(axis=1)
    bad = np.flatnonzero(~((diag > 0) & (diag < np.inf)))
    if bad.size:
        raise DegenerateGram(f"{basis_id}: <z^m, z^m> = {diag[bad[0]]:.6g} at m = "
                             f"{tuple(indices[bad[0]].tolist())} is not finite and positive")
    return GramMatrix(diag.astype(complex), basis_id)


def polar_gram_oracle(indices: np.ndarray, radial, points: int,
                      basis_id: str, tolerances: Tolerances = DEFAULT_TOLERANCES) -> GramMatrix:
    """Gram of the monomials z^m, one row of ``indices`` per m, by polar quadrature.

    Per axis an entry is radial[m + m'] times the trapezoid mean of exp(i (m' - m) theta).
    ``radial(p)`` tabulates k = 0..2 max(m) by a p-node rule; the ``2 * points`` table is
    kept, and :class:`QuadratureFailure` is raised when it differs from the ``points`` table
    by more than ``tolerances.quadrature_goal`` relative.  The angular rule is sized from the
    basis, 2^j > max(m) points, exact for every m' - m and a power of two: its d = 0 mean is 1.
    The whole matrix is formed; :class:`QuadratureFailure` is raised when an off-diagonal
    |G_mm'| exceeds ``tolerances.quadrature_zero`` sqrt(G_mm G_m'm') (the rule is not
    orthogonal), and otherwise the diagonal is returned.
    """
    coarse, table = radial(points), radial(2 * points)
    delta = float(np.max(np.abs(table - coarse) / table))
    if not delta <= tolerances.quadrature_goal:
        raise QuadratureFailure(f"radial rule moved {delta:.3g} on doubling", doubling_delta=delta)
    top = (table.size - 1) // 2
    n_angular = 1 << top.bit_length()
    theta = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    angular = np.exp(1j * np.multiply.outer(np.arange(-top, top + 1), theta)).mean(axis=1)
    entries = np.ones((len(indices), len(indices)), dtype=complex)
    for m in indices.T:  # one complex axis at a time
        entries *= table[np.add.outer(m, m)] * angular[top - np.subtract.outer(m, m)]
    diag = entries.diagonal().copy()
    scale = np.sqrt(np.abs(diag))
    worst = float(np.max(np.abs(entries - np.diag(diag)) / np.outer(scale, scale)))
    if not worst <= tolerances.quadrature_zero:
        raise QuadratureFailure(f"{basis_id}: |G_mm'| / sqrt(G_mm G_m'm') reaches {worst:.3g}")
    return GramMatrix(diag, basis_id, tolerances)
