"""Complex linear algebra with Gram-weighted inner products.

Operators and Gram matrices are tagged with the basis they act in; mixing
bases raises :class:`~geoquant.errors.BasisMismatch`.  Entries are dense
``numpy`` arrays for the truncated analytic bases (Fock, sphere sectors)
and ``scipy.sparse`` matrices for the phase-space and configuration grid
discretizations, whose dimension makes dense storage pointless; the
spectral routines densify on demand.

A :class:`GramMatrix` is validated once, at construction: a diagonal Gram
from its diagonal (positive real parts), a non-diagonal one by a dense
``eigvalsh`` (sparse entries up to 4096 rows); a larger non-diagonal sparse
Gram is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

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
    "prune_offdiagonal",
    "polar_gram_oracle",
]

_DENSE_EIG_LIMIT = 4096


def _is_square(m) -> bool:
    return m.ndim == 2 and m.shape[0] == m.shape[1]


def _as_dense(entries) -> np.ndarray:
    if sp.issparse(entries):
        return np.asarray(entries.toarray(), dtype=complex)
    return np.asarray(entries, dtype=complex)


@dataclass(frozen=True)
class OperatorMatrix:
    """Square operator in a declared basis."""

    entries: object
    basis_id: str

    def __post_init__(self):
        if not _is_square(self.entries):
            raise ValueError("operator entries must be a square matrix")
        if not sp.issparse(self.entries):
            object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dense(self) -> np.ndarray:
        return _as_dense(self.entries)


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian positive-definite matrix of basis inner products.

    Construction checks Hermiticity entrywise against
    ``tolerances.gram_hermiticity`` and then positivity by one rule.  A
    diagonal Gram, dense or sparse and of any size, is positive definite iff
    the real parts of its diagonal are positive; those are exactly its
    eigenvalues, so no eigensolver runs.  A non-diagonal Gram is densified
    and its smallest eigenvalue taken by ``eigvalsh``; for sparse entries
    that is done up to ``_DENSE_EIG_LIMIT`` rows, and larger non-diagonal
    sparse Grams are rejected.  Diagonality is tested once and stored.
    """

    entries: object
    basis_id: str
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, compare=False)

    def __post_init__(self):
        if not _is_square(self.entries):
            raise ValueError("Gram entries must be a square matrix")
        tol = self.tolerances.gram_hermiticity
        sparse = sp.issparse(self.entries)
        if sparse:
            g = self.entries.tocsr()
            herm = abs(g - g.conj().T)
            asymmetry = herm.max() if herm.nnz else 0.0
        else:
            g = np.asarray(self.entries, dtype=complex)
            asymmetry = np.max(np.abs(g - g.conj().T))
        object.__setattr__(self, "entries", g)
        if asymmetry > tol:
            raise DegenerateGram("Gram matrix is not Hermitian")
        diag = g.diagonal()
        nnz = g.count_nonzero() if sparse else np.count_nonzero(g)
        diagonal = nnz == np.count_nonzero(diag)
        object.__setattr__(self, "_diagonal", diagonal)
        if diagonal:
            eigmin = float(np.min(diag.real))
        elif not sparse or self.dim <= _DENSE_EIG_LIMIT:
            eigmin = scipy.linalg.eigvalsh(_as_dense(g))[0]
        else:
            raise DegenerateGram("large sparse Gram matrices must be diagonal")
        if not eigmin > 0:
            raise DegenerateGram(f"Gram matrix not positive definite (min eig {eigmin:.3e})")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self._diagonal

    def diagonal(self) -> np.ndarray:
        return np.asarray(self.entries.diagonal() if sp.issparse(self.entries)
                          else np.diag(self.entries))

    def dense(self) -> np.ndarray:
        return _as_dense(self.entries)

    @classmethod
    def identity(cls, dim: int, basis_id: str) -> "GramMatrix":
        return cls(np.eye(dim, dtype=complex), basis_id)


def _require_same_basis(a, b):
    if a.basis_id != b.basis_id:
        raise BasisMismatch(f"basis mismatch: {a.basis_id!r} vs {b.basis_id!r}")


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Return ``AB - BA`` in the common basis of ``a`` and ``b``."""
    _require_same_basis(a, b)
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries, a.basis_id)


def adjoint_wrt(a: OperatorMatrix, gram: GramMatrix) -> OperatorMatrix:
    """Adjoint of ``a`` in the ``gram``-weighted inner product: G^-1 A^H G.

    ``a`` is self-adjoint for that inner product iff the result equals ``a``.
    """
    _require_same_basis(a, gram)
    ah = a.entries.conj().T
    if gram.is_diagonal:
        d = gram.diagonal()
        if sp.issparse(ah):
            scaled = sp.diags(1.0 / d) @ ah @ sp.diags(d)
        else:
            scaled = (ah * d[np.newaxis, :]) / d[:, np.newaxis]
        return OperatorMatrix(scaled, a.basis_id)
    g = gram.dense()
    try:
        out = scipy.linalg.solve(g, _as_dense(ah) @ g, assume_a="her")
    except scipy.linalg.LinAlgError as exc:
        raise DegenerateGram(f"Gram solve failed: {exc}") from exc
    return OperatorMatrix(out, a.basis_id)


def spectrum(a: OperatorMatrix, gram: GramMatrix) -> np.ndarray:
    """Eigenvalues of the operator ``a`` in the Gram-weighted space.

    ``a.entries`` is the action matrix on basis coefficients, so the weak
    form of the eigenproblem is the pencil ``(G A) v = mu G v``.  When ``a``
    is Gram-self-adjoint the pencil is Hermitian-definite and the values are
    real; that case is detected and routed to the symmetric solver.  Returned
    sorted by real part, ties broken by imaginary part.  Values are complex;
    use :func:`real_spectrum` to strip a certified-small imaginary residue.
    """
    _require_same_basis(a, gram)
    adense = a.dense()
    gdense = gram.dense()
    weak = gdense @ adense
    scale = max(1.0, float(np.max(np.abs(weak))))
    hermitian = np.max(np.abs(weak - weak.conj().T)) <= 1e-12 * scale
    try:
        if hermitian:
            vals = scipy.linalg.eigh(weak, gdense, eigvals_only=True).astype(complex)
        else:
            vals = scipy.linalg.eig(weak, gdense, right=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigenFailure(f"generalized eigensolver failed: {exc}",
                           dim=a.dim, solver="scipy.linalg.eig") from exc
    if not np.all(np.isfinite(vals)):
        raise EigenFailure("eigensolver produced non-finite eigenvalues",
                           dim=a.dim, solver="scipy.linalg.eig")
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def real_spectrum(a: OperatorMatrix, gram: GramMatrix,
                  tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Spectrum with the imaginary residue checked against ``exact`` and zeroed."""
    vals = spectrum(a, gram)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    residue = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if residue > tolerances.exact * scale:
        raise EigenFailure(
            f"imaginary residue {residue:.3e} exceeds tolerance; "
            "operator is not Gram-self-adjoint", dim=a.dim, solver="scipy.linalg.eig")
    return np.sort(vals.real)


def gram_inner(u: np.ndarray, v: np.ndarray, gram: GramMatrix) -> complex:
    """Inner product <u, v> = u^H G v (conjugate-linear in the first slot)."""
    return complex(np.vdot(u, gram.entries @ v))


def gram_norm(v: np.ndarray, gram: GramMatrix) -> float:
    val = gram_inner(v, v, gram)
    return float(np.sqrt(max(val.real, 0.0)))


def prune_offdiagonal(entries: np.ndarray, rel: float) -> np.ndarray:
    """Zero off-diagonal entries below ``rel * sqrt(|G_ii G_jj|)``, in place.

    Cauchy-Schwarz bounds a Gram entry |G_ij| by sqrt(G_ii G_jj), so this
    clears quadrature roundoff at every scale of the diagonal, however small
    its entries, and never touches the diagonal itself.
    """
    scale = np.sqrt(np.abs(np.diag(entries)))
    small = np.abs(entries) < rel * np.outer(scale, scale)
    np.fill_diagonal(small, False)
    entries[small] = 0.0
    return entries


def polar_gram_oracle(indices: np.ndarray, radial, points: int, n_angular: int,
                      basis_id: str, tolerances: Tolerances = DEFAULT_TOLERANCES) -> GramMatrix:
    """Gram of the monomials z^m, one row of ``indices`` per m, by polar quadrature.

    Per axis an entry is radial[m + m'] times the trapezoid mean of exp(i (m' - m) theta)
    over ``n_angular`` points.  ``radial(p)`` tabulates k = 0..2 max(m) by a p-node rule; the
    ``2 * points`` table is kept, and :class:`QuadratureFailure` is raised when it differs
    from the ``points`` table by more than ``tolerances.quadrature_goal`` relative.
    """
    coarse, table = radial(points), radial(2 * points)
    delta = float(np.max(np.abs(table - coarse) / table))
    if not delta <= tolerances.quadrature_goal:
        raise QuadratureFailure(f"radial rule moved {delta:.3g} on doubling", doubling_delta=delta)
    top = (table.size - 1) // 2
    theta = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    angular = np.exp(1j * np.multiply.outer(np.arange(-top, top + 1), theta)).mean(axis=1)
    entries = np.ones((len(indices), len(indices)), dtype=complex)
    for m in indices.T:  # one complex axis at a time
        entries *= table[np.add.outer(m, m)] * angular[top - np.subtract.outer(m, m)]
    return GramMatrix(prune_offdiagonal(entries, tolerances.quadrature_zero),
                      basis_id, tolerances)
