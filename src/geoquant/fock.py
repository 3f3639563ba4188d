"""Holomorphic (Bargmann) quantization on C^n with a truncated monomial basis.

Conventions: z^a = p_a + i q^a, d/dz = (d/dp - i d/dq)/2.  States are
holomorphic polynomials of total degree <= D; the Gaussian-weighted inner
product makes the monomials orthogonal with

    <z^m, z^m> = prod_a (2*hbar)^(m_a) * m_a!

normalized so the constant monomial has unit norm.  The ladders and the
quantizer are scatters of one raise map, z^m -> z^(m + e_a) as basis positions,
into one matrix.  Multiplication by z^a is unbounded, so the top degree shell
is truncated to zero; checks that rely on the ladder algebra exclude that shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, gauss_legendre
from .errors import PolarizationViolation
from .linalg import GramMatrix, OperatorMatrix, monomial_gram, polar_gram_oracle

__all__ = [
    "FockBasis",
    "fock_gram",
    "fock_gram_quadrature",
    "op_raise",
    "op_lower",
    "oscillator_hamiltonian",
    "polarization_preserving",
]

_RADIAL_POINTS = 128  # Gauss-Legendre nodes of the oracle's radial rule, doubled as a guard


@dataclass(frozen=True)
class FockBasis:
    """Monomial basis {z^m : |m| <= max_degree} in n complex dimensions."""

    n: int
    max_degree: int
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one complex dimension")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        n, d = self.n, self.max_degree
        idx = [()]
        for _ in range(n):  # each axis takes at most the degree the earlier ones leave
            idx = [m + (k,) for m in idx for k in range(d - sum(m) + 1)]
        idx.sort(key=lambda m: (sum(m), m))
        assert len(idx) == math.comb(n + d, n), "stars-and-bars count mismatch"
        indices = np.array(idx)
        indices.flags.writeable = False
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_position", {m: i for i, m in enumerate(idx)})

    @property
    def indices(self) -> np.ndarray:
        """Multi-indices |m| <= max_degree, one row each, graded then lexicographic; read-only."""
        return self._indices

    @property
    def dim(self) -> int:
        return len(self._indices)

    def index_of(self, m: tuple[int, ...]) -> int:
        return self._position[m]

    def top_shell(self) -> np.ndarray:
        """Positions of the monomials at maximal total degree."""
        return np.flatnonzero(self._indices.sum(axis=1) == self.max_degree)

    def below_top_mask(self) -> np.ndarray:
        """True at the monomials of degree < max_degree.

        ``x * mask`` zeroes the columns of x at the top degree shell.
        """
        return self._indices.sum(axis=1) < self.max_degree

    @property
    def basis_id(self) -> str:
        return f"fock/n{self.n}/D{self.max_degree}/hbar{float(self.hbar)!r}"


def fock_gram(basis: FockBasis) -> GramMatrix:
    """Diagonal Gram with <z^m, z^m> = prod_a (2*hbar)^(m_a) m_a!; see linalg.monomial_gram."""
    # Python floats: numpy's array power rounds (2*hbar)^k differently at some hbar, e.g. 0.7
    return monomial_gram(((2.0 * basis.hbar) ** k * math.factorial(k)
                          for k in range(basis.max_degree + 1)), basis.indices, basis.basis_id)


def fock_gram_quadrature(basis: FockBasis,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> GramMatrix:
    """Gram matrix by numerical quadrature; cross-check mode.

    Each complex axis contributes a polar integral with the Gaussian weight
    exp(-r^2 / 2 hbar) and measure r dr dtheta / (2 pi hbar); axes factorize.
    The radial integral of r^(k+1) exp(-r^2 / 2 hbar) / hbar, k = m_a + m'_a,
    is cut at R_k^2 = 2 hbar (k/2 + 46 + 6 sqrt(k+1)), leaving a tail below
    e^-46; all k = 0..2D are evaluated at once by 128 and by 256 Gauss-Legendre
    nodes, the 256-node table is kept, and QuadratureFailure is raised when the
    two differ by more than ``tolerances.quadrature_goal`` relative.  The angular
    trapezoid rule has 2^j > D points; see :func:`~geoquant.linalg.polar_gram_oracle`.
    """
    hbar, max_m = basis.hbar, basis.max_degree
    k = np.arange(2 * max_m + 1)[:, None]
    reach = np.sqrt(2.0 * hbar * (k / 2.0 + 46.0 + 6.0 * np.sqrt(k + 1.0)))

    def radial(points: int) -> np.ndarray:
        x, w = gauss_legendre(points)
        r = 0.5 * reach * (x + 1.0)  # [-1, 1] onto [0, R_k], one row per k
        return 0.5 * reach[:, 0] / hbar * (np.exp((k + 1) * np.log(r) - r * r / (2 * hbar)) @ w)

    return polar_gram_oracle(basis.indices, radial, _RADIAL_POINTS, basis.basis_id, tolerances)


def _raised(basis: FockBasis, axis: int) -> np.ndarray:
    """Position of z^(m + e_axis) for each monomial z^m; -1 past the top degree shell."""
    if not 0 <= axis < basis.n:
        raise ValueError(f"axis {axis} out of range for n={basis.n}")
    raised = (basis.indices + np.eye(basis.n, dtype=int)[axis]).tolist()
    return np.array([basis._position.get(tuple(m), -1) for m in raised])


def op_raise(basis: FockBasis, axis: int = 0) -> OperatorMatrix:
    """Multiplication by z^axis; the top degree shell truncates to zero."""
    up = _raised(basis, axis)
    j = np.flatnonzero(up >= 0)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[up[j], j] = 1.0
    return OperatorMatrix(mat, basis.basis_id)


def op_lower(basis: FockBasis, axis: int = 0) -> OperatorMatrix:
    """2*hbar * d/dz^axis: sends z^m to 2*hbar*m_axis*z^(m - e_axis)."""
    up = _raised(basis, axis)
    j = np.flatnonzero(up >= 0)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[j, up[j]] = 2.0 * basis.hbar * (basis.indices[j, axis] + 1)
    return OperatorMatrix(mat, basis.basis_id)


def oscillator_hamiltonian(basis: FockBasis) -> OperatorMatrix:
    """The quantized |z|^2 / 2, that is c = I/2 in :func:`polarization_preserving`.

    Its trace term hbar*tr(c) = hbar*n/2 is the half-form shift of the
    spectrum hbar*(|m| + n/2); without it z^m would carry hbar*|m|.
    """
    return polarization_preserving(basis, c=np.eye(basis.n) / 2)


def polarization_preserving(basis: FockBasis, f0: float = 0.0,
                            w: np.ndarray | None = None,
                            c: np.ndarray | None = None) -> OperatorMatrix:
    """Quantize f = f0 + w.z + conj(w).zbar + c_ab z^a zbar^b.

    This is the full class of real observables preserving the antiholomorphic
    polarization: f0, w and c must be finite, f0 real and c Hermitian.  A
    quadratic-in-z or quadratic-in-zbar block (z^a z^b, zbar^a zbar^b) lies
    outside the class and has no argument here.  The c-part quantizes to
    2*hbar*c_ab z^a d/dz^b plus the metaplectic trace term hbar*tr(c).
    """
    f0 = complex(f0)
    w = None if w is None else np.asarray(w, dtype=complex).reshape(basis.n)
    c = None if c is None else np.asarray(c, dtype=complex).reshape(basis.n, basis.n)
    for name, value in (("f0", f0), ("w", w), ("c", c)):
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    if f0.imag != 0:
        raise PolarizationViolation("constant part must be real")
    if c is not None and np.max(np.abs(c - c.conj().T)) > (
            DEFAULT_TOLERANCES.gram_hermiticity * max(1.0, np.max(np.abs(c)))):
        raise PolarizationViolation("coefficient matrix c must be Hermitian")

    # j runs over the monomials z^m below the top shell; up[a] holds z^(m + e_a)
    j = np.flatnonzero(basis.below_top_mask())
    up = [_raised(basis, a)[j] for a in range(basis.n)]
    m1 = basis.indices[j] + 1  # d/dz^b takes z^(m + e_b) to (m_b + 1) z^m
    total = np.zeros((basis.dim, basis.dim), dtype=complex)
    diagonal = total.reshape(-1)[::basis.dim + 1]  # a writable view
    diagonal[:] = f0.real
    if w is not None:
        for a in range(basis.n):
            total[up[a], j] = w[a]
            total[j, up[a]] = np.conj(w[a]) * (2.0 * basis.hbar * m1[:, a])
    if c is not None:
        for a in range(basis.n):
            for b in range(basis.n):
                total[up[a], up[b]] += 2.0 * basis.hbar * c[a, b] * m1[:, b]
        diagonal += basis.hbar * np.trace(c).real
    return OperatorMatrix(total, basis.basis_id)
