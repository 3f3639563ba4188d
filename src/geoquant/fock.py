"""Holomorphic (Bargmann) quantization on C^n with a truncated monomial basis.

Conventions: z^a = p_a + i q^a, d/dz = (d/dp - i d/dq)/2.  States are
holomorphic polynomials of total degree <= D; the Gaussian-weighted inner
product makes the monomials orthogonal with

    <z^m, z^m> = prod_a (2*hbar)^(m_a) * m_a!

normalized so the constant monomial has unit norm.  Multiplication by z^a is
unbounded, so the top degree shell is truncated to zero; checks that rely on
the ladder algebra exclude that shell.
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


def _monomial_map(basis: FockBasis, up: int | None, down: int | None) -> np.ndarray:
    """Matrix of z^up d/dz^down on the monomials; None leaves that factor out.

    z^m maps to m_down * z^(m - e_down + e_up) (coefficient 1 without a
    derivative).  An image beyond the top degree shell is truncated to zero,
    which only multiplication without a derivative can produce.
    """
    for axis in (up, down):
        if axis is not None and not 0 <= axis < basis.n:
            raise ValueError(f"axis {axis} out of range for n={basis.n}")
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j, m in enumerate(basis.indices.tolist()):
        target, coeff = list(m), 1
        if down is not None:
            coeff = m[down]
            target[down] -= 1
        if up is not None:
            target[up] += 1
        if coeff and sum(target) <= basis.max_degree:
            mat[basis.index_of(tuple(target)), j] = coeff
    return mat


def op_raise(basis: FockBasis, axis: int = 0) -> OperatorMatrix:
    """Multiplication by z^axis; the top degree shell truncates to zero."""
    return OperatorMatrix(_monomial_map(basis, axis, None), basis.basis_id)


def op_lower(basis: FockBasis, axis: int = 0) -> OperatorMatrix:
    """2*hbar * d/dz^axis: sends z^m to 2*hbar*m_axis*z^(m - e_axis)."""
    return OperatorMatrix(2.0 * basis.hbar * _monomial_map(basis, None, axis),
                          basis.basis_id)


def oscillator_hamiltonian(basis: FockBasis) -> OperatorMatrix:
    """hbar*(z.d/dz + n/2): diagonal hbar*(|m| + n/2) on monomials.

    The n/2 shift is the metaplectic trace correction for the isotropic
    quadratic generator; without it the monomial z^m would carry hbar*|m|.
    """
    diag = basis.hbar * (basis.indices.sum(axis=1) + basis.n / 2.0)
    return OperatorMatrix(np.diag(diag).astype(complex), basis.basis_id)


def polarization_preserving(basis: FockBasis, f0: float = 0.0,
                            w: np.ndarray | None = None,
                            c: np.ndarray | None = None,
                            zz: np.ndarray | None = None,
                            zbarzbar: np.ndarray | None = None) -> OperatorMatrix:
    """Quantize f = f0 + w.z + conj(w).zbar + c_ab z^a zbar^b.

    This is the full class of real observables preserving the antiholomorphic
    polarization: f0 must be real and c Hermitian; any quadratic-in-z or
    quadratic-in-zbar block (``zz`` / ``zbarzbar``) is rejected.  The c-part
    quantizes to 2*hbar*c_ab z^a d/dz^b plus the metaplectic trace term
    hbar*tr(c).
    """
    n = basis.n
    if zz is not None and np.any(np.asarray(zz) != 0):
        raise PolarizationViolation("quadratic-in-z term does not preserve the polarization")
    if zbarzbar is not None and np.any(np.asarray(zbarzbar) != 0):
        raise PolarizationViolation("quadratic-in-zbar term does not preserve the polarization")
    if abs(complex(f0).imag) > 0:
        raise PolarizationViolation("constant part must be real")
    f0 = float(np.real(f0))

    total = f0 * np.eye(basis.dim, dtype=complex)
    if w is not None:
        w = np.asarray(w, dtype=complex).reshape(n)
        for a in range(n):
            if w[a] != 0:
                total += w[a] * op_raise(basis, a).entries
                total += np.conj(w[a]) * op_lower(basis, a).entries
    if c is not None:
        c = np.asarray(c, dtype=complex).reshape(n, n)
        herm_tol = DEFAULT_TOLERANCES.gram_hermiticity
        if np.max(np.abs(c - c.conj().T)) > herm_tol * max(1.0, np.max(np.abs(c))):
            raise PolarizationViolation("coefficient matrix c must be Hermitian")
        for a in range(n):
            for b in range(n):
                if c[a, b] != 0:
                    total += 2.0 * basis.hbar * c[a, b] * _monomial_map(basis, a, b)
        total += basis.hbar * np.trace(c).real * np.eye(basis.dim)
    return OperatorMatrix(total, basis.basis_id)
