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
from itertools import product

import numpy as np
from scipy import integrate

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import PolarizationViolation
from .linalg import GramMatrix, OperatorMatrix, prune_offdiagonal

__all__ = [
    "FockBasis",
    "fock_gram",
    "fock_gram_quadrature",
    "op_raise",
    "op_lower",
    "oscillator_hamiltonian",
    "polarization_preserving",
]


def _multi_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |m| <= max_degree, graded then lexicographic."""
    out = [m for m in product(range(max_degree + 1), repeat=n) if sum(m) <= max_degree]
    out.sort(key=lambda m: (sum(m), m))
    return out


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
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        idx = _multi_indices(self.n, self.max_degree)
        object.__setattr__(self, "_indices", tuple(idx))
        object.__setattr__(self, "_position", {m: i for i, m in enumerate(idx)})
        expected = math.comb(self.n + self.max_degree, self.n)
        assert len(idx) == expected, "stars-and-bars count mismatch"

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return self._indices

    @property
    def dim(self) -> int:
        return len(self._indices)

    def index_of(self, m: tuple[int, ...]) -> int:
        return self._position[m]

    def top_shell(self) -> np.ndarray:
        """Positions of the monomials at maximal total degree."""
        return np.array([i for i, m in enumerate(self._indices)
                         if sum(m) == self.max_degree])

    def below_top_projector(self) -> np.ndarray:
        """Dense projector onto the degree < max_degree subspace."""
        diag = np.array([1.0 if sum(m) < self.max_degree else 0.0
                         for m in self._indices])
        return np.diag(diag).astype(complex)

    @property
    def basis_id(self) -> str:
        return f"fock/n{self.n}/D{self.max_degree}/hbar{self.hbar:g}"


def fock_gram(basis: FockBasis) -> GramMatrix:
    """Diagonal Gram with <z^m, z^m> = prod_a (2*hbar)^(m_a) m_a!."""
    diag = [float(np.prod([(2.0 * basis.hbar) ** ma * math.factorial(ma) for ma in m]))
            for m in basis.indices]
    return GramMatrix(np.diag(diag).astype(complex), basis.basis_id)


def fock_gram_quadrature(basis: FockBasis, n_angular: int = 64,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> GramMatrix:
    """Gram matrix by numerical quadrature; slow cross-check mode.

    Each complex axis contributes a polar integral with the Gaussian weight
    exp(-r^2 / 2 hbar) and measure r dr dtheta / (2 pi hbar); axes factorize,
    so entries are products of per-axis radial/angular quadratures.  The
    radial part uses adaptive quadrature to the relative goal
    ``tolerances.quadrature_goal`` with no absolute floor, since entries
    (2 hbar)^m m! fall far below QUADPACK's default floor at small hbar; the
    angular part uses the trapezoid rule (exact for the trigonometric integrands while ``n_angular`` exceeds the
    maximal degree).  Per axis the radial integral depends only on
    k = m_a + m'_a and the angular mean only on m'_a - m_a, so both are
    tabulated once (2D+1 quadratures for degree D) and the entries are filled
    from the tables.  Off-diagonal roundoff is zeroed by
    :func:`~geoquant.linalg.prune_offdiagonal` with ``tolerances.quadrature_zero``.
    """
    hbar = basis.hbar
    max_m = basis.max_degree
    if n_angular <= max_m:
        raise ValueError(f"n_angular={n_angular} aliases degree {max_m}; "
                         "need n_angular > max_degree")
    radial = np.array([
        integrate.quad(lambda r, k=k: r ** (k + 1) * np.exp(-r * r / (2.0 * hbar)),
                       0.0, np.inf, epsabs=0.0,
                       epsrel=tolerances.quadrature_goal)[0] / hbar
        for k in range(2 * max_m + 1)])
    theta = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    angular = np.array([np.mean(np.exp(1j * d * theta))
                        for d in range(-max_m, max_m + 1)])

    idx = np.array(basis.indices)
    entries = np.ones((basis.dim, basis.dim), dtype=complex)
    for m in idx.T:  # one complex axis at a time
        entries *= radial[np.add.outer(m, m)] * angular[max_m - np.subtract.outer(m, m)]
    return GramMatrix(prune_offdiagonal(entries, tolerances.quadrature_zero),
                      basis.basis_id, tolerances)


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
    for j, m in enumerate(basis.indices):
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
    diag = [basis.hbar * (sum(m) + basis.n / 2.0) for m in basis.indices]
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
