"""Holomorphic quantization of the sphere sector n: spin-n/2 matrices.

The Hilbert space of sector n is spanned by the monomials 1, z, ..., z^n;
higher powers are not square integrable against the sector weight.  Monomials
are orthogonal with

    <z^m, z^m> = Gamma(1+m) Gamma(1+n-m) / Gamma(n+2) = 1 / ((n+1) C(n, m)).

The operator matrices act on monomial coefficients as the first-order forms

    J3 = hbar*(z d/dz - n/2),  Jplus = hbar*(z^2 d/dz - n z),  Jminus = -hbar*d/dz,

fixed by the sympy reduction in the tests' ``spin_derivation`` (the
orientation makes z^0 the lowest weight).  No metaplectic correction is
applied in this sector; reports record that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, gauss_legendre
from .linalg import GramMatrix, OperatorMatrix, polar_gram_oracle

__all__ = [
    "SpinBasis",
    "spin_gram",
    "spin_gram_quadrature",
    "orthonormal_basis",
    "spin_operators",
    "check_su2",
    "Su2Report",
    "METAPLECTIC_CORRECTION_APPLIED",
]

#: the sector operators are built without a metaplectic trace term
METAPLECTIC_CORRECTION_APPLIED = False
_RADIAL_POINTS = 64  # Gauss-Legendre nodes of the oracle's radial rule, doubled as a guard


@dataclass(frozen=True)
class SpinBasis:
    """Monomial basis {z^0, ..., z^n} of the sector-n holomorphic space."""

    n_sector: int
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_sector < 0:
            raise ValueError("sector n must be >= 0")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def dim(self) -> int:
        return self.n_sector + 1

    @property
    def basis_id(self) -> str:
        return f"spin/n{self.n_sector}/hbar{self.hbar:g}"


def spin_gram(basis: SpinBasis) -> GramMatrix:
    """Diagonal Gram from the exact Beta-integral closed form."""
    n = basis.n_sector
    diag = [1.0 / ((n + 1) * math.comb(n, m)) for m in range(n + 1)]
    return GramMatrix(np.array(diag, dtype=complex), basis.basis_id)


def spin_gram_quadrature(basis: SpinBasis, n_angular: int = 64,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> GramMatrix:
    """Gram by numerical quadrature of the sector weight; cross-check mode.

    Radial part: 2 * Integral_0^inf R^(m+m'+1) / (1+R^2)^(n+2) dR, which
    R^2 / (1+R^2) = sin^2 t maps onto Integral_0^(pi/2) 2 sin^(k+1) t
    cos^(2n-k+1) t dt with k = m + m', an entire integrand; all k = 0..2n are
    evaluated at once by 64 and by 128 Gauss-Legendre nodes, the 128-node
    table is kept, and QuadratureFailure is raised when the two differ by more
    than ``tolerances.quadrature_goal`` relative (no absolute floor: entries
    reach 1e-16 at n=48).  Angular part: trapezoid mean of exp(i (m'-m) Theta) over
    ``n_angular > n`` points; see :func:`~geoquant.linalg.polar_gram_oracle`.
    """
    n = basis.n_sector
    if n_angular <= n:
        raise ValueError(f"n_angular={n_angular} aliases sector {n}; need n_angular > n")
    k = np.arange(2 * n + 1)[:, None]

    def radial(points: int) -> np.ndarray:
        x, w = gauss_legendre(points)
        t = 0.25 * np.pi * (x + 1.0)  # [-1, 1] onto [0, pi/2]
        return 0.5 * np.pi * (np.sin(t) ** (k + 1) * np.cos(t) ** (2 * n + 1 - k)) @ w

    return polar_gram_oracle(np.arange(n + 1)[:, None], radial, _RADIAL_POINTS,
                             n_angular, basis.basis_id, tolerances)


def orthonormal_basis(basis: SpinBasis) -> np.ndarray:
    """Normalization constants C_m = sqrt((n+1) n! / (m! (n-m)!))."""
    n = basis.n_sector
    return np.array([math.sqrt((n + 1) * math.comb(n, m)) for m in range(n + 1)])


def _first_order_matrix(basis: SpinBasis, dcoeffs: tuple, scalars: tuple) -> np.ndarray:
    """Matrix of sum_j d_j z^j d/dz + sum_j s_j z^j on monomials z^0..z^n.

    Asserts that nothing maps outside the retained span, which is the
    integrability statement for the sector.
    """
    n = basis.n_sector
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    for m in range(n + 1):
        contrib: dict[int, complex] = {}
        for j, d in enumerate(dcoeffs):
            if d != 0 and m > 0:
                contrib[m - 1 + j] = contrib.get(m - 1 + j, 0.0) + d * m
        for j, s in enumerate(scalars):
            if s != 0:
                contrib[m + j] = contrib.get(m + j, 0.0) + s
        for target, value in contrib.items():
            if 0 <= target <= n:
                mat[target, m] += value
            elif abs(value) > 0:
                raise ArithmeticError("operator leaves the sector span")
    return mat


def spin_operators(basis: SpinBasis) -> dict[str, OperatorMatrix]:
    """The three spin operator matrices on monomial coefficients."""
    n, hb = basis.n_sector, basis.hbar
    forms = {
        "J3": ((0.0, hb), (-n * hb / 2.0,)),
        "Jplus": ((0.0, 0.0, hb), (0.0, -n * hb)),
        "Jminus": ((-hb,), (0.0,)),
    }
    return {name: OperatorMatrix(_first_order_matrix(basis, dc, sc), basis.basis_id)
            for name, (dc, sc) in forms.items()}


@dataclass(frozen=True)
class Su2Report:
    """Residuals of the su(2) relations and the Casimir identity."""

    ladder_plus: float     # ||[J3, J+] - hbar*J+||
    ladder_minus: float    # ||[J3, J-] + hbar*J-||
    pair: float            # ||[J+, J-] - 2*hbar*J3||
    casimir_offdiag: float
    casimir_scalar: complex
    casimir_residual: float
    metaplectic_correction_applied: bool = METAPLECTIC_CORRECTION_APPLIED


def check_su2(basis: SpinBasis) -> Su2Report:
    """Verify the commutation relations and the Casimir value by matrix algebra."""
    ops = spin_operators(basis)
    j3, jp, jm = (ops[k].entries for k in ("J3", "Jplus", "Jminus"))
    hb = basis.hbar
    n = basis.n_sector

    def comm(a, b):
        return a @ b - b @ a

    def norm(m):
        return float(np.linalg.norm(m))

    casimir = j3 @ j3 + 0.5 * (jp @ jm + jm @ jp)
    offdiag = casimir - np.diag(np.diag(casimir))
    scalar = complex(np.mean(np.diag(casimir)))
    expected = hb**2 * (n / 2.0) * (n / 2.0 + 1.0)
    scale = max(1.0, abs(expected))
    return Su2Report(
        ladder_plus=norm(comm(j3, jp) - hb * jp),
        ladder_minus=norm(comm(j3, jm) + hb * jm),
        pair=norm(comm(jp, jm) - 2.0 * hb * j3),
        casimir_offdiag=norm(offdiag),
        casimir_scalar=scalar,
        casimir_residual=float(np.linalg.norm(casimir - expected * np.eye(n + 1))) / scale,
    )
