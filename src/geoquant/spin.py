"""Holomorphic quantization of the sphere sector n: spin-n/2 matrices.

The Hilbert space of sector n is spanned by the monomials 1, z, ..., z^n;
higher powers are not square integrable against the sector weight.  Monomials
are orthogonal with

    <z^m, z^m> = Gamma(1+m) Gamma(1+n-m) / Gamma(n+2) = 1 / ((n+1) C(n, m)).

The operators are the first-order forms J3 = hbar*(z d/dz - n/2),
Jplus = hbar*(z^2 d/dz - n z) and Jminus = -hbar*d/dz, fixed by the sympy
reduction in the tests' ``spin_derivation`` (z^0 is the lowest weight).  On the
coefficients of z^0..z^n each is one diagonal, with column m holding: for J3
on the main diagonal hbar*(m - n/2), for Jplus below it hbar*(m - n), for Jminus
above it -hbar*m.  Jplus sends z^n to hbar*(n - n) z^(n+1) = 0, so all three keep
the span.  No metaplectic correction is applied in this sector; reports record that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, gauss_legendre
from .linalg import GramMatrix, OperatorMatrix, monomial_gram, polar_gram_oracle

__all__ = [
    "SpinBasis",
    "spin_gram",
    "spin_gram_quadrature",
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
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")

    @property
    def dim(self) -> int:
        return self.n_sector + 1

    @property
    def basis_id(self) -> str:
        return f"spin/n{self.n_sector}/hbar{float(self.hbar)!r}"


def spin_gram(basis: SpinBasis) -> GramMatrix:
    """Diagonal Gram from the exact Beta-integral closed form; see linalg.monomial_gram."""
    n = basis.n_sector
    return monomial_gram((1.0 / ((n + 1) * math.comb(n, m)) for m in range(n + 1)),
                         np.arange(n + 1)[:, None], basis.basis_id)


def spin_gram_quadrature(basis: SpinBasis,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> GramMatrix:
    """Gram by numerical quadrature of the sector weight; cross-check mode.

    Radial part: 2 * Integral_0^inf R^(m+m'+1) / (1+R^2)^(n+2) dR, which
    R^2 / (1+R^2) = sin^2 t maps onto Integral_0^(pi/2) 2 sin^(k+1) t
    cos^(2n-k+1) t dt with k = m + m', an entire integrand; all k = 0..2n are
    evaluated at once by 64 and by 128 Gauss-Legendre nodes, the 128-node
    table is kept, and QuadratureFailure is raised when the two differ by more
    than ``tolerances.quadrature_goal`` relative (no absolute floor: entries
    reach 1e-16 at n=48; from n=120 on the two differ).  Angular part: trapezoid mean of
    exp(i (m'-m) Theta) over 2^j > n points; see :func:`~geoquant.linalg.polar_gram_oracle`.
    """
    n = basis.n_sector
    k = np.arange(2 * n + 1)[:, None]

    def radial(points: int) -> np.ndarray:
        x, w = gauss_legendre(points)
        t = 0.25 * np.pi * (x + 1.0)  # [-1, 1] onto [0, pi/2]
        return 0.5 * np.pi * (np.sin(t) ** (k + 1) * np.cos(t) ** (2 * n + 1 - k)) @ w

    return polar_gram_oracle(np.arange(n + 1)[:, None], radial, _RADIAL_POINTS,
                             basis.basis_id, tolerances)


def spin_operators(basis: SpinBasis) -> dict[str, OperatorMatrix]:
    """The three spin operator matrices on monomial coefficients, each one diagonal."""
    n, hb = basis.n_sector, basis.hbar
    m = np.arange(n + 1)
    mats = {"J3": np.diag(hb * m + (-n * hb / 2.0)),
            "Jplus": np.diag(hb * m[:-1] + (-n * hb), -1),
            "Jminus": np.diag(-hb * m[1:], 1)}
    return {name: OperatorMatrix(mat, basis.basis_id) for name, mat in mats.items()}


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
    n, hb = basis.n_sector, basis.hbar

    def comm(a, b):
        return a @ b - b @ a

    def norm(m):
        return float(np.linalg.norm(m))

    casimir = j3 @ j3 + 0.5 * (jp @ jm + jm @ jp)
    expected = hb**2 * (n / 2.0) * (n / 2.0 + 1.0)
    scale = max(1.0, abs(expected))
    return Su2Report(
        ladder_plus=norm(comm(j3, jp) - hb * jp),
        ladder_minus=norm(comm(j3, jm) + hb * jm),
        pair=norm(comm(jp, jm) - 2.0 * hb * j3),
        casimir_offdiag=norm(casimir - np.diag(np.diag(casimir))),
        casimir_scalar=complex(np.mean(np.diag(casimir))),
        casimir_residual=float(np.linalg.norm(casimir - expected * np.eye(n + 1))) / scale,
    )
