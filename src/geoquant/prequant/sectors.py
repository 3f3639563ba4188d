"""Topological prequantization sectors: the sphere and the cylinder.

Sphere: with the rescaled area form ``omega = s sin(theta) dtheta ^ dphi``
the total symplectic area is 4*pi*s, and a prequantum line bundle exists iff
that area is an integer multiple of 2*pi*hbar, i.e. 2 s / hbar is an integer.

Cylinder (T*S^1): the closed 1-form "dphi" shifts the symplectic potential
by ``-hbar*lambda*dphi`` without changing the curvature, giving a family of
inequivalent sectors, one for each lambda in [0, 1).  On Fourier modes
e^{i k phi} the momentum operator ``-i*hbar*d_phi + hbar*lambda`` is diagonal
with spectrum ``(k + lambda)*hbar``.  That holds for every real lambda:
lambda + 1 is the lambda sector with its modes relabeled k -> k + 1.

Each function takes the sector's own parameters (s or lambda, and hbar) and
raises ``ValueError`` on values outside their domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_TOLERANCES, Tolerances, gauss_legendre
from ..linalg import OperatorMatrix

__all__ = [
    "WeilResult",
    "weil_admissible",
    "cylinder_spectrum",
    "cylinder_momentum_operator",
]

#: Gauss-Legendre orders of the Weil integral over theta and over phi
_WEIL_N_THETA = 64
_WEIL_N_PHI = 16


def _require_positive(name: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class WeilResult:
    admissible: bool
    integral: float
    nearest_n: int


def weil_admissible(s: float, hbar: float,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> WeilResult:
    """Integrality check for the sphere of spin magnitude ``s`` by 2D Gauss-Legendre quadrature.

    Integrates s*sin(theta) over the sphere and tests whether the result is
    an integer multiple of 2*pi*hbar.  ``nearest_n`` rounds 2 s / hbar.
    """
    _require_positive("s", s)
    _require_positive("hbar", hbar)
    xt, wt = gauss_legendre(_WEIL_N_THETA)
    xp, wp = gauss_legendre(_WEIL_N_PHI)
    theta = 0.5 * np.pi * (xt + 1.0)
    w_theta = 0.5 * np.pi * wt
    w_phi = np.pi * wp  # phi in [0, 2*pi)
    integral = float(np.sum(w_phi) * np.sum(w_theta * (s * np.sin(theta))))
    ratio = integral / (2.0 * np.pi * hbar)
    admissible = abs(ratio - round(ratio)) < tolerances.integer_window
    return WeilResult(admissible=admissible, integral=integral,
                      nearest_n=int(round(2.0 * s / hbar)))


def cylinder_spectrum(lam: float, hbar: float, k_max: int) -> np.ndarray:
    """Exact momentum spectrum (k + lambda)*hbar on modes k = -k_max..k_max, ascending."""
    _require_positive("hbar", hbar)
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return (np.arange(-k_max, k_max + 1) + lam) * hbar


def cylinder_momentum_operator(lam: float, hbar: float, k_max: int) -> OperatorMatrix:
    """Diagonal momentum operator in the Fourier basis e^{i k phi}."""
    entries = np.diag(cylinder_spectrum(lam, hbar, k_max)).astype(complex)
    return OperatorMatrix(entries, f"cylinder/kmax{k_max}/lambda{float(lam)!r}"
                                   f"/hbar{float(hbar)!r}")
