"""Topological prequantization sectors: the sphere and the cylinder.

Sphere: with the rescaled area form ``omega = s sin(theta) dtheta ^ dphi``
the total symplectic area is 4*pi*s, and a prequantum line bundle exists iff
that area is an integer multiple of 2*pi*hbar, i.e. ``s = (hbar/2) n``.

Cylinder (T*S^1): the closed 1-form "dphi" shifts the symplectic potential
by ``-hbar*lambda*dphi`` without changing the curvature, giving a family of
inequivalent sectors.  On Fourier modes e^{i k phi} the momentum operator
``-i*hbar*d_phi + hbar*lambda`` is diagonal with spectrum ``(k + lambda)*hbar``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_TOLERANCES, Tolerances, gauss_legendre
from ..errors import UnsupportedObservable
from ..linalg import OperatorMatrix

__all__ = [
    "SectorSpec",
    "WeilResult",
    "weil_admissible",
    "cylinder_spectrum",
    "cylinder_momentum_operator",
]

#: Gauss-Legendre orders of the Weil integral over theta and over phi
_WEIL_N_THETA = 64
_WEIL_N_PHI = 16


@dataclass(frozen=True)
class SectorSpec:
    """Sector data: sphere (classical spin magnitude s) or cylinder (lambda)."""

    model: str
    hbar: float = 1.0
    lam: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.model not in ("sphere", "cylinder"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.model == "sphere":
            if self.s is None or self.s <= 0:
                raise ValueError("sphere sector needs a positive spin magnitude s")
        if self.model == "cylinder":
            if self.lam is None or not 0.0 <= self.lam < 1.0:
                raise ValueError("cylinder sector needs lambda in [0, 1)")


@dataclass(frozen=True)
class WeilResult:
    admissible: bool
    integral: float
    nearest_n: int


def weil_admissible(sector: SectorSpec,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> WeilResult:
    """Integrality check for the sphere sector by 2D Gauss-Legendre quadrature.

    Integrates s*sin(theta) over the sphere and tests whether the result is
    an integer multiple of 2*pi*hbar.  ``nearest_n`` rounds 2 s / hbar.
    """
    if sector.model != "sphere":
        raise UnsupportedObservable("integrality check applies to the sphere model")
    xt, wt = gauss_legendre(_WEIL_N_THETA)
    xp, wp = gauss_legendre(_WEIL_N_PHI)
    theta = 0.5 * np.pi * (xt + 1.0)
    w_theta = 0.5 * np.pi * wt
    w_phi = np.pi * wp  # phi in [0, 2*pi)
    integrand = sector.s * np.sin(theta)
    integral = float(np.sum(w_phi) * np.sum(w_theta * integrand))
    ratio = integral / (2.0 * np.pi * sector.hbar)
    admissible = abs(ratio - round(ratio)) < tolerances.integer_window
    return WeilResult(admissible=admissible, integral=integral,
                      nearest_n=int(round(2.0 * sector.s / sector.hbar)))


def _cylinder_modes(k_max: int) -> np.ndarray:
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return np.arange(-k_max, k_max + 1)


def cylinder_spectrum(sector: SectorSpec, k_max: int) -> np.ndarray:
    """Exact momentum spectrum {(k + lambda)*hbar} on modes k = -k_max..k_max."""
    if sector.model != "cylinder":
        raise UnsupportedObservable("cylinder spectrum needs the cylinder model")
    return (np.sort(_cylinder_modes(k_max) + sector.lam)) * sector.hbar


def cylinder_momentum_operator(sector: SectorSpec, k_max: int) -> OperatorMatrix:
    """Diagonal momentum operator in the Fourier basis e^{i k phi}."""
    if sector.model != "cylinder":
        raise UnsupportedObservable("cylinder operator needs the cylinder model")
    modes = _cylinder_modes(k_max)
    entries = np.diag((modes + sector.lam) * sector.hbar).astype(complex)
    basis = f"cylinder/kmax{k_max}/lambda{sector.lam:g}/hbar{sector.hbar:g}"
    return OperatorMatrix(entries, basis)
