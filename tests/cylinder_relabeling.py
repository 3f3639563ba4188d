"""Shared helpers for the cylinder relabeling tests."""

from types import SimpleNamespace

import numpy as np

from geoquant.prequant import SectorSpec, cylinder_spectrum


def relabeling_residual(spectrum, lam, k_max, hbar=1.0):
    """max |spec(lambda + 1) - spec(lambda)| on the shared modes, k -> k + 1.

    SectorSpec keeps lambda in [0, 1) while the spectrum formula holds for
    any real lambda, so the lambda + 1 sector is passed as a plain namespace.
    """
    base = spectrum(SectorSpec("cylinder", hbar=hbar, lam=lam), k_max)
    up = spectrum(SimpleNamespace(model="cylinder", hbar=hbar, lam=lam + 1.0), k_max)
    return float(np.max(np.abs(up[:-1] - base[1:])))


def lambda_blind(sector, k_max):
    """A cylinder spectrum that ignores lambda: the negative control."""
    return cylinder_spectrum(SectorSpec("cylinder", hbar=sector.hbar, lam=0.0), k_max)
