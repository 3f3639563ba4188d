"""Shared helpers for the cylinder relabeling tests."""

import numpy as np

from geoquant.prequant import cylinder_spectrum


def relabeling_residual(spectrum, lam, k_max, hbar=1.0):
    """max |spec(lambda + 1) - spec(lambda)| on the shared modes, k -> k + 1."""
    base = spectrum(lam, hbar, k_max)
    up = spectrum(lam + 1.0, hbar, k_max)
    return float(np.max(np.abs(up[:-1] - base[1:])))


def lambda_blind(lam, hbar, k_max):
    """A cylinder spectrum that ignores lambda: the negative control."""
    return cylinder_spectrum(0.0, hbar, k_max)
