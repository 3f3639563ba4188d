"""Uniform-grid differentiation: spectral symbols, one FFT kernel, one reference matrix.

Every grid derivative is spectral: it differentiates the periodic extension
of the box.  With states that vanish near the edges that is the derivative
of the state itself up to the size of its tails, which is what every
interior-test-vector check in this package relies on.  A fixed-order
stencil would leave a truncation error orders of magnitude above
``Tolerances.grid`` at the default grid sizes.

Spectral operators are Fourier multipliers.  :func:`fft_apply` applies a
symbol along one axis of a field by FFT; that is how the derivative acts
matrix-free and how prequantum flows shift rows of the phase grid.  The
library builds no derivative matrix; :func:`derivative_matrix_1d`, the dense
matrix of the same symbol, is kept as a reference for tests and tracing.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
# numpy imports its fft package on first use; importing it here moves that
# cost from the first transform of a run to the import of this module
from numpy import fft

__all__ = ["derivative_matrix_1d", "spectral_first_symbol", "spectral_shift_symbol",
           "fft_apply"]


def _spectral_wavenumbers(n: int, spacing: float) -> np.ndarray:
    return 2.0 * np.pi * fft.fftfreq(n, d=spacing)


@lru_cache(maxsize=64)
def spectral_first_symbol(n: int, spacing: float) -> np.ndarray:
    """Fourier symbol ``i*k`` of d/dx on n periodic samples, read-only."""
    k = _spectral_wavenumbers(n, spacing)
    if n % 2 == 0:
        k[n // 2] = 0.0  # odd symbol has no consistent Nyquist derivative
    symbol = 1j * k
    symbol.flags.writeable = False
    return symbol


def spectral_shift_symbol(n: int, spacing: float, shifts: np.ndarray | float) -> np.ndarray:
    """Fourier symbol ``exp(i*k*s)`` of ``f(x) -> f(x + s)`` on n periodic samples.

    One row per wavenumber and one column per entry of ``shifts``, so each
    column shifts one line of a field by its own amount; a scalar shift
    gives the 1D symbol that shifts every line alike.
    """
    return np.exp(1j * np.multiply.outer(_spectral_wavenumbers(n, spacing), shifts))


def fft_apply(field: np.ndarray, symbol: np.ndarray, axis: int) -> np.ndarray:
    """``ifft(symbol * fft(field))`` along one axis of ``field``.

    A 1D ``symbol`` (one entry per wavenumber of that axis) acts alike on
    every line; a symbol of the field's shape acts line by line, as a shear's
    per-row phase ramp does.  The spectrum is multiplied and transformed
    back in place, so a call allocates one complex array of the field's
    shape; the symbol must not broadcast beyond it.
    """
    if symbol.ndim == 1:
        shape = [1] * field.ndim
        shape[axis] = -1
        symbol = symbol.reshape(shape)
    spec = fft.fft(field, axis=axis)
    spec *= symbol
    return fft.ifft(spec, axis=axis, out=spec)


@lru_cache(maxsize=64)
def derivative_matrix_1d(n: int, spacing: float) -> np.ndarray:
    """Dense spectral first-derivative matrix on n samples, built once and shared read-only."""
    if n < 2 or spacing <= 0:
        raise ValueError("need at least two samples and a positive spacing")
    mat = np.ascontiguousarray(fft_apply(np.eye(n), spectral_first_symbol(n, spacing), 0).real)
    mat.flags.writeable = False
    return mat
