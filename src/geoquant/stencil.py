"""Uniform-grid differentiation and shifts: spectral symbols, one FFT kernel, one reference matrix.

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

A shear shifts each line by an amount affine in the line's coordinate, so
its symbol exp(i k s_j) is a phase bilinear in two uniform lattices.
:func:`bilinear_phasor` builds such a phase from O(m + n) exponentials by
Bluestein's identity ab = (a^2 + b^2 - (a - b)^2) / 2 (Bluestein 1970): two
1D chirps and one Toeplitz table.  That is two complex multiplies per entry,
about a tenth of the time of the direct 2D exponential at 256^2.
:func:`spectral_shift_symbol`, which shifts every line alike, stays one 1D
exponential.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
# numpy imports its fft package on first use; importing it here moves that
# cost from the first transform of a run to the import of this module
from numpy import fft
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["derivative_matrix_1d", "spectral_first_symbol", "spectral_shift_symbol",
           "spectral_shear_symbol", "bilinear_phasor", "fft_apply"]


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


def spectral_shift_symbol(n: int, spacing: float, shift: float) -> np.ndarray:
    """Fourier symbol ``exp(i*k*shift)`` of ``f(x) -> f(x + shift)`` on n periodic samples."""
    return np.exp(1j * (_spectral_wavenumbers(n, spacing) * shift))


def bilinear_phasor(theta: float, m: int, n: int) -> np.ndarray:
    """``exp(i*theta*a*b)`` on the centred lattices ``a = arange(m) - m//2`` (rows)
    and ``b = arange(n) - n//2`` (columns), from ``2(m + n) - 1`` exponentials.

    By ab = (a^2 + b^2 - (a - b)^2) / 2 the phase is the outer product of two
    chirps exp(i theta a^2 / 2) and exp(i theta b^2 / 2) times the Toeplitz
    table exp(-i theta (a - b)^2 / 2), read from its m + n - 1 distinct
    values through a sliding window.  Those phases reach
    |theta| (max|a| + max|b|)^2 / 2, twice max|theta a b| on a square
    lattice, and the result is accurate to a small multiple of eps times that.
    """
    a, b = np.arange(m) - m // 2, np.arange(n) - n // 2
    # row i of the table holds the differences a_i - b for b descending: a reversed
    # window over the values of a_0 - b_{n-1} ... a_{m-1} - b_0
    lags = np.arange(a[-1] - b[0], a[0] - b[-1] - 1, -1)
    toeplitz = sliding_window_view(np.exp(-0.5j * theta * lags**2), n)[::-1]
    out = toeplitz * np.exp(0.5j * theta * b**2)
    out *= np.exp(0.5j * theta * a**2)[:, None]
    return out


def spectral_shear_symbol(n: int, spacing: float, offset: float, slope: float,
                          lines: int, line_spacing: float) -> np.ndarray:
    """Fourier symbols ``exp(i*k*s_j)`` that shift line j by ``s_j``, one column per line.

    Line j sits ``(j - lines//2) * line_spacing`` from the centre line, and
    ``s_j = offset + slope * (j - lines//2) * line_spacing``: ``offset`` is the
    centre line's shift.  The rows are the n wavenumbers in FFT order.  The
    phase is :func:`bilinear_phasor` on (wavenumber index, line index), whose
    rows ``ifftshift`` puts in FFT order, times the 1D symbol of ``offset``.
    """
    theta = 2.0 * np.pi / (n * spacing) * slope * line_spacing
    symbol = fft.ifftshift(bilinear_phasor(theta, n, lines), axes=0)
    symbol *= spectral_shift_symbol(n, spacing, offset)[:, None]
    return symbol


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
