"""Uniform-grid differentiation: banded matrices, spectral symbols, one FFT kernel.

A 4th-order centered finite-difference first derivative plus an FFT-based
spectral scheme, each with one edge convention.  The ``"fd4"`` stencil
treats samples beyond the edge as zero: it drops the couplings that would
leave the box, so the matrix stays antisymmetric.  The ``"spectral"``
scheme differentiates the periodic extension of the box.  With states that
vanish near the edges the two agree to the size of the tails, which is what
every interior-test-vector check in this package relies on.

Spectral operators are Fourier multipliers.  :func:`fft_apply` applies a
symbol along one axis of a field by FFT; that is how the spectral derivative
acts matrix-free and how prequantum flows shift rows of the phase grid.
The one dense spectral matrix, of the first derivative, is built from the
same symbol and only for assembling operator matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = ["derivative_matrix_1d", "spectral_first_symbol", "spectral_shift_symbol",
           "fft_apply"]

# antisymmetric halves of the centered first-derivative stencils
_FIRST_HALF = {
    "fd4": [2.0 / 3.0, -1.0 / 12.0],
}

SCHEMES = tuple(_FIRST_HALF) + ("spectral",)


def _banded(n: int, spacing: float, half: list[float]) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    idx = np.arange(n)

    def put(offset: int, coeff: float):
        lo = max(0, -offset)
        hi = min(n, n - offset)
        rows.append(idx[lo:hi])
        cols.append(idx[lo:hi] + offset)
        vals.append(np.full(hi - lo, coeff))

    for k, c in enumerate(half, start=1):
        put(k, c)
        put(-k, -c)
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return mat.multiply(1.0 / spacing).tocsr()


def _spectral_wavenumbers(n: int, spacing: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)


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
    spec = np.fft.fft(field, axis=axis)
    spec *= symbol
    return np.fft.ifft(spec, axis=axis, out=spec)


@lru_cache(maxsize=64)
def _spectral_first(n: int, spacing: float) -> np.ndarray:
    mat = fft_apply(np.eye(n), spectral_first_symbol(n, spacing), 0)
    return np.ascontiguousarray(mat.real)


def _validate(n: int, spacing: float, scheme: str):
    if n < 2:
        raise ValueError("need at least two samples")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; options: {SCHEMES}")


def derivative_matrix_1d(n: int, spacing: float, scheme: str = "fd4"):
    """First-derivative matrix; sparse for fd schemes, dense for spectral."""
    _validate(n, spacing, scheme)
    if scheme == "spectral":
        return _spectral_first(n, float(spacing))
    return _banded(n, spacing, _FIRST_HALF[scheme])
