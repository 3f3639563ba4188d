"""Prequantum evolution with every phase a direct 2D exponential: a reference for the
chirp-factored shear symbols and the separable action phase of the library."""

import numpy as np

from geoquant.config import DEFAULT_TOLERANCES
from geoquant.errors import FlowEscapesGrid
from geoquant.prequant import evolution
from geoquant.stencil import fft_apply


def shift_symbol(n, spacing, shifts):
    """exp(i k s_j) with one row per wavenumber (FFT order) and one column per shift."""
    return np.exp(1j * np.multiply.outer(2.0 * np.pi * np.fft.fftfreq(n, d=spacing), shifts))


def evolve(f, psi0, t, grid, hbar, tolerances=DEFAULT_TOLERANCES):
    """``prequantum_evolve`` with each shear's symbol and the action X^T W X on the mesh."""
    g, lagrangian = evolution._generator(f)
    psi = np.asarray(psi0, dtype=complex).reshape(grid.shape)
    worst = 0.0
    for axis, offset, slope in evolution._shears(g, t):
        if not (offset or slope):
            continue
        shifts = offset + slope * grid.axis(1 - axis)
        symbol = shift_symbol(grid.counts[axis], grid.spacings[axis], shifts)
        x = grid.axis(axis)[:, None]
        crossed = (x - shifts < grid.mins[axis]) | (x - shifts > grid.maxs[axis])
        if axis == 1:
            symbol, crossed = symbol.T, crossed.T
        mass = np.abs(psi) ** 2
        worst = max(worst, float(np.sum(mass[crossed]) / np.sum(mass)))
        psi = fft_apply(psi, symbol, axis)
    if worst > tolerances.tail_mass:
        raise FlowEscapesGrid("escapes", escaped_fraction=worst)
    van_loan = evolution._expm(t * np.block([[-g.T, lagrangian], [np.zeros((3, 3)), g]]))
    e = van_loan[3:, 3:]
    w = e.T @ van_loan[:3, 3:]
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    x = np.stack([q, p, np.ones_like(q)])
    action = np.einsum("i...,ij,j...->...", x, w, x)
    q_t, p_t = np.einsum("ij,j...->i...", e[:2], x)
    out = np.exp(-1j * action / hbar) * psi
    out[(q_t < grid.q_min) | (q_t > grid.q_max) | (p_t < grid.p_min) | (p_t > grid.p_max)] = 0.0
    return out
