"""Prequantum unitary evolution on a phase-space grid.

A complete Hamiltonian flow rho_t acts on sections by

    (psi_t)(m) = exp[-(i/hbar) * Integral_0^t L_f(rho_tau(m)) dtau] * psi(rho_t(m)),

where ``L_f = p.(df/dp) - f`` in the p.dq gauge.  For f of degree <= 2 at
n = 1, Hamilton's equations on X = (q, p, 1) read dX/dt = G X, so rho_t is
the affine map E = exp(t G), and L_f = X^T Q X.  The action is X^T W X with
W = E^T F, where E and F are the lower-right and upper-right blocks of
exp(t [[-G^T, Q], [0, G]]) (Van Loan 1978).

The pullback ``psi o rho_t`` factors into shears, each shifting every grid
line along one axis by its own amount: a phase ramp ``exp(i k s_j)`` on the
line's Fourier series.  With A the traceless 2x2 block of G and
delta = -det A, exp(t A) = 1 + S (A + delta T), where
S = sinh(t sqrt(delta)) / sqrt(delta) and T = tanh(t sqrt(delta) / 2) / sqrt(delta).
That is three shears with slopes closed in S and T (Paeth 1986), or four
whose slopes grow as sqrt(t) where those are less steep, as for f ~ qp.  An
elliptic map runs over t modulo its period, and past a quarter turn as its
half map twice.  On band-limited states the shears are exact and unitary.
The FFT treats the box as periodic: each shear measures the squared-norm
fraction it carries across an edge, and the evolution refuses when that
exceeds ``Tolerances.tail_mass``.

No exponential of a grid-sized array is taken.  A sloped shear's symbol is
exp(i k offset) times exp(i theta j a), bilinear in the wavenumber index j
and the line offset a from the centre line, which
:func:`~geoquant.stencil.bilinear_phasor` builds from O(n_q + n_p)
exponentials.  The action splits about the centre node (q_c, p_c) as
q-only + p-only + c (q - q_c)(p - p_c), with c = w_01 + w_10: one 1D
exponential per axis, and the same phasor for the cross term when c is
nonzero.  A zero action (a translation along p) multiplies nothing.  So a
shear costs its FFT pair and a few complex multiplies per node, and the
phase a few multiplies per node.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_TOLERANCES, Tolerances
from ..errors import FlowEscapesGrid, UnsupportedObservable
from ..stencil import bilinear_phasor, fft_apply, spectral_shear_symbol, spectral_shift_symbol
from .gridops import PhaseSpaceGrid
from .observables import Observable

__all__ = ["prequantum_evolve"]


def _generator(f: Observable) -> tuple[np.ndarray, np.ndarray]:
    """G and Q on X = (q, p, 1), with dX/dt = G X and L_f = X^T Q X."""
    if f.n != 1 or f.poly.total_degree() > 2:
        raise UnsupportedObservable("evolution supports observables of degree <= 2 with n = 1")
    a, b, c, d, e, k = (float(f.poly.coeffs.get(x, 0))
                        for x in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    # f = a q^2 + b q p + c p^2 + d q + e p + k; dq/dt = df/dp, dp/dt = -df/dq
    g = np.array([[b, 2.0 * c, e], [-2.0 * a, -b, -d], [0.0, 0.0, 0.0]])
    lagrangian = np.array([[-a, 0.0, -0.5 * d], [0.0, c, 0.0], [-0.5 * d, 0.0, -k]])
    return g, lagrangian


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m): scaled below unit norm, an order-18 Taylor sum, then squared back."""
    squarings = max(0, int(np.frexp(np.linalg.norm(m, 1))[1]))
    x = m / 2.0**squarings
    term = out = np.eye(len(m))
    for k in range(1, 19):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _shears(g: np.ndarray, t: float) -> list[tuple[int, float, float]]:
    """The pullback by exp(t g) as shears ``(axis, offset, slope)``, in the order applied.

    A shear pulls back along ``axis`` by ``offset + slope * x``, with x the
    coordinate of the other axis.  Composed with the first shear outermost,
    the list is the affine map exp(t g).
    """
    a, v = g[:2, :2], g[:2, 2]
    delta = a[0, 0] ** 2 + a[0, 1] * a[1, 0]
    if delta < 0:  # the map is periodic; a t within half a period stays as it is
        period = 2.0 * np.pi / np.sqrt(-delta)
        t -= period * np.round(t / period)
    root = np.sqrt(complex(delta))
    s_t = lambda tau: ((np.sinh(tau * root) / root).real,
                       (np.tanh(tau * root / 2) / root).real) if root else (tau, tau / 2)
    outer = int(abs(a[0, 1]) > abs(a[1, 0]))  # the axis of the outer shears of three
    div, a00 = a[1 - outer, outer], (1 - 2 * outer) * a[0, 0]

    def linear(tau: float) -> list[tuple[int, float]]:
        s, tt = s_t(tau)
        m22_less_1 = s * (delta * tt - a[0, 0])
        side, m22 = np.sqrt(abs(m22_less_1)), 1.0 + m22_less_1
        # three shears' slopes divide out S, so they stay exact near a full period
        three = [(outer, (delta * tt + a00) / div), (1 - outer, s * div),
                 (outer, (delta * tt - a00) / div)] if div else None
        r = np.copysign(side, m22_less_1)
        four = [(0, (s * a[0, 1] - side) / m22), (1, r), (0, side),
                (1, (s * a[1, 0] - r) / m22)] if m22 > 0 else None
        steepest = lambda shears: max(abs(slope) for _, slope in shears) if shears else np.inf
        return three if steepest(three) <= max(1.0, steepest(four)) else four

    s, tt = s_t(t)
    shears = linear(t / 2) * 2 if 1.0 + delta * s * tt < 0 else linear(t)  # past a quarter turn
    u = s * (v + tt * (a @ v))  # the offset of exp(t g) enters the first two shears
    (ax1, slope1), (ax2, slope2) = shears[:2]
    return [(ax1, u[ax1] - slope1 * u[ax2], slope1), (ax2, u[ax2], slope2)] \
        + [(axis, 0.0, slope) for axis, slope in shears[2:]]


def _shear(psi: np.ndarray, grid: PhaseSpaceGrid, axis: int, offset: float,
           slope: float) -> tuple[np.ndarray, float]:
    """``psi(x + s)`` along ``axis`` with ``s = offset + slope * x_other`` per line.

    Returns the sheared field and the squared-norm fraction of ``psi`` that
    the shift carries across the box edge, where the FFT wraps it round.  A
    zero slope is a translation, shifted by one 1D symbol.
    """
    other = 1 - axis
    lines = grid.axis(other)
    shifts = offset + slope * lines
    if slope:
        symbol = spectral_shear_symbol(grid.counts[axis], grid.spacings[axis],
                                       shifts[lines.size // 2], slope, lines.size,
                                       grid.spacings[other])
    else:
        symbol = spectral_shift_symbol(grid.counts[axis], grid.spacings[axis], offset)
    x = grid.axis(axis)[:, None]
    crossed = (x - shifts < grid.mins[axis]) | (x - shifts > grid.maxs[axis])
    if axis == 1:
        symbol, crossed = symbol.T, crossed.T
    mass = np.abs(psi) ** 2
    total = float(np.sum(mass))
    carried = float(np.sum(mass, where=crossed)) / total if total > 0 else 0.0
    return fft_apply(psi, symbol, axis), carried


def prequantum_evolve(f: Observable, psi0: np.ndarray, t: float, steps: int,
                      grid: PhaseSpaceGrid, hbar: float,
                      tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Evolve a grid section along the prequantum flow of f, of degree <= 2 at n = 1.

    ``psi0`` may be flat or shaped ``(n_q, n_p)``; the result matches the
    input layout.  The pullback is a sequence of band-limited FFT shears and
    the phase is the action X^T W X of the module docstring, both exact for
    states resolved by the grid.  ``steps`` must be at least 1 and does not
    change the result.  ``hbar`` must be positive and finite and ``t`` finite;
    a negative ``t`` is the backward flow.

    If some shear carries more than ``tolerances.tail_mass`` of the squared
    norm across the box edge, the evolution raises :class:`FlowEscapesGrid`
    with the worst such mass fraction as ``escaped_fraction``.  Nodes whose
    flowed position leaves the extents are filled with zeros.
    """
    if grid.n != 1:
        raise UnsupportedObservable("evolution is implemented for n = 1 grids")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 < hbar < np.inf:
        raise ValueError("hbar must be positive and finite")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    g, lagrangian = _generator(f)

    flat_input = psi0.ndim == 1
    psi = np.asarray(psi0, dtype=complex).reshape(grid.n_q, grid.n_p)
    carried = []
    for axis, offset, slope in _shears(g, t):
        if offset or slope:
            psi, mass = _shear(psi, grid, axis, offset, slope)
            carried.append(mass)
    worst = float(np.max(carried, initial=0.0))
    if worst > tolerances.tail_mass:
        raise FlowEscapesGrid(
            f"a shear carries {worst:.3e} of the squared norm across the grid edge",
            escaped_fraction=worst)

    van_loan = _expm(t * np.block([[-g.T, lagrangian], [np.zeros((3, 3)), g]]))
    e = van_loan[3:, 3:]
    w = e.T @ van_loan[:3, 3:]
    q, p = grid.q_axis, grid.p_axis
    if w.any():
        # X^T W X with q p = q_c p + p_c q - q_c p_c + (q - q_c)(p - p_c): the last term is
        # bilinear in the lattice offsets from the centre node, the rest one 1D phase per axis
        cross, q_c, p_c = w[0, 1] + w[1, 0], q[q.size // 2], p[p.size // 2]
        q_phase = np.exp(-1j / hbar * (q * (w[0, 0] * q + (w[0, 2] + w[2, 0]) + cross * p_c)))
        p_phase = np.exp(-1j / hbar * (p * (w[1, 1] * p + (w[1, 2] + w[2, 1]) + cross * q_c)
                                       + (w[2, 2] - cross * q_c * p_c)))
        if cross:
            out = bilinear_phasor(-cross * grid.h_q * grid.h_p / hbar, q.size, p.size)
            out *= q_phase[:, None]
            out *= p_phase
        else:
            out = np.multiply.outer(q_phase, p_phase)
        out *= psi
    else:  # a translation along p, or no flow: the shear's array, never the input
        out = psi if carried else psi.copy()
    q, p = q[:, None], p[None, :]
    q_t = e[0, 0] * q + e[0, 1] * p + e[0, 2]
    p_t = e[1, 0] * q + e[1, 1] * p + e[1, 2]
    out[(q_t < grid.q_min) | (q_t > grid.q_max)
        | (p_t < grid.p_min) | (p_t > grid.p_max)] = 0.0
    return out.reshape(-1) if flat_input else out
