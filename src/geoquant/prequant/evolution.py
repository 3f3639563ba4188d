"""Prequantum unitary evolution on a phase-space grid.

A complete Hamiltonian flow rho_t acts on sections by

    (psi_t)(m) = exp[-(i/hbar) * Integral_0^t L_f(rho_tau(m)) dtau] * psi(rho_t(m)),

where ``L_f = p.(df/dp) - f`` in the p.dq gauge.  The four generators with
closed-form flows are supported: translations by q and p, the free kinetic
term c*p^2 (mass m = 1/(2c)), and the phase-plane rotation a*(q^2 + p^2).

Each of these flows is a linear or translational area-preserving map, so the
pullback ``psi o rho_t`` factors into shears: every grid line along one axis
is shifted by its own amount, a phase ramp ``exp(i k s_j)`` on the line's
Fourier series.  A translation is one constant shift, the free flow one
q-shear, and a rotation by ``w`` one or two sub-rotations of at most pi/2,
each three shears (Paeth 1986; Larkin, Oldfield & Klemm 1997).  On
band-limited states the shears are exact and unitary.  The FFT treats the
box as periodic, so whatever a shear carries across an edge wraps round to
the other side: each shear measures the squared-norm fraction it carries
across, and the evolution refuses when that escaped mass exceeds
``Tolerances.tail_mass``.

The same shears, applied to the coordinates, give the endpoint rho_t(m), and
with it the action in closed form.  Write f = f2 + f1 + f0, its parts of
degree 2, 1 and 0.  Euler's identity ``q.df/dq + p.df/dp = 2 f2 + f1`` and
``d(q.p)/dtau = p.df/dp - q.df/dq`` give

    L_f = (1/2) d(q.p)/dtau - f1/2 - f0.

In each supported family f1 is constant along the flow: it vanishes for the
free flow and the rotation, and for a translation f = f1 + f0 is conserved.
So the action is ``(q_t p_t - q p)/2 - t (f1(q, p)/2 + f0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_TOLERANCES, Tolerances
from ..errors import FlowEscapesGrid, UnsupportedObservable
from ..stencil import fft_apply, spectral_shift_symbol
from .gridops import PhaseSpaceGrid
from .observables import Observable

__all__ = ["prequantum_evolve", "classify_flow", "FlowSpec"]


@dataclass(frozen=True)
class FlowSpec:
    """Closed-form flow family and its parameter."""

    kind: str  # "translation_q" | "translation_p" | "free" | "rotation"
    coeff: float  # generator coefficient (alpha, c or a)
    constant: float = 0.0  # additive constant in f, enters only the phase


def classify_flow(f: Observable) -> FlowSpec:
    """Match f against the analytically integrable generator families."""
    if f.n != 1:
        raise UnsupportedObservable("evolution supports observables with n = 1")
    coeffs = {e: float(c) for e, c in f.poly.coeffs.items()}
    const = coeffs.pop((0, 0), 0.0)
    if not coeffs:
        return FlowSpec("translation_q", 0.0, const)  # zero generator: identity flow
    if set(coeffs) == {(0, 1)}:
        return FlowSpec("translation_q", coeffs[(0, 1)], const)  # f = c*p
    if set(coeffs) == {(1, 0)}:
        return FlowSpec("translation_p", coeffs[(1, 0)], const)  # f = c*q
    if set(coeffs) == {(0, 2)}:
        return FlowSpec("free", coeffs[(0, 2)], const)  # f = c*p^2 = p^2/2m
    if set(coeffs) == {(2, 0), (0, 2)} and np.isclose(coeffs[(2, 0)], coeffs[(0, 2)]):
        return FlowSpec("rotation", coeffs[(0, 2)], const)  # f = a*(q^2+p^2)
    raise UnsupportedObservable(
        "no closed-form flow for this observable; supported: c*p, c*q, c*p^2, a*(q^2+p^2)")


def _shears(spec: FlowSpec, t: float) -> list[tuple[int, float, float]]:
    """The pullback by rho_t as shears ``(axis, offset, slope)``, in the order applied.

    A shear pulls back along ``axis`` by ``offset + slope * x``, with x the
    coordinate of the other axis.
    """
    if spec.kind == "translation_q":
        return [(0, spec.coeff * t, 0.0)]
    if spec.kind == "translation_p":
        return [(1, -spec.coeff * t, 0.0)]
    if spec.kind == "free":
        return [(0, 0.0, 2.0 * spec.coeff * t)]
    if spec.kind == "rotation":
        w = np.pi - (np.pi - 2.0 * spec.coeff * t) % (2.0 * np.pi)  # in (-pi, pi]
        # |theta| <= pi/2 keeps every shear factor at most 1 (tan(theta/2) diverges
        # at pi), so intermediate shears move little mass towards the edges
        angles = [w] if abs(w) <= np.pi / 2 else [w / 2, w / 2]
        return [shear for theta in angles
                for shear in ((0, 0.0, np.tan(theta / 2)), (1, 0.0, -np.sin(theta)),
                              (0, 0.0, np.tan(theta / 2)))]
    raise UnsupportedObservable(spec.kind)


def _shear(psi: np.ndarray, grid: PhaseSpaceGrid, axis: int, offset: float,
           slope: float) -> tuple[np.ndarray, float]:
    """``psi(x + s)`` along ``axis`` with ``s = offset + slope * x_other`` per line.

    Returns the sheared field and the squared-norm fraction of ``psi`` that
    the shift carries across the box edge, where the FFT wraps it round.  A
    zero slope is a translation, shifted by one 1D symbol.
    """
    shifts = offset + slope * grid.axis(1 - axis)
    symbol = spectral_shift_symbol(grid.counts[axis], grid.spacings[axis],
                                   shifts if slope else offset)
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
    """Evolve a grid section along the prequantum flow of f.

    ``psi0`` may be flat or shaped ``(n_q, n_p)``; the result matches the
    input layout.  The pullback is a sequence of band-limited FFT shears and
    the phase is the closed-form action (see the module docstring), both
    exact for states resolved by the grid.  ``steps`` must be at least 1 and
    does not change the result.

    If some shear carries more than ``tolerances.tail_mass`` of the squared
    norm across the box edge, the evolution raises :class:`FlowEscapesGrid`
    with the worst such mass fraction as ``escaped_fraction``.  Nodes whose
    flowed position leaves the extents are filled with zeros.
    """
    if grid.n != 1:
        raise UnsupportedObservable("evolution is implemented for n = 1 grids")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spec = classify_flow(f)

    flat_input = psi0.ndim == 1
    psi = np.asarray(psi0, dtype=complex).reshape(grid.n_q, grid.n_p)
    shears = _shears(spec, t)
    carried = []
    for axis, offset, slope in shears:
        if offset or slope:
            psi, mass = _shear(psi, grid, axis, offset, slope)
            carried.append(mass)
    worst = float(np.max(carried, initial=0.0))
    if worst > tolerances.tail_mass:
        raise FlowEscapesGrid(
            f"a shear carries {worst:.3e} of the squared norm across the grid edge",
            escaped_fraction=worst)

    # the endpoint rho_t: the same shears move the coordinates, last shear first
    qmesh, pmesh = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    x = [qmesh, pmesh]
    for axis, offset, slope in reversed(shears):
        x[axis] = x[axis] + (offset + slope * x[1 - axis])
    q_t, p_t = x
    c = f.poly.coeffs
    f1 = float(c.get((1, 0), 0)) * qmesh + float(c.get((0, 1), 0)) * pmesh  # degree-1 part
    action = 0.5 * (q_t * p_t - qmesh * pmesh) - t * (0.5 * f1 + spec.constant)

    out = np.exp(-1j * action / hbar) * psi
    out[(q_t < grid.q_min) | (q_t > grid.q_max)
        | (p_t < grid.p_min) | (p_t > grid.p_max)] = 0.0
    return out.reshape(-1) if flat_input else out
