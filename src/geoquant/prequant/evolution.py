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
``Tolerances.tail_mass``.  The phase integral is taken by Gauss-Legendre
quadrature per step along the exact flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_TOLERANCES, Tolerances
from ..errors import FlowEscapesGrid, UnsupportedObservable
from ..polynomials import Polynomial
from ..stencil import fft_apply, spectral_shift_symbol
from .gridops import PhaseSpaceGrid
from .observables import Observable, ObservableKind

__all__ = ["prequantum_evolve", "classify_flow", "FlowSpec"]

_GL_NODES = 16


@dataclass(frozen=True)
class FlowSpec:
    """Closed-form flow family and its parameter."""

    kind: str  # "translation_q" | "translation_p" | "free" | "rotation"
    coeff: float  # generator coefficient (alpha, c or a)
    constant: float = 0.0  # additive constant in f, enters only the phase


def classify_flow(f: Observable) -> FlowSpec:
    """Match f against the analytically integrable generator families."""
    if f.kind is not ObservableKind.POLY_QP or f.n != 1:
        raise UnsupportedObservable("evolution supports 1D polynomial observables")
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


def _flow_map(spec: FlowSpec, q: np.ndarray, p: np.ndarray, t: float):
    if spec.kind == "translation_q":
        return q + spec.coeff * t, p
    if spec.kind == "translation_p":
        return q, p - spec.coeff * t
    if spec.kind == "free":
        return q + 2.0 * spec.coeff * t * p, p
    if spec.kind == "rotation":
        w = 2.0 * spec.coeff * t
        c, s = np.cos(w), np.sin(w)
        return q * c + p * s, p * c - q * s
    raise UnsupportedObservable(spec.kind)


def _lagrangian(f: Observable) -> Polynomial:
    """L_f = p * df/dp - f in the p.dq gauge."""
    p_var = Polynomial.variable(2, 1)
    return p_var * f.dp(0) - f.poly


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
    the shift carries across the box edge, where the FFT wraps it round.
    """
    shifts = offset + slope * grid.axis(1 - axis)
    symbol = spectral_shift_symbol(grid.counts[axis], grid.spacings[axis], shifts)
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
                      max_escape_fraction: float = 0.5,
                      tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Evolve a grid section along the prequantum flow of f.

    ``psi0`` may be flat or shaped ``(n_q, n_p)``; the result matches the
    input layout.  The pullback is a sequence of band-limited FFT shears
    (see the module docstring), exact for states resolved by the grid.

    Two guards refuse flows the box cannot hold, both with
    :class:`FlowEscapesGrid`.  If more than ``max_escape_fraction`` of the
    grid nodes flow outside the extents, its ``escaped_fraction`` is that
    node fraction.  Otherwise, if some shear carries more than
    ``tolerances.tail_mass`` of the squared norm across the box edge, it is
    the worst such mass fraction.  Nodes whose flowed position leaves the
    extents are filled with zeros.
    """
    if grid.n != 1:
        raise UnsupportedObservable("evolution is implemented for n = 1 grids")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spec = classify_flow(f)
    lagr = _lagrangian(f)

    flat_input = psi0.ndim == 1
    psi = np.asarray(psi0, dtype=complex).reshape(grid.n_q, grid.n_p)
    qmesh, pmesh = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")

    # endpoint of the flow from every node
    q_t, p_t = _flow_map(spec, qmesh, pmesh, t)
    escaped = ((q_t < grid.q_min) | (q_t > grid.q_max)
               | (p_t < grid.p_min) | (p_t > grid.p_max))
    frac = float(np.mean(escaped))
    if frac > max_escape_fraction:
        raise FlowEscapesGrid(
            f"{frac:.1%} of grid points flow outside the extents", escaped_fraction=frac)

    carried = []
    for axis, offset, slope in _shears(spec, t):
        if offset or slope:
            psi, mass = _shear(psi, grid, axis, offset, slope)
            carried.append(mass)
    worst = float(np.max(carried, initial=0.0))
    if worst > tolerances.tail_mass:
        raise FlowEscapesGrid(
            f"a shear carries {worst:.3e} of the squared norm across the grid edge",
            escaped_fraction=worst)

    # accumulated action integral along the exact flow
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    action = np.zeros_like(qmesh)
    dt = t / steps
    for k in range(steps):
        tau = (k + 0.5 * (nodes + 1.0)) * dt
        for tj, wj in zip(tau, weights):
            q_j, p_j = _flow_map(spec, qmesh, pmesh, tj)
            action += 0.5 * dt * wj * np.real(lagr.evaluate(q_j, p_j))

    out = np.exp(-1j * action / hbar) * psi
    out[escaped] = 0.0
    return out.reshape(-1) if flat_input else out
