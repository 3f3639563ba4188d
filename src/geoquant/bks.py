"""Pairing between transverse polarizations and small-time evolution.

Position- and momentum-polarized states are sampled on configuration grids.
The projection between them is the unitary Fourier kernel
``(2 pi hbar)^(-n/2) exp(+i p.q / hbar)``; the free-particle pairing at time
t is the 2n-dimensional oscillatory integral

    <<rho_t s, r>> = (t / 2 pi hbar m)^(n/2) *
        Integral conj(psi(q + t p / m)) chi(q) exp(i p^2 t / 2 m hbar) dp dq.

The momentum integral is evaluated after the substitution y = t p / m as a
quadratic-phase integral with panels uniform in phase and Gauss-Legendre
nodes per panel; node doubling guards every evaluation.  When the q nodes lie
on psi's sample lattice, the y rule folds into a chirp stencil on that
lattice which depends only on (spacing, chirp rate, y range, panel
resolution), not on the states; :func:`_chirp_stencil` memoises it, so
pairings that share a geometry (the times of a Richardson panel across
states of equal support) build it once.  The t -> 0+ limit
of the pairing carries the principal-branch Fresnel phase exp(i pi n/4);
differentiating at t = 0 and conjugating turns that into the factor
exp(-i pi n/4) multiplying hbar^2/2m in the recovered generator, which is
what :func:`schrodinger_residual` measures as ``c_fit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import QuadratureFailure, SupportEscapesGrid, UnsupportedObservable
from .halfform import ConfigGrid
from .stencil import fft_apply, spectral_first_symbol

__all__ = [
    "PolarizedState",
    "PairingResult",
    "SchrodingerFit",
    "gaussian_state",
    "windowed_plane_wave",
    "fourier_project",
    "fourier_project_back",
    "bks_pairing",
    "schrodinger_residual",
    "state_projected_rate",
    "richardson_extrapolate",
]

_GL_POINTS = 12
_THETA_MAX = 1.5 * np.pi  # phase advance per quadrature panel
_SUPPORT_CUTOFF = 1e-15
_STENCIL_CACHE_SIZE = 64  # chirp stencils held; each is one complex per offset


@dataclass(frozen=True)
class PolarizedState:
    """Complex samples on a configuration grid, tagged by polarization."""

    samples: np.ndarray
    grid: ConfigGrid
    polarization: str  # "position" | "momentum"
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex).reshape(self.grid.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("state samples must be finite")
        object.__setattr__(self, "samples", arr)
        if self.polarization not in ("position", "momentum"):
            raise ValueError(f"unknown polarization {self.polarization!r}")
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")

    @property
    def n(self) -> int:
        return self.grid.n

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.cell_volume))

    def inner(self, other: "PolarizedState") -> complex:
        """Grid inner product <self, other>, conjugate-linear on the left."""
        if other.grid != self.grid:
            raise ValueError("states live on different grids")
        return complex(np.sum(np.conj(self.samples) * other.samples)
                       * self.grid.cell_volume)

    def normalized(self) -> "PolarizedState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return PolarizedState(self.samples / n, self.grid, self.polarization,
                              self.hbar, self.mass)


# -- state constructors -------------------------------------------------------

def gaussian_state(grid: ConfigGrid, center=0.0, width=1.0, wavenumber=0.0,
                   polarization: str = "position", hbar: float = 1.0,
                   mass: float = 1.0, normalize: bool = True) -> PolarizedState:
    """Gaussian exp(-(x-c)^2 / 2 w^2) * exp(i k x), per axis."""
    center = np.broadcast_to(np.atleast_1d(center), (grid.n,))
    width = np.broadcast_to(np.atleast_1d(width), (grid.n,))
    wavenumber = np.broadcast_to(np.atleast_1d(wavenumber), (grid.n,))
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    psi = np.ones(grid.shape, dtype=complex)
    for x, c, w, k in zip(mesh, center, width, wavenumber):
        psi = psi * np.exp(-((x - c) ** 2) / (2.0 * w**2) + 1j * k * x)
    state = PolarizedState(psi, grid, polarization, hbar, mass)
    return state.normalized() if normalize else state


def _smoothstep7(x: np.ndarray) -> np.ndarray:
    """Septic smoothstep: C^3 ramp from 0 at x<=0 to 1 at x>=1."""
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def windowed_plane_wave(grid: ConfigGrid, k: float, flat_halfwidth: float,
                        taper_width: float, center: float = 0.0,
                        hbar: float = 1.0, mass: float = 1.0) -> PolarizedState:
    """exp(i k q) under a C^3 compactly supported window (1D).

    The window is identically one on |q-c| <= flat_halfwidth and descends to
    zero over ``taper_width`` by a septic smoothstep, keeping the first three
    derivatives continuous so high-order interpolation and Laplacian fits are
    not polluted by edge jumps.
    """
    if grid.n != 1:
        raise ValueError("windowed plane waves are built on 1D grids")
    q = grid.axis(0)
    s = (flat_halfwidth + taper_width - np.abs(q - center)) / taper_width
    window = _smoothstep7(s)
    psi = window * np.exp(1j * k * q)
    return PolarizedState(psi, grid, "position", hbar, mass).normalized()


# -- Fourier projection --------------------------------------------------------

def _tail_mass(samples: np.ndarray, band: int = 2) -> float:
    total = float(np.sum(np.abs(samples) ** 2))
    if total == 0:
        return 0.0
    mask = np.zeros(samples.shape, dtype=bool)
    for axis in range(samples.ndim):
        sl = [slice(None)] * samples.ndim
        sl[axis] = slice(0, band)
        mask[tuple(sl)] = True
        sl[axis] = slice(-band, None)
        mask[tuple(sl)] = True
    return float(np.sum(np.abs(samples[mask]) ** 2)) / total


def _fourier_apply(state: PolarizedState, target: ConfigGrid, sign: float,
                   out_polarization: str,
                   tolerances: Tolerances) -> PolarizedState:
    tail = _tail_mass(state.samples)
    if tail > tolerances.tail_mass:
        raise SupportEscapesGrid(
            f"boundary band carries {tail:.3e} of the squared norm", tail_mass=tail)
    hbar = state.hbar
    kernels = []
    for axis in range(state.n):
        src = state.grid.axis(axis)
        dst = target.axis(axis)
        h = state.grid.spacings[axis]
        kernels.append(np.exp(sign * 1j * np.outer(dst, src) / hbar)
                       * h / np.sqrt(2.0 * np.pi * hbar))
    if state.n == 1:
        out = kernels[0] @ state.samples
    else:
        out = kernels[0] @ state.samples @ kernels[1].T
    return PolarizedState(out, target, out_polarization, hbar, state.mass)


def fourier_project(phi_p: PolarizedState, target: ConfigGrid | None = None,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> PolarizedState:
    """Momentum to position: (2 pi hbar)^(-n/2) Integral phi(p) e^{+i p.q/hbar} d^n p."""
    if phi_p.polarization != "momentum":
        raise ValueError("fourier_project expects a momentum-polarized state")
    return _fourier_apply(phi_p, target or phi_p.grid, +1.0,
                          "position", tolerances)


def fourier_project_back(psi_q: PolarizedState, target: ConfigGrid | None = None,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> PolarizedState:
    """Position to momentum with the opposite kernel sign; inverse of the above."""
    if psi_q.polarization != "position":
        raise ValueError("fourier_project_back expects a position-polarized state")
    return _fourier_apply(psi_q, target or psi_q.grid, -1.0,
                          "momentum", tolerances)


# -- quadratic-phase quadrature -----------------------------------------------

class _UniformInterpolant:
    """Order-6 Lagrange interpolation on a uniform grid, zero outside.

    The sample array is padded with zeros so states that decay inside their
    grid continue smoothly to zero beyond it.  Weights come from the explicit
    quintic Lagrange polynomials on the stencil offsets (-2..3), which keeps
    evaluation a handful of fused array operations.
    """

    def __init__(self, x0: float, h: float, samples: np.ndarray, pad: int = 8):
        self.h = float(h)
        self.x0 = float(x0) - pad * self.h
        self.vals = np.concatenate([np.zeros(pad, dtype=complex),
                                    np.asarray(samples, dtype=complex),
                                    np.zeros(pad, dtype=complex)])

    @staticmethod
    def _lagrange_weights(t: np.ndarray) -> tuple[np.ndarray, ...]:
        """Quintic Lagrange weights at fraction t for stencil offsets -2..3."""
        a0 = t + 2.0
        a1 = t + 1.0
        a3 = t - 1.0
        a4 = t - 2.0
        a5 = t - 3.0
        p45 = a4 * a5
        p345 = a3 * p45
        p01 = a0 * a1
        p01t = p01 * t
        return (a1 * t * p345 / -120.0,
                a0 * t * p345 / 24.0,
                p01 * p345 / -12.0,
                p01t * p45 / 12.0,
                p01t * a3 * a5 / -24.0,
                p01t * a3 * a4 / 120.0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        pos = (np.asarray(x, dtype=float) - self.x0) / self.h
        base = np.floor(pos).astype(np.int64)
        t = pos - base
        valid = (base >= 2) & (base + 3 < self.vals.size)
        base = np.where(valid, base, 2)
        weights = self._lagrange_weights(t)
        v = self.vals
        out = sum(v[base + k] * w for k, w in zip(range(-2, 4), weights))
        out[~valid] = 0.0
        return out

    def lattice_offsets(self, x: np.ndarray) -> np.ndarray | None:
        """Integer lattice indices of the points x, or None if off-lattice."""
        rel = (np.asarray(x, dtype=float) - self.x0) / self.h
        idx = np.rint(rel)
        if np.max(np.abs(rel - idx)) > 1e-9:
            return None
        return idx.astype(np.int64)

    def correlate_conj(self, m_idx: np.ndarray, s_min: int,
                       coeff: np.ndarray) -> np.ndarray:
        """sum_s coeff_s * conj(vals[m + s_min + s]) for lattice indices m.

        ``(s_min, coeff)`` is a :func:`_chirp_stencil` on this lattice's
        spacing: because the evaluation points share the sample lattice, the
        Lagrange fractions depend on y alone and the double sum over q and y
        collapses to this short correlation of the conjugated samples with the
        (memoised) stencil, which is orders of magnitude cheaper than
        pointwise evaluation.
        """
        start = m_idx + s_min
        pad_left = max(0, -int(start.min()))
        pad_right = max(0, int(start.max()) + coeff.size - self.vals.size)
        wall = np.concatenate([np.zeros(pad_left, dtype=complex),
                               np.conj(self.vals),
                               np.zeros(pad_right, dtype=complex)])
        windows = np.lib.stride_tricks.sliding_window_view(wall, coeff.size)
        return windows[start + pad_left] @ coeff


def _support_bounds(axis: np.ndarray, samples: np.ndarray, spacing: float,
                    pad_cells: int = 4) -> tuple[float, float]:
    amp = np.abs(samples)
    peak = amp.max()
    if peak == 0:
        return axis[0], axis[-1]
    idx = np.nonzero(amp > _SUPPORT_CUTOFF * peak)[0]
    return (axis[idx[0]] - pad_cells * spacing,
            axis[idx[-1]] + pad_cells * spacing)


def _phase_panels(y_lo: float, y_hi: float, a: float, theta_max: float,
                  h_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for Integral_{y_lo}^{y_hi} f(y) e^{i a y^2} dy.

    Panel edges are uniform in the phase a*y^2 (closed form sqrt(k theta/a))
    merged with a uniform grid of pitch h_max that resolves the envelope.
    Returns flat node and weight arrays; the weights do not include the
    oscillatory kernel.
    """
    span = max(abs(y_lo), abs(y_hi))
    k_max = int(np.ceil(a * span**2 / theta_max)) + 1
    phase_edges = np.sqrt(np.arange(1, k_max + 1) * theta_max / a)
    uniform_edges = np.arange(h_max, span + h_max, h_max)
    pos = np.unique(np.concatenate([[0.0], phase_edges, uniform_edges]))
    pos = pos[pos <= span + h_max]
    edges = np.unique(np.clip(np.concatenate([-pos[::-1], pos]), y_lo, y_hi))
    widths = np.diff(edges)
    keep = widths > 1e-12 * max(span, 1.0)
    lo = edges[:-1][keep]
    width = widths[keep]
    glx, glw = np.polynomial.legendre.leggauss(_GL_POINTS)
    half = 0.5 * width
    mid = lo + half
    nodes = (mid[:, None] + half[:, None] * glx[None, :]).reshape(-1)
    weights = (half[:, None] * glw[None, :]).reshape(-1)
    return nodes, weights


def _chirp_rule(y_lo: float, y_hi: float, a: float, theta_max: float,
                h_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y_j and kernel w_j e^{i a y_j^2} of the phase-panel rule."""
    nodes, weights = _phase_panels(y_lo, y_hi, a, theta_max, h_max)
    return nodes, weights * np.exp(1j * a * nodes**2)


@lru_cache(maxsize=_STENCIL_CACHE_SIZE)
def _chirp_stencil(h: float, a: float, y_lo: float, y_hi: float,
                   theta_max: float, h_max: float) -> tuple[int, np.ndarray]:
    """The chirp rule on [y_lo, y_hi] folded onto a lattice of spacing h.

    Returns ``(s_min, coeff)`` such that, for f sampled on any lattice of
    spacing h and x one of its nodes,

        sum_j w_j e^{i a y_j^2} f(x + y_j) = sum_s coeff_s f(x + (s_min + s) h)

    with f(x + y_j) the order-6 Lagrange interpolant.  The stencil depends on
    nothing but the arguments, so it is memoised: a hit returns exactly what
    a miss computes.  ``coeff`` is read-only because every pairing with the
    same geometry shares it; the node and weight arrays behind it (millions
    of entries for small t at the fine resolution) are not kept.
    """
    y, kernel = _chirp_rule(y_lo, y_hi, a, theta_max, h_max)
    posy = y / h
    b = np.floor(posy).astype(np.int64)
    weights = _UniformInterpolant._lagrange_weights(posy - b)
    s_min = int(b.min()) - 2
    coeff = np.zeros(int(b.max()) + 3 - s_min + 1, dtype=complex)
    for k, w in zip(range(-2, 4), weights):
        np.add.at(coeff, b + k - s_min, kernel * w)
    coeff.flags.writeable = False
    return s_min, coeff


@dataclass(frozen=True)
class PairingResult:
    """Value of the pairing with its half-form prefactor and convergence data."""

    value: complex
    t: float
    half_form_factor: float     # (t / 2 pi hbar m)^(n/2), principal branch
    fresnel_phase: complex      # exp(i pi n / 4), the t->0 branch factor
    doubling_delta: float = 0.0


def _pairing_value(interp: _UniformInterpolant, q_nodes: np.ndarray,
                   m_idx: np.ndarray | None, q_weights: np.ndarray,
                   t: float, hbar: float, mass: float,
                   y_lo: float, y_hi: float,
                   theta_max: float, h_max: float) -> complex:
    """One resolution of the pairing; ``m_idx`` holds the lattice indices of
    the q nodes, or None when they are off psi's lattice."""
    a = mass / (2.0 * hbar * t)
    if m_idx is not None:
        # plain floats keep the memo key hashable for 0-d array arguments
        s_min, coeff = _chirp_stencil(interp.h, float(a), y_lo, y_hi,
                                      float(theta_max), float(h_max))
        inner = interp.correlate_conj(m_idx, s_min, coeff)
    else:
        y_nodes, kernel = _chirp_rule(y_lo, y_hi, a, theta_max, h_max)
        inner = np.zeros(q_nodes.size, dtype=complex)
        chunk = max(1, int(4e6) // max(q_nodes.size, 1))
        for start in range(0, y_nodes.size, chunk):
            sl = slice(start, start + chunk)
            vals = interp(q_nodes[:, None] + y_nodes[None, sl])
            inner += np.conj(vals) @ kernel[sl]
    # q_weights already carry the chi samples and the grid measure
    q_integral = np.sum(q_weights * inner)
    return complex(np.sqrt(mass / (2.0 * np.pi * hbar * t)) * q_integral)


def bks_pairing(psi_q: PolarizedState, chi_q: PolarizedState, t: float,
                theta_max: float = _THETA_MAX, h_max: float | None = None,
                tolerances: Tolerances = DEFAULT_TOLERANCES) -> PairingResult:
    """Free-particle pairing of two position-polarized states at time t > 0.

    The flowed argument psi(q + t p / m) is evaluated by order-6 interpolation
    on a zero-padded extension of the state grid.  Every call is computed at
    the requested panel resolution and at doubled resolution; if the two
    differ beyond the ``bks`` tolerance (relative to the natural scale of the
    pairing) a :class:`QuadratureFailure` is raised.
    """
    if psi_q.polarization != "position" or chi_q.polarization != "position":
        raise ValueError("bks_pairing expects position-polarized states")
    if psi_q.n != 1:
        raise UnsupportedObservable("the pairing is implemented on 1D grids")
    if t <= 0:
        raise ValueError("t must be positive")
    if not np.isclose(psi_q.hbar, chi_q.hbar) or not np.isclose(psi_q.mass, chi_q.mass):
        raise ValueError("states disagree on hbar or mass")

    hbar, mass = psi_q.hbar, psi_q.mass
    psi_grid, chi_grid = psi_q.grid, chi_q.grid
    h_psi = psi_grid.spacings[0]
    interp = _UniformInterpolant(psi_grid.axis(0)[0], h_psi,
                                 psi_q.samples.reshape(-1))

    # restrict the q integral to the support of chi and the y integral to
    # wherever psi can still be reached from it
    q_axis = chi_grid.axis(0)
    q_lo, q_hi = _support_bounds(q_axis, chi_q.samples.reshape(-1),
                                 chi_grid.spacings[0])
    q_mask = (q_axis >= q_lo) & (q_axis <= q_hi)
    q_nodes = q_axis[q_mask]
    q_weights = chi_q.samples.reshape(-1)[q_mask] * chi_grid.spacings[0]
    x_lo, x_hi = _support_bounds(psi_grid.axis(0), psi_q.samples.reshape(-1), h_psi)
    y_lo, y_hi = float(x_lo - q_nodes[-1]), float(x_hi - q_nodes[0])
    if h_max is None:
        h_max = 8.0 * h_psi

    m_idx = interp.lattice_offsets(q_nodes)
    coarse = _pairing_value(interp, q_nodes, m_idx, q_weights, t, hbar, mass,
                            y_lo, y_hi, theta_max, h_max)
    fine = _pairing_value(interp, q_nodes, m_idx, q_weights, t, hbar, mass,
                          y_lo, y_hi, theta_max / 2.0, h_max / 2.0)
    delta = abs(fine - coarse)
    scale = max(abs(fine), 1e-3 * psi_q.norm() * chi_q.norm())
    if delta > tolerances.bks * scale:
        raise QuadratureFailure(
            f"node doubling moved the pairing by {delta:.3e} (scale {scale:.3e})",
            doubling_delta=delta)
    n = psi_q.n
    return PairingResult(
        value=fine, t=t,
        half_form_factor=float((t / (2.0 * np.pi * hbar * mass)) ** (n / 2.0)),
        fresnel_phase=np.exp(1j * np.pi * n / 4.0),
        doubling_delta=delta)


# -- small-time generator extraction --------------------------------------------

def richardson_extrapolate(ts: np.ndarray, values: np.ndarray) -> tuple[complex, float]:
    """Neville extrapolation of values(t) to t = 0.

    Returns the extrapolated value and the magnitude of the last correction,
    which serves as the stability diagnostic.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=complex)
    if ts.size != vals.size or ts.size < 2:
        raise ValueError("need matching t and value arrays with >= 2 entries")
    order = np.argsort(-ts)  # largest t first; the final refinement is smallest t
    t = ts[order]
    table = vals[order].copy()
    prev = table[0]
    for j in range(1, t.size):
        for i in range(t.size - j):
            table[i] = (t[i + j] * table[i] - t[i] * table[i + 1]) / (t[i + j] - t[i])
        prev, spread = table[0], abs(table[0] - prev)
    return complex(table[0]), float(spread)


@dataclass(frozen=True)
class SchrodingerFit:
    """Fitted generator coefficient and the quality of the fit."""

    c_fit: complex
    residual: float               # relative misfit of D_j against the Laplacian column
    extrapolation_spread: float   # worst relative Neville correction over the panel
    ok: bool
    notes: dict = field(default_factory=dict)


def _panel_derivatives(psi0: PolarizedState, t_list, test_states,
                       tolerances: Tolerances) -> tuple[np.ndarray, float, np.ndarray]:
    """Extrapolated weak derivatives D_j and overlaps <psi0, chi_j>."""
    branch = np.exp(1j * np.pi * psi0.n / 4.0)
    t_arr = np.asarray(sorted(t_list, reverse=True), dtype=float)
    if t_arr.size < 3 or t_arr.size > 10:
        raise ValueError("t_list should carry 3 to 10 small positive times")
    if np.any(t_arr <= 0):
        raise ValueError("all times must be positive")
    derivs = np.empty(len(test_states), dtype=complex)
    spread_rel = 0.0
    overlaps = np.empty(len(test_states), dtype=complex)
    for j, chi in enumerate(test_states):
        overlaps[j] = psi0.inner(chi)
        base = branch * overlaps[j]
        g = np.empty(t_arr.size, dtype=complex)
        for i, t in enumerate(t_arr):
            pairing = bks_pairing(psi0, chi, float(t), tolerances=tolerances)
            g[i] = (pairing.value - base) / t
        derivs[j], spread = richardson_extrapolate(t_arr, g)
        spread_rel = max(spread_rel, spread / max(abs(derivs[j]), 1e-30))
    return derivs, spread_rel, overlaps


def schrodinger_residual(psi0: PolarizedState, t_list,
                         test_states: list[PolarizedState] | None = None,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> SchrodingerFit:
    """Fit the small-time pairing generator against the discrete Laplacian.

    For each test state the pairing derivative at t = 0+ is extracted by
    Richardson extrapolation of ``(P(t) - e^{i pi n/4} <psi0, chi>) / t``;
    a single complex coefficient alpha is then fit by least squares to
    ``D_j = alpha * <Lap psi0, chi_j>``, with Lap the spectral second
    derivative applied by FFT.  Undoing the conjugation in the
    weak-form identification gives ``c_fit = i * hbar * conj(alpha)``, whose
    modulus should be hbar^2 / 2m and whose phase retains the principal
    Fresnel branch factor exp(-i pi n / 4).

    An unstable extrapolation or a poor fit is reported through ``ok`` and
    the diagnostics; no silent pass.
    """
    if psi0.polarization != "position" or psi0.n != 1:
        raise UnsupportedObservable("the generator fit runs on 1D position states")
    if test_states is None:
        test_states = _default_panel(psi0)
    derivs, spread_rel, _ = _panel_derivatives(psi0, t_list, test_states, tolerances)

    grid = psi0.grid
    lap = fft_apply(psi0.samples.reshape(-1),
                    spectral_first_symbol(grid.counts[0], grid.spacings[0]) ** 2, 0)
    cell = grid.cell_volume
    beta = np.array([np.vdot(lap, chi.samples.reshape(-1)) * cell
                     for chi in test_states])
    denom = np.vdot(beta, beta).real
    if denom == 0:
        raise ValueError("test panel is orthogonal to the Laplacian column")
    alpha = complex(np.vdot(beta, derivs) / denom)
    residual = float(np.linalg.norm(derivs - alpha * beta) / np.linalg.norm(derivs))
    c_fit = 1j * psi0.hbar * np.conj(alpha)
    ok = spread_rel <= tolerances.bks and residual <= 10.0 * tolerances.bks
    return SchrodingerFit(
        c_fit=c_fit, residual=residual, extrapolation_spread=spread_rel, ok=ok,
        notes={"panel_size": len(test_states), "t_list": sorted(float(t) for t in t_list)})


def _default_panel(psi0: PolarizedState) -> list[PolarizedState]:
    amp2 = np.abs(psi0.samples.reshape(-1)) ** 2
    q = psi0.grid.axis(0)
    mean = float(np.sum(q * amp2) / np.sum(amp2))
    width = float(np.sqrt(np.sum((q - mean) ** 2 * amp2) / np.sum(amp2)))
    mk = lambda c, w: gaussian_state(psi0.grid, center=c, width=w,
                                     hbar=psi0.hbar, mass=psi0.mass)
    return [psi0,
            mk(mean + 0.6 * width, width),
            mk(mean - 0.6 * width, width),
            mk(mean, 1.4 * width)]


def state_projected_rate(psi: PolarizedState, t_list,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> complex:
    """Pairing derivative projected on the state itself, as a rate.

    Returns ``D / (e^{i pi n/4} <psi, psi>)``; for a windowed plane wave of
    wavenumber k this scales like k^2 (the Laplacian eigenbehavior) up to the
    window's own curvature.
    """
    derivs, _, overlaps = _panel_derivatives(psi, t_list, [psi], tolerances)
    branch = np.exp(1j * np.pi * psi.n / 4.0)
    return complex(derivs[0] / (branch * overlaps[0]))
