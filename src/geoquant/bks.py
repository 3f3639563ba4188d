"""Pairing between transverse polarizations and small-time evolution.

Position- and momentum-polarized states are sampled on configuration grids.
The projection between them is the unitary Fourier kernel
``(2 pi hbar)^(-n/2) exp(+i p.q / hbar)``; the free-particle pairing at time
t is the 2n-dimensional oscillatory integral

    <<rho_t s, r>> = (t / 2 pi hbar m)^(n/2) *
        Integral conj(psi(q + t p / m)) chi(q) exp(i p^2 t / 2 m hbar) dp dq.

The momentum integral is evaluated after the substitution y = t p / m as a
quadratic-phase integral with panels uniform in phase and Gauss-Legendre
nodes per panel; node doubling guards every evaluation.  The q nodes lie on
psi's sample lattice (any other chi is rejected), so psi(q + y) is the
order-6 Lagrange interpolant of psi's samples and the y rule folds into a
chirp stencil on that lattice.  The panel pitch h_max is a whole number of
lattice cells and the y range is rounded outward to multiples of it, so the stencil depends only on the geometry (spacing,
chirp rate, panel resolution) and on which lattice cells of y it spans, not
on the states.  :func:`_fold_cells` gives each cell one row: the weights of
its nodes on the six lattice offsets around it, from six moments
sum_j w_j e^{i a y_j^2} t_j^p of those nodes and one 6x6 matrix of
cardinal-polynomial coefficients, which regroups the node-by-node sum
exactly.  It streams the rule: it walks the cells in windows of whole
h_max blocks, about ``_FOLD_PANELS`` panels each, builds only the window's
part of the panel rule, folds it into the window's rows and drops it, so a
build holds one window's nodes however many cells it folds; its windows
share one moment array, grown to the largest of them, so a build does not
allocate and fault in a fresh one per window.  Every multiple
of h_max is an edge of the whole rule, so the rows are those of a single
fold of the range, bit for bit.  ``_STENCILS`` keeps one table of rows per
geometry, for the cells of y >= 0 only, since each cell of y < 0 is a cell
of y >= 0 mirrored; the table grows at its far end when a range reaches
past it, a new table being an empty one grown, and a range's stencil is the
sum of its cells' rows, shifted, kept by range for repeats.

Only the stencil depends on t.  So the pairing sums over q first: each test
state's q weights against conj(psi) give its overlap profile, one value per
lattice offset, built once for all times by one FFT correlation
(:func:`_overlap_profiles`).  The test states of a panel share one y range
(the union of their reaches) and so one offset range, and each time costs
one stencil per resolution and one dot product per state with its profile.
A panel asks for its largest stencil first: smallest t first, since the
chirp rate a = m / 2 hbar t grows as t falls, and the fine resolution before
the coarse, whose table at the same cells holds about half the panels.  So
a panel with any table past ``_TABLE_PANELS_MAX`` is refused at its first
request, before anything is folded.

The Fourier projection on uniform grids is a chirp-z transform, one FFT
convolution per axis.  The t -> 0+ limit of the pairing carries the
principal-branch Fresnel phase exp(i pi n/4); differentiating at t = 0 and
conjugating turns that into the factor exp(-i pi n/4) multiplying hbar^2/2m
in the recovered generator, which is what :func:`schrodinger_residual`
measures as ``c_fit``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, gauss_legendre
from .errors import DegenerateGram, QuadratureFailure, SupportEscapesGrid, UnsupportedObservable
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
_H_MAX_CELLS = 8  # coarse panel pitch h_max in lattice cells of psi; even, so fine is 4
_SUPPORT_CUTOFF = 1e-15
_STENCIL_CACHE_SIZE = 64  # stencil tables held, one per geometry (h, a, theta_max, pitch)
_STENCIL_STORE_SIZE = 256  # assembled stencils held: at most 1,173 coefficients seen, so <= 5 MB
_FOLD_PANELS = 1024  # panels per fold window: about 12k nodes, a 1.2 MB work array, 2 MB in all
# panels c j^2 + j a table of j blocks may hold: 126x the largest fold of a demo, workload or
# test (63,331), under the smallest table of the bks demo at hbar = 1e-5 (1.02e7), so every
# request of that panel is refused; about 0.7 us a panel
_TABLE_PANELS_MAX = 8_000_000


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
        if not (0 < self.hbar < np.inf and 0 < self.mass < np.inf):
            raise ValueError("hbar and mass must be positive and finite")

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
            raise DegenerateGram("<psi, psi> = 0: the samples are zero or their squares underflow")
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

def _guard_tail(samples: np.ndarray, tolerances: Tolerances) -> None:
    """Raise :class:`SupportEscapesGrid` when the two samples at each edge of
    each axis carry more than ``tolerances.tail_mass`` of the squared norm:
    a transform of the periodic extension would wrap them round."""
    total = float(np.sum(np.abs(samples) ** 2))
    if total == 0:
        return
    mask = np.zeros(samples.shape, dtype=bool)
    for axis in range(samples.ndim):
        sl = [slice(None)] * samples.ndim
        sl[axis] = slice(0, 2)
        mask[tuple(sl)] = True
        sl[axis] = slice(-2, None)
        mask[tuple(sl)] = True
    tail = float(np.sum(np.abs(samples[mask]) ** 2)) / total
    if tail > tolerances.tail_mass:
        raise SupportEscapesGrid(
            f"boundary band carries {tail:.3e} of the squared norm", tail_mass=tail)


def _chirp_z(values: np.ndarray, axis: int, grid: ConfigGrid, c: float) -> np.ndarray:
    """``sum_k exp(i c x_j x_k) values_k`` along ``axis`` of ``grid``.

    With u_j the offsets from the middle index, h the spacing and xc the
    grid centre, x_j x_k = x_j xc + xc (x_k - xc) + h^2 u_j u_k, and
    u_j u_k = (u_j^2 + u_k^2 - (u_k - u_j)^2) / 2 turns the sum into one FFT
    convolution with a chirp between two chirp multiplications (Bluestein).
    Centring keeps every phase at the scale of the grid's half-width, so
    rounding does not grow with the index range.
    """
    vals = np.moveaxis(values, axis, -1)
    n, h, x = grid.counts[axis], grid.spacings[axis], grid.axis(axis)
    xc = 0.5 * (x[0] + x[-1])
    u = np.arange(n) - 0.5 * (n - 1)
    alpha = 0.5 * c * h * h
    size = 1 << (2 * n - 2).bit_length()
    lags = np.concatenate([np.arange(n), np.arange(1 - n, 0)])  # j - k
    chirp = np.zeros(size, dtype=complex)
    chirp[lags] = np.exp(-1j * alpha * lags**2)
    pre = np.exp(1j * (c * xc * h * u + alpha * u**2))
    conv = np.fft.ifft(np.fft.fft(vals * pre, size) * np.fft.fft(chirp), axis=-1)
    out = conv[..., :n] * np.exp(1j * (c * xc * x + alpha * u**2))
    return np.moveaxis(out, -1, axis)


def _fourier_apply(state: PolarizedState, sign: float, out_polarization: str,
                   tolerances: Tolerances) -> PolarizedState:
    _guard_tail(state.samples, tolerances)
    hbar, out = state.hbar, state.samples
    for axis in range(state.n):
        out = _chirp_z(out, axis, state.grid, sign / hbar) * (
            state.grid.spacings[axis] / np.sqrt(2.0 * np.pi * hbar))
    return PolarizedState(out, state.grid, out_polarization, hbar, state.mass)


def fourier_project(phi_p: PolarizedState, *,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> PolarizedState:
    """Momentum to position: (2 pi hbar)^(-n/2) Integral phi(p) e^{+i p.q/hbar} d^n p.

    The result lives on the input's grid.
    """
    if phi_p.polarization != "momentum":
        raise ValueError("fourier_project expects a momentum-polarized state")
    return _fourier_apply(phi_p, +1.0, "position", tolerances)


def fourier_project_back(psi_q: PolarizedState, *,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> PolarizedState:
    """Position to momentum with the opposite kernel sign; inverse of the above."""
    if psi_q.polarization != "position":
        raise ValueError("fourier_project_back expects a position-polarized state")
    return _fourier_apply(psi_q, -1.0, "momentum", tolerances)


# -- quadratic-phase quadrature -----------------------------------------------

def _lattice_offsets(x: np.ndarray, x0: float, h: float) -> np.ndarray | None:
    """Integer indices of the points x on the lattice ``x0 + h k``, or None if off-lattice."""
    rel = (np.asarray(x, dtype=float) - x0) / h
    idx = np.rint(rel)
    if np.max(np.abs(rel - idx)) > 1e-9:
        return None
    return idx.astype(np.int64)


def _overlap_profiles(samples: np.ndarray, m_lo: int, weights: np.ndarray, u_lo: int,
                      length: int) -> np.ndarray:
    """Y[i, v] = sum_r weights[i, r] * conj(samples[m_lo + r + u_lo + v]), 0 <= v < length.

    Row i of ``weights`` holds a test state's q weights on the lattice
    indices m_lo, m_lo + 1, ...; Y[i] is the overlap profile of that state
    against conj(samples) at the lattice offsets u_lo .. u_lo + length - 1.
    Samples beyond their grid count as zeros.  It is one FFT correlation:
    one transform of the conj(samples) segment that the offsets reach, and
    one forward and one inverse transform per row.
    """
    span = weights.shape[1]
    lo = m_lo + u_lo
    seg = np.zeros(span + length - 1, dtype=complex)
    a, b = max(lo, 0), min(lo + seg.size, samples.size)
    if a < b:
        seg[a - lo:b - lo] = np.conj(samples[a:b])
    size = 1 << (seg.size - 1).bit_length()
    spectrum = np.fft.fft(seg, size)
    # row by row: one transform of all rows at once took as long and kept
    # about 0.2 MB more resident memory in a warm process
    return np.array([np.fft.ifft(spectrum * np.conj(np.fft.fft(np.conj(row), size)))[:length]
                     for row in weights])


def _support_bounds(axis: np.ndarray, samples: np.ndarray,
                    spacing: float) -> tuple[float, float]:
    """The span of samples above the support cutoff, padded by four cells."""
    amp = np.abs(samples)
    peak = amp.max()
    if peak == 0:
        return axis[0], axis[-1]
    idx = np.nonzero(amp > _SUPPORT_CUTOFF * peak)[0]
    return axis[idx[0]] - 4 * spacing, axis[idx[-1]] + 4 * spacing


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1D array: ``np.unique`` without its ``numpy.ma`` import.

    ``np.unique`` asks ``numpy.ma`` whether its input is masked, and numpy
    imports that package (about 16 ms) on first use.
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _phase_panels(y_lo: float, y_hi: float, a: float, theta_max: float,
                  h_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for Integral_{y_lo}^{y_hi} f(y) e^{i a y^2} dy.

    Panel edges are uniform in the phase a*y^2 (closed form sqrt(k theta/a))
    merged with a uniform grid of pitch h_max that resolves the envelope.
    No edge depends on the range but by clipping to it (a panel is dropped
    only when it is too thin for its place on the line), so on a range whose
    ends are multiples of h_max the rule is the union of the rules of its
    h_max blocks.  Only the edges at distances from 0 that the range spans
    are formed, so the work and memory grow with the range's own panels,
    not with its distance from 0.  Returns flat node and weight arrays; the
    weights do not include the oscillatory kernel.
    """
    near = 0.0 if y_lo < 0.0 < y_hi else min(abs(y_lo), abs(y_hi))
    far = max(abs(y_lo), abs(y_hi))
    # one edge more at each end of [near, far]; clipping merges it into the end
    k_near = max(1, int(a * near**2 / theta_max) - 1)
    k_far = int(np.ceil(a * far**2 / theta_max)) + 1
    phase_edges = np.sqrt(np.arange(k_near, k_far + 1) * theta_max / a)
    uniform_edges = h_max * np.arange(max(1, int(near / h_max) - 1),
                                      int(np.ceil(far / h_max)) + 2)
    pos = _sorted_distinct(np.concatenate([[0.0], phase_edges, uniform_edges]))
    edges = _sorted_distinct(np.clip(np.concatenate([-pos[::-1], pos]), y_lo, y_hi))
    widths = np.diff(edges)
    scale = np.maximum(np.abs(edges), 1.0)
    keep = widths > 1e-12 * np.maximum(scale[:-1], scale[1:])
    lo = edges[:-1][keep]
    width = widths[keep]
    glx, glw = gauss_legendre(_GL_POINTS)
    half = 0.5 * width
    mid = lo + half
    nodes = (mid[:, None] + half[:, None] * glx[None, :]).reshape(-1)
    weights = (half[:, None] * glw[None, :]).reshape(-1)
    return nodes, weights


_OFFSETS = np.arange(-2, 4)  # lattice offsets of the order-6 Lagrange interpolant
# _LAGRANGE[k, p] is the coefficient of t^p in the cardinal polynomial of
# offset _OFFSETS[k]: prod_{j != k} (t - o_j) / (o_k - o_j).  Integer roots
# make the products exact; each entry is rounded once, by the division.
_LAGRANGE = np.array([
    np.polynomial.polynomial.polyfromroots(np.delete(_OFFSETS, k))
    / np.prod(o - np.delete(_OFFSETS, k)) for k, o in enumerate(_OFFSETS)])


def _fold_windows(c: float, k_lo: int, k_hi: int):
    """Windows [j0, j1) of whole blocks that tile k_lo <= k < k_hi, each of
    about ``_FOLD_PANELS`` panels (at least one block).

    With c = a h_max^2 / theta_max, the blocks 0 <= k < j hold about
    c j^2 + j panels: the phase edges below j h_max and one uniform edge per
    block.  Block -k-1 holds the panels of block k, so the blocks below 0
    are tiled as their mirror images, both sides from 0 outward.
    """
    for lo, hi, sign in ((max(k_lo, 0), k_hi, 1), (max(-k_hi, 0), -k_lo, -1)):
        j0 = lo
        while j0 < hi:
            budget = _FOLD_PANELS + c * j0 * j0 + j0
            j1 = int((np.sqrt(1.0 + 4.0 * c * budget) - 1.0) / (2.0 * c))
            j1 = min(max(j1, j0 + 1), hi)
            yield (j0, j1) if sign > 0 else (-j1, -j0)
            j0 = j1


def _fold_cells(h: float, a: float, theta_max: float, pitch: int, k_lo: int,
                k_hi: int) -> np.ndarray:
    """The chirp rule of the blocks [k pitch h, (k+1) pitch h], k_lo <= k < k_hi,
    folded onto a lattice of spacing h, one row per lattice cell.

    Row r = b - k_lo pitch holds the weights that the nodes y_j of cell
    b = floor(y_j/h) give f(x + (b + o) h), o = -2..3, such that for f
    sampled on any lattice of spacing h and x one of its nodes

        sum_j w_j e^{i a y_j^2} f(x + y_j) = sum_b sum_o rows[r, o + 2] f(x + (b + o) h)

    with f(x + y_j) the order-6 Lagrange interpolant.  A node at fraction
    t = y/h - b of its cell gives offset o the weight L_o(t), a quintic in t,
    so the nodes of one cell contribute sum_p _LAGRANGE[o, p] m_p with
    m_p = sum_j w_j e^{i a y_j^2} t_j^p their moments.  The rule's nodes
    ascend, so the nodes of one cell are contiguous: one ``reduceat`` gives
    all their moments, one 6x6 product their six offset sums.  A window of
    one cell is multiplied as two equal columns, since numpy would take its
    matrix-vector product, which rounds otherwise, and a row would then
    depend on how many cells share its window.  This regroups the
    node-by-node sum exactly; only the rounding differs, at the level of
    eps * sum_j |w_j| (t^p <= 1 and the cardinal coefficients are O(1)).

    The rule is never formed over the whole range.  The blocks are walked
    in windows of about ``_FOLD_PANELS`` panels (:func:`_fold_windows`); each
    window builds :func:`_phase_panels`' rule of its own blocks, folds it into
    its rows and drops it, so the temporaries stay the size of one window
    whatever the range.  The windows share one work array of six moment
    rows, grown to the largest window so far: the chirp w e^{i a y^2} is
    formed in place in its first row, with the bits of
    ``w * np.exp(1j * a * y**2)``, and the higher moments below it.  So a
    fold allocates its biggest temporary a few times, not once per window,
    and the allocator does not hand those pages back to the system and fault
    them in again window after window.  Every multiple of pitch h is an edge
    of that rule and of a cell, so a window's nodes and weights are those of
    the whole range's rule on its blocks, bit for bit, and a cell's row does
    not depend on the blocks folded with it.
    """
    h_max = pitch * h
    rows = np.zeros(((k_hi - k_lo) * pitch, _OFFSETS.size), dtype=complex)
    work = np.empty(0, dtype=complex)
    for j0, j1 in _fold_windows(a * h_max**2 / theta_max, k_lo, k_hi):
        y, w = _phase_panels(j0 * h_max, j1 * h_max, a, theta_max, h_max)
        posy = y / h
        b = np.floor(posy)
        cells = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
        size = _OFFSETS.size * y.size
        if work.size < size:
            # drop the smaller array and its one view first, so the new one can reuse its pages
            work = moments = None
            work = np.empty(size, dtype=complex)
        moments = work[:size].reshape(_OFFSETS.size, y.size)
        moments[0].real = 0.0
        np.square(y, out=moments[0].imag)
        np.multiply(moments[0].imag, a, out=moments[0].imag)
        np.exp(moments[0], out=moments[0])
        moments[0] *= w
        t = posy - b
        for p in range(1, _OFFSETS.size):
            np.multiply(moments[p - 1], t, out=moments[p])
        sums = np.add.reduceat(moments, cells, axis=1)
        if cells.size == 1:
            sums = np.repeat(sums, 2, axis=1)
        # a cell without nodes keeps its zero row
        rows[b[cells].astype(np.int64) - k_lo * pitch] = (_LAGRANGE @ sums).T[:cells.size]
    return rows


class _StencilTables:
    """Chirp stencils by geometry (h, a, theta_max, pitch): one table of
    cell rows for each of the ``_STENCIL_CACHE_SIZE`` most recently used
    geometries.

    A table holds the :func:`_fold_cells` rows of the cells 0 <= b < C, with
    C a multiple of the pitch.  The rule is symmetric in y, the kernel
    e^{i a y^2} is even and the offsets -2..3 are symmetric about 1/2
    (L_o(1 - t) = L_{1-o}(t)), so cell -b-1 is row b reversed, and the table
    serves every cell range [c_lo, c_hi) with -C <= c_lo and c_hi <= C.  A
    new table starts empty, so a request that finds none and a request that
    reaches past C take one path: the blocks it lacks are folded window by
    window and appended at the table's far end.  No build holds more than
    one window's panel rule, however far the table reaches.
    :meth:`stencil` returns the rule of the cells [c_lo, c_hi) as
    ``(s_min, coeff)``, with weight coeff_s on f(x + (s_min + s) h) and
    s_min = c_lo - 2, by six shifted slice-adds of its rows; an empty or
    reversed range raises ``ValueError``, and a range whose table would hold
    more than ``_TABLE_PANELS_MAX`` panels raises :class:`QuadratureFailure`
    before anything is folded.  Each stencil served is kept by geometry and
    cell range, the last ``_STENCIL_STORE_SIZE`` of them, so a repeated
    request is one lookup.  A row depends only on its geometry and cell, so
    a stencil does not depend on the requests before it, and a kept one has
    the bits of a fresh assembly after its table is extended or evicted.
    Tables and stencils are read-only because every pairing with the
    geometry shares them.  ``builds``, ``extensions`` and ``hits`` count the
    requests that found no table, a short one, and one that needed no fold.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._tables: dict[tuple, np.ndarray] = {}  # least recently used first
        self._stencils: dict[tuple, tuple[int, np.ndarray]] = {}  # likewise
        self.builds = self.extensions = self.hits = 0

    def stencil(self, h: float, a: float, theta_max: float, pitch: int,
                c_lo: int, c_hi: int) -> tuple[int, np.ndarray]:
        if c_hi <= c_lo:
            raise ValueError(f"cell range [{c_lo}, {c_hi}) is empty or reversed")
        key = (h, a, theta_max, pitch)
        stored = self._stencils.pop((key, c_lo, c_hi), None)
        if stored is not None:
            self.hits += 1
            self._stencils[key, c_lo, c_hi] = stored
            return stored
        need = max(c_hi, -c_lo)  # at least 1
        blocks = -(-need // pitch)
        panels = a * (pitch * h) ** 2 / theta_max * blocks**2 + blocks
        if panels > _TABLE_PANELS_MAX:
            raise QuadratureFailure(f"a chirp stencil of {blocks} blocks at a = {a:.4g} needs "
                                    f"{panels:.3g} panels, over {_TABLE_PANELS_MAX}")
        table = self._tables.pop(key, None)
        if table is None:
            self.builds += 1
            table = np.empty((0, _OFFSETS.size), dtype=complex)
        elif need > len(table):
            self.extensions += 1
        else:
            self.hits += 1
        if need > len(table):
            table = np.concatenate([table, _fold_cells(*key, len(table) // pitch, blocks)])
            table.flags.writeable = False
        self._tables[key] = table
        if len(self._tables) > _STENCIL_CACHE_SIZE:
            del self._tables[next(iter(self._tables))]
        rows = np.concatenate([table[max(-c_hi, 0):max(-c_lo, 0)][::-1, ::-1],
                               table[max(c_lo, 0):max(c_hi, 0)]])
        coeff = np.zeros(c_hi - c_lo + _OFFSETS.size - 1, dtype=complex)
        for k in range(_OFFSETS.size):
            coeff[k:k + len(rows)] += rows[:, k]
        coeff.flags.writeable = False
        self._stencils[key, c_lo, c_hi] = c_lo - 2, coeff
        if len(self._stencils) > _STENCIL_STORE_SIZE:
            del self._stencils[next(iter(self._stencils))]
        return c_lo - 2, coeff


_STENCILS = _StencilTables()


@dataclass(frozen=True)
class PairingResult:
    """Value of the pairing and how far node doubling moved it."""

    value: complex
    doubling_delta: float = 0.0


def _q_rule(chi: PolarizedState, x0: float,
            h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi's nodes on its support, their indices on psi's lattice ``x0 + h k``,
    and their weights: the chi samples times the grid measure.

    A chi whose nodes are not all on the lattice raises
    :class:`UnsupportedObservable`.
    """
    q_axis, samples = chi.grid.axis(0), chi.samples.reshape(-1)
    h_chi = chi.grid.spacings[0]
    m_idx = _lattice_offsets(q_axis, x0, h)
    if m_idx is None:
        raise UnsupportedObservable("the pairing needs chi's nodes on psi's lattice")
    q_lo, q_hi = _support_bounds(q_axis, samples, h_chi)
    q_mask = (q_axis >= q_lo) & (q_axis <= q_hi)
    return q_axis[q_mask], m_idx[q_mask], samples[q_mask] * h_chi


class _Pairing:
    """The t-independent part of :func:`bks_pairing` of psi with every chi.

    It checks the states and finds, once for all times, each chi's q rule,
    the y range that covers the union of the chi supports and the scale of
    each doubling guard.  The y range is rounded outward to the lattice
    cells [c_lo, c_hi), whose ends are multiples of the coarse panel pitch
    h_max = _H_MAX_CELLS h, edges of the panel rule at both resolutions, so
    a stencil belongs to the geometry and not to psi's support; widening it
    only adds end panels where psi is below its support cutoff.

    A value is prefactor * sum_m w_m sum_s coeff_s conj(psi[m + s_min + s])
    over chi's q weights w and the chirp stencil ``(s_min, coeff)``, and
    only the stencil depends on t.  So the sum over q is taken first, once:
    it is chi's overlap profile Y[u] = sum_m w_m conj(psi[m + u])
    (:func:`_overlap_profiles`) on the offsets c_lo - 2 .. c_hi + 2 of every
    stencil of the cells, and a value is prefactor * sum_s coeff_s
    Y[s_min + s].  :meth:`at` transforms nothing: per resolution it takes
    one stencil and one matrix-vector product.  Each chi keeps its own
    doubling guard.
    """

    def __init__(self, psi: PolarizedState, chis: list[PolarizedState],
                 tolerances: Tolerances):
        if any(state.polarization != "position" for state in [psi, *chis]):
            raise ValueError("bks_pairing expects position-polarized states")
        if psi.n != 1:
            raise UnsupportedObservable("the pairing is implemented on 1D grids")
        # np.isclose's test with its default tolerances, on plain floats
        close = lambda a, b: abs(a - b) <= 1e-8 + 1e-5 * abs(b)
        if not all(close(psi.hbar, c.hbar) and close(psi.mass, c.mass) for c in chis):
            raise ValueError("states disagree on hbar or mass")
        self.hbar, self.mass = psi.hbar, psi.mass
        self.tolerances = tolerances
        self.h = float(psi.grid.spacings[0])
        self.samples = psi.samples.reshape(-1)
        # restrict each q integral to the support of its chi and the y
        # integral to wherever psi can still be reached from any of them
        x0 = float(psi.grid.axis(0)[0])
        qs = [_q_rule(chi, x0, self.h) for chi in chis]
        x_lo, x_hi = _support_bounds(psi.grid.axis(0), self.samples, self.h)
        y_lo = float(x_lo - max(q[-1] for q, _, _ in qs))
        y_hi = float(x_hi - min(q[0] for q, _, _ in qs))
        h_max = _H_MAX_CELLS * self.h
        self.c_lo = _H_MAX_CELLS * int(np.floor(y_lo / h_max))
        self.c_hi = _H_MAX_CELLS * int(np.ceil(y_hi / h_max))
        self.m_lo = min(int(m[0]) for _, m, _ in qs)
        span = max(int(m[-1]) for _, m, _ in qs) + 1 - self.m_lo
        self.weights = np.zeros((len(chis), span), dtype=complex)
        for row, (_, m, q_weights) in zip(self.weights, qs):
            row[m - self.m_lo] = q_weights
        self.floors = [1e-3 * psi.norm() * chi.norm() for chi in chis]
        self.profiles = _overlap_profiles(self.samples, self.m_lo, self.weights,
                                          self.c_lo - 2, self.c_hi - self.c_lo + 5)

    def _values(self, t: float, theta_max: float, pitch: int) -> np.ndarray:
        """One resolution of every pairing, on the y range of the cells [c_lo, c_hi)."""
        a = self.mass / (2.0 * self.hbar * t)
        # plain floats keep the memo key hashable for 0-d array arguments
        _, coeff = _STENCILS.stencil(self.h, float(a), theta_max, pitch,
                                     self.c_lo, self.c_hi)
        prefactor = np.sqrt(self.mass / (2.0 * np.pi * self.hbar * t))
        return prefactor * (self.profiles @ coeff)

    def at(self, t: float) -> list[PairingResult]:
        """Every pairing at time t, at the panel resolution and doubled."""
        if not 0 < t < np.inf:
            raise ValueError("t must be positive and finite")
        fine = self._values(t, _THETA_MAX / 2.0, _H_MAX_CELLS // 2)
        coarse = self._values(t, _THETA_MAX, _H_MAX_CELLS)
        results = []
        for c, f, floor in zip(coarse.tolist(), fine.tolist(), self.floors):
            delta = abs(f - c)
            scale = max(abs(f), floor)
            if delta > self.tolerances.bks * scale:
                raise QuadratureFailure(
                    f"node doubling moved the pairing by {delta:.3e} (scale {scale:.3e})",
                    doubling_delta=delta)
            results.append(PairingResult(value=f, doubling_delta=delta))
        return results


def bks_pairing(psi_q: PolarizedState, chi_q: PolarizedState, t: float,
                tolerances: Tolerances = DEFAULT_TOLERANCES) -> PairingResult:
    """Free-particle pairing of two position-polarized states at time 0 < t < inf.

    The flowed argument psi(q + t p / m) is evaluated by order-6 interpolation
    on a zero-padded extension of the state grid.  chi's nodes must lie on
    psi's lattice; otherwise :class:`UnsupportedObservable` is raised.  Every
    call is computed at the panel resolution and at doubled resolution; if
    the two differ beyond the ``bks`` tolerance (relative to the natural
    scale of the pairing) a :class:`QuadratureFailure` is raised.
    """
    return _Pairing(psi_q, [chi_q], tolerances).at(t)[0]


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
    if not np.all(np.isfinite(ts)) or _sorted_distinct(ts).size != ts.size:
        raise ValueError("the times must be finite and distinct")
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


def _panel_derivatives(psi0: PolarizedState, t_list, test_states,
                       tolerances: Tolerances) -> tuple[np.ndarray, float, np.ndarray]:
    """Extrapolated weak derivatives D_j and overlaps <psi0, chi_j>."""
    branch = np.exp(1j * np.pi * psi0.n / 4.0)
    t_arr = np.asarray(sorted(t_list), dtype=float)
    if t_arr.size < 3 or t_arr.size > 10:
        raise ValueError("t_list should carry 3 to 10 small positive times")
    if not np.all((t_arr > 0) & (t_arr < np.inf)):
        raise ValueError("all times must be positive and finite")
    if _sorted_distinct(t_arr).size != t_arr.size:
        raise ValueError("the times must be distinct")
    overlaps = np.array([psi0.inner(chi) for chi in test_states])
    g = np.empty((len(test_states), t_arr.size), dtype=complex)
    pairing = _Pairing(psi0, test_states, tolerances)
    for i, t in enumerate(t_arr):
        pairings = pairing.at(float(t))
        g[:, i] = [(p.value - branch * o) / t for p, o in zip(pairings, overlaps)]
    derivs, spreads = map(np.array, zip(*(richardson_extrapolate(t_arr, row)
                                          for row in g)))
    # np.max keeps a NaN spread, which fails the <= tolerance test downstream
    spread_rel = float(np.max(spreads / np.maximum(np.abs(derivs), 1e-30)))
    return derivs, spread_rel, overlaps


def schrodinger_residual(psi0: PolarizedState, t_list,
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

    An unstable extrapolation or a poor fit shows in ``extrapolation_spread``
    and ``residual``; the ``bks`` demo's report checks both.
    """
    if psi0.polarization != "position" or psi0.n != 1:
        raise UnsupportedObservable("the generator fit runs on 1D position states")
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
    return SchrodingerFit(c_fit=1j * psi0.hbar * np.conj(alpha), residual=residual,
                          extrapolation_spread=spread_rel)


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
