import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoquant.config import DEFAULT_TOLERANCES, gauss_legendre
from geoquant.demos import RunConfig, run_demo
from geoquant.errors import (DegenerateGram, QuadratureFailure, SupportEscapesGrid,
                             UnsupportedObservable)
from geoquant.bks import (PolarizedState, bks_pairing, fourier_project,
                          fourier_project_back, gaussian_state,
                          richardson_extrapolate, state_projected_rate,
                          windowed_plane_wave)
from geoquant import bks
from geoquant.bks import (_LAGRANGE, _OFFSETS, _STENCILS, _Pairing, _default_panel,
                          _overlap_profiles, _phase_panels, schrodinger_residual)
from geoquant.halfform import ConfigGrid
from geoquant.reporting import render_report, strip_footer
from geoquant.stencil import fft_apply

TOL = DEFAULT_TOLERANCES


def line(count=256, extent=12.0):
    return ConfigGrid.line(-extent, extent, count)


def raw_gaussian(grid, width=1.0, center=0.0, k=0.0, polarization="momentum",
                 hbar=1.0):
    x = grid.axis(0)
    samples = np.exp(-((x - center) ** 2) / (2 * width**2) + 1j * k * x)
    return PolarizedState(samples, grid, polarization, hbar)


def test_normalizing_a_state_whose_squares_underflow_is_refused():
    # a typed refusal, as the CLI reports it, and not a bare ValueError
    grid = line()
    for samples in (np.zeros(grid.size), np.full(grid.size, 1e-200)):
        with pytest.raises(DegenerateGram, match=r"^<psi, psi> = 0"):
            PolarizedState(samples, grid, "momentum").normalized()


# -- Fourier projection ---------------------------------------------------------

def test_gaussian_maps_to_gaussian_same_width():
    grid = line()
    phi = raw_gaussian(grid, width=1.0)  # width sqrt(hbar) in these units
    psi = fourier_project(phi)
    expected = np.exp(-psi.grid.axis(0) ** 2 / 2.0)
    err = np.sqrt(np.sum(np.abs(psi.samples - expected) ** 2)
                  * psi.grid.cell_volume)
    assert err < TOL.grid


def test_projection_is_linear_and_kills_zero():
    grid = line()
    zero = PolarizedState(np.zeros(grid.size), grid, "momentum")
    assert not np.any(fourier_project(zero).samples)


def test_translated_gaussian_peaks_at_minus_offset():
    grid = line(count=512, extent=16.0)
    q0 = 2.5
    phi = raw_gaussian(grid, width=1.0, k=q0)  # e^{-p^2/2 hbar + i p q0 / hbar}
    psi = fourier_project(phi)
    peak = psi.grid.axis(0)[int(np.argmax(np.abs(psi.samples)))]
    assert abs(abs(peak) - q0) < 2 * psi.grid.spacings[0]


def test_parseval_on_random_band_limited_states():
    grid = line(count=384, extent=14.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        parts = [raw_gaussian(grid, width=rng.uniform(0.8, 1.5),
                              center=rng.uniform(-2, 2),
                              k=rng.uniform(-2, 2)).samples
                 for _ in range(3)]
        state = PolarizedState(sum(parts), grid, "momentum").normalized()
        assert abs(fourier_project(state).norm() - 1.0) < 1e-8


def test_inverse_sign_twin_round_trip():
    grid = line(count=384, extent=14.0)
    rng = np.random.default_rng(5)
    parts = [raw_gaussian(grid, width=rng.uniform(0.9, 1.4),
                          center=rng.uniform(-1.5, 1.5),
                          k=rng.uniform(-2, 2)).samples for _ in range(3)]
    state = PolarizedState(sum(parts), grid, "momentum").normalized()
    back = fourier_project_back(fourier_project(state))
    err = np.sqrt(np.sum(np.abs(back.samples - state.samples) ** 2)
                  * grid.cell_volume)
    assert err < 1e-8


def test_projection_rejects_boundary_support():
    grid = line(count=128, extent=3.0)
    wide = raw_gaussian(grid, width=4.0)
    with pytest.raises(SupportEscapesGrid):
        fourier_project(wide)


@pytest.mark.parametrize("name", ["hbar", "mass"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
def test_state_rejects_hbar_and_mass_that_are_not_positive_and_finite(name, value):
    grid = line(count=32)
    kwargs = {"hbar": 1.0, "mass": 1.0, name: value}
    with pytest.raises(ValueError, match="hbar and mass must be positive and finite"):
        PolarizedState(np.ones(grid.size), grid, "position", **kwargs)


def test_projection_rejects_wrong_polarization():
    grid = line()
    psi = raw_gaussian(grid, polarization="position")
    with pytest.raises(ValueError):
        fourier_project(psi)


def dense_projection(state, sign=1.0):
    """The uniform-grid kernel h (2 pi hbar)^(-1/2) e^{i sign p q / hbar} as
    dense matrices, one per axis: the oracle for the chirp-z transform."""
    out = state.samples
    for axis in range(state.n):
        x = state.grid.axis(axis)
        kernel = (np.exp(sign * 1j * np.outer(x, x) / state.hbar)
                  * state.grid.spacings[axis] / np.sqrt(2 * np.pi * state.hbar))
        out = np.moveaxis(np.tensordot(kernel, out, axes=(1, axis)), 0, axis)
    return out


def random_momentum_state(grid, rng, hbar=1.0):
    comps = [gaussian_state(grid, center=rng.uniform(-2, 2),
                            width=rng.uniform(0.8, 1.6),
                            wavenumber=rng.uniform(-2, 2),
                            polarization="momentum", hbar=hbar,
                            normalize=False).samples for _ in range(3)]
    return PolarizedState(sum(comps), grid, "momentum", hbar).normalized()


@pytest.mark.parametrize("hbar", [1.0, 0.5, 2.0])
def test_chirp_z_projection_matches_dense_kernel(hbar):
    grid = line(count=256, extent=12.0)
    phi = random_momentum_state(grid, np.random.default_rng(3), hbar)
    psi = fourier_project(phi)
    assert np.max(np.abs(psi.samples - dense_projection(phi))) < 1e-12
    psi_q = PolarizedState(phi.samples, grid, "position", hbar)
    back = fourier_project_back(psi_q)
    assert np.max(np.abs(back.samples - dense_projection(psi_q, -1.0))) < 1e-12


def test_chirp_z_projection_matches_dense_kernel_in_two_dimensions():
    grid = ConfigGrid((-10.0, -8.0), (10.0, 12.0), (96, 80))
    p1, p2 = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
    samples = np.exp(-(p1**2 + 1.3 * (p2 - 1) ** 2) / 2 + 0.7j * p1 - 0.4j * p2)
    phi = PolarizedState(samples, grid, "momentum").normalized()
    psi = fourier_project(phi)
    assert np.max(np.abs(psi.samples - dense_projection(phi))) < 1e-12


@pytest.mark.parametrize("project, polarization",
                         [(fourier_project, "momentum"), (fourier_project_back, "position")])
def test_projection_takes_its_tolerances_by_keyword_only(project, polarization):
    """A second positional argument was once the target grid; it is refused, not misread."""
    grid = line(count=64, extent=8.0)
    state = gaussian_state(grid, polarization=polarization)
    with pytest.raises(TypeError):
        project(state, grid)
    with pytest.raises(TypeError):
        project(state, TOL)
    assert project(state, tolerances=TOL).grid == grid


@settings(max_examples=25, deadline=None)
@given(count=st.integers(128, 2048), data=st.data())
def test_parseval_on_random_band_limited_momentum_states(count, data):
    # h * extent = pi: the grid resolves wavenumbers up to its own extent, so
    # states centred within a quarter of it in p and in q are band-limited
    extent = np.sqrt(np.pi * count / 2.0)
    grid = line(count=count, extent=extent)
    span = st.floats(-extent / 4, extent / 4)
    samples = sum(gaussian_state(grid, center=data.draw(span),
                                 width=data.draw(st.floats(1.0, 2.0)),
                                 wavenumber=data.draw(span),
                                 polarization="momentum").samples
                  for _ in range(data.draw(st.integers(1, 3))))
    if np.sum(np.abs(samples) ** 2) < 1e-6:
        return  # the components cancelled; nothing to normalise
    phi = PolarizedState(samples, grid, "momentum").normalized()
    assert abs(fourier_project(phi).norm() - 1.0) < TOL.quadrature_match


# -- pairing ---------------------------------------------------------------------

def gaussian_pairing_oracle(s, r, b, t, hbar=1.0, m=1.0):
    """Closed form of the free pairing for exp(-q^2/2s^2), exp(-(q-b)^2/2r^2)."""
    a = m / (2 * hbar * t)
    beta = 1 / (2 * s**2) - 1j * a
    c1 = 1 / (2 * s**2) - 1 / (4 * beta * s**4)
    c2 = c1 + 1 / (2 * r**2)
    return (np.sqrt(m / (2 * np.pi * hbar * t)) * np.sqrt(np.pi / beta)
            * np.sqrt(np.pi / c2) * np.exp(b * b / (4 * c2 * r**4)
                                           - b * b / (2 * r**2)))


def test_pairing_matches_gaussian_oracle():
    grid = line(count=512, extent=16.0)
    s, r, b = 1.0, 1.3, 0.8
    psi = PolarizedState(np.exp(-grid.axis(0) ** 2 / (2 * s**2)), grid, "position")
    chi = PolarizedState(np.exp(-(grid.axis(0) - b) ** 2 / (2 * r**2)),
                         grid, "position")
    for t in (0.4, 0.1, 0.025):
        res = bks_pairing(psi, chi, t)
        oracle = gaussian_pairing_oracle(s, r, b, t)
        assert abs(res.value - oracle) / abs(oracle) < 1e-8


def test_pairing_oracle_with_mass_and_hbar():
    grid = line(count=512, extent=16.0)
    hbar, mass = 0.5, 2.0
    psi = PolarizedState(np.exp(-grid.axis(0) ** 2 / 2), grid, "position",
                         hbar=hbar, mass=mass)
    chi = PolarizedState(np.exp(-grid.axis(0) ** 2 / 2), grid, "position",
                         hbar=hbar, mass=mass)
    res = bks_pairing(psi, chi, 0.1)
    oracle = gaussian_pairing_oracle(1.0, 1.0, 0.0, 0.1, hbar=hbar, m=mass)
    assert abs(res.value - oracle) / abs(oracle) < 1e-8


def test_pairing_small_time_limit_carries_fresnel_branch():
    """P(t) -> e^{i pi/4} <psi, chi> + O(t), with the principal Fresnel branch."""
    grid = line(count=512, extent=16.0)
    psi = gaussian_state(grid, width=1.0)
    chi = gaussian_state(grid, width=1.2, center=0.5)
    inner = psi.inner(chi)
    ts = np.array([0.16, 0.08, 0.04, 0.02])
    values = np.array([bks_pairing(psi, chi, float(t)).value for t in ts])
    branch = np.exp(1j * np.pi / 4)
    limit, _ = richardson_extrapolate(ts, values)
    assert abs(limit / branch - inner) < 1e-6
    # first-order (odd in p) term is absent: deviations shrink linearly
    devs = np.abs(values / branch - inner)
    ratios = devs[:-1] / devs[1:]
    assert np.all(ratios > 1.8)


def test_pairing_zero_state_gives_zero():
    grid = line()
    psi = gaussian_state(grid)
    zero = PolarizedState(np.zeros(grid.size), grid, "position")
    assert bks_pairing(psi, zero, 0.1).value == 0


def test_pairing_is_bilinear():
    grid = line(count=384)
    psi1 = gaussian_state(grid, width=1.0)
    psi2 = gaussian_state(grid, width=1.3, center=0.6)
    chi = gaussian_state(grid, width=0.9, center=-0.4)
    a, b = 0.7 - 0.2j, 1.1 + 0.5j
    combo = PolarizedState(a * psi1.samples + b * psi2.samples, grid, "position")
    t = 0.08
    lhs = bks_pairing(combo, chi, t).value
    rhs = (np.conj(a) * bks_pairing(psi1, chi, t).value
           + np.conj(b) * bks_pairing(psi2, chi, t).value)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_disjoint_supports_pair_to_nothing():
    grid = line(count=512, extent=20.0)
    x = grid.axis(0)
    psi = PolarizedState(np.exp(-((x + 12) ** 2) / 0.5), grid, "position")
    chi = PolarizedState(np.exp(-((x - 12) ** 2) / 0.5), grid, "position")
    t = 0.05  # flow reach t*p/m stays far below the 24 separation
    res = bks_pairing(psi, chi, t)
    assert abs(res.value) < TOL.bks * psi.norm() * chi.norm()


def coarse_panels(monkeypatch, theta_max, pitch):
    """Make every pairing use panels of phase advance theta_max and pitch
    ``pitch`` lattice cells (halved at the doubled resolution)."""
    monkeypatch.setattr(bks, "_THETA_MAX", theta_max)
    monkeypatch.setattr(bks, "_H_MAX_CELLS", pitch)


def test_quadrature_guard_raises_on_coarse_panels(monkeypatch):
    grid = line(count=512, extent=16.0)
    psi = gaussian_state(grid, width=1.0)
    chi = gaussian_state(grid, width=1.0)
    coarse_panels(monkeypatch, 600 * np.pi, 640)  # h_max about 40
    _STENCILS.clear()
    for _ in range(2):  # the second call finds both stencils memoised
        with pytest.raises(QuadratureFailure):
            bks_pairing(psi, chi, 0.02)
    assert _STENCILS.hits == 2


@pytest.mark.parametrize("t", [0.0, -0.1, np.inf, np.nan])
def test_pairing_rejects_times_that_are_not_positive_and_finite(t):
    grid = line(count=512, extent=16.0)
    psi = gaussian_state(grid, width=1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        bks_pairing(psi, psi, t)


def test_chi_on_psis_lattice_with_another_extent_pairs():
    # chi's 480 cell centres are nodes 16..495 of psi's 512, so they index psi's lattice
    psi_grid = line(count=512, extent=16.0)
    axis = psi_grid.axis(0)
    chi_grid = ConfigGrid.line(-15.0, 15.0, 480)
    assert np.array_equal(chi_grid.axis(0), axis[16:496])
    s, r, b = 1.0, 1.3, 0.8
    phase = np.exp(1j * np.pi / 3)  # the pairing is conjugate-linear in psi
    psi = PolarizedState(phase * np.exp(-axis ** 2 / (2 * s**2)), psi_grid, "position")
    chi = PolarizedState(np.exp(-(chi_grid.axis(0) - b) ** 2 / (2 * r**2)),
                         chi_grid, "position")
    for t in (0.4, 0.2):
        oracle = np.conj(phase) * gaussian_pairing_oracle(s, r, b, t)
        assert abs(bks_pairing(psi, chi, t).value - oracle) / abs(oracle) < 1e-8


def test_pairing_rejects_chi_it_cannot_put_on_the_lattice():
    psi_grid = line(count=512, extent=16.0)
    psi = gaussian_state(psi_grid)
    other_spacing = ConfigGrid.line(-15.0, 15.0, 400)
    # psi's spacing, but every node 0.368 cells off psi's lattice
    offset = ConfigGrid.line(-15.0 + 0.023, 15.0 + 0.023, 480)
    assert offset.spacings == psi_grid.spacings
    smooth = gaussian_state(offset)
    edge = PolarizedState(np.ones(offset.size), offset, "position")
    for chi in (gaussian_state(other_spacing), smooth, edge):
        with pytest.raises(UnsupportedObservable, match="psi's lattice"):
            bks_pairing(psi, chi, 0.1)


def sliding_profiles(samples, m_lo, weights, u_lo, length):
    """Y[i, v] = sum_r weights[i, r] conj(samples[m_lo + r + u_lo + v]), term by term."""
    out = np.zeros((weights.shape[0], length), dtype=complex)
    for i, row in enumerate(weights):
        for v in range(length):
            for r, w in enumerate(row):
                j = m_lo + r + u_lo + v
                if 0 <= j < samples.size:
                    out[i, v] += w * np.conj(samples[j])
    return out


@pytest.mark.parametrize("m_lo, u_lo, length", [
    (10, -5, 20),    # every offset inside the samples
    (0, -30, 45),    # offsets start before the first sample
    (20, 15, 30),    # windows run past the last sample
    (-8, -12, 90),   # both ends outside the samples
])
def test_overlap_profile_matches_sliding_sum(m_lo, u_lo, length):
    rng = np.random.default_rng(7)
    samples = rng.normal(size=48) + 1j * rng.normal(size=48)
    weights = rng.normal(size=(3, 17)) + 1j * rng.normal(size=(3, 17))
    weights[1, :5] = 0.0  # a state whose support starts inside the span
    got = _overlap_profiles(samples, m_lo, weights, u_lo, length)
    want = sliding_profiles(samples, m_lo, weights, u_lo, length)
    assert got.shape == (3, length)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def direct_values(pairing, t, theta_max, pitch):
    """Every pairing of one resolution as the double sum over q and the
    stencil, in long double, from the stencil the pairing uses."""
    s_min, coeff = _STENCILS.stencil(pairing.h, pairing.mass / (2.0 * pairing.hbar * t),
                                     theta_max, pitch, pairing.c_lo, pairing.c_hi)
    index = ((pairing.m_lo + np.arange(pairing.weights.shape[1]))[:, None]
             + s_min + np.arange(coeff.size))
    inside = (index >= 0) & (index < pairing.samples.size)
    window = np.zeros(index.shape, dtype=np.clongdouble)
    window[inside] = np.conj(pairing.samples[index[inside]])
    prefactor = np.sqrt(pairing.mass / (2.0 * np.pi * pairing.hbar * t))
    exact = pairing.weights.astype(np.clongdouble) @ window @ coeff.astype(np.clongdouble)
    return prefactor * exact.astype(complex)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pairing_values_match_a_long_double_direct_sum(seed):
    rng = np.random.default_rng(seed)
    psi = gaussian_state(line(count=512, extent=16.0), center=rng.uniform(-1.5, 1.5),
                         width=rng.uniform(0.8, 1.3), wavenumber=rng.uniform(-1.0, 1.0))
    pairing = _Pairing(psi, _default_panel(psi), TOL)
    for t in (0.32, 0.02):
        for scale in (1, 2):  # coarse and fine
            args = (t, 1.5 * np.pi / scale, 8 // scale)
            got = pairing._values(*args)
            want = direct_values(pairing, *args)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_batched_pairings_equal_single_pairings_and_the_oracle():
    grid = line(count=512, extent=16.0)
    x = grid.axis(0)
    s = 1.0
    psi = PolarizedState(np.exp(-x**2 / (2 * s**2)), grid, "position")
    shapes = [(1.3, 0.8), (0.7, -2.5), (1.0, 0.0), (2.0, 3.0)]
    chis = [PolarizedState(np.exp(-(x - b) ** 2 / (2 * r**2)), grid, "position")
            for r, b in shapes]
    for t in (0.32, 0.04):
        batch = _Pairing(psi, chis, TOL).at(t)
        for (r, b), chi, res in zip(shapes, chis, batch):
            single = bks_pairing(psi, chi, t)
            assert abs(res.value - single.value) < 1e-12 * abs(single.value)
            oracle = gaussian_pairing_oracle(s, r, b, t)
            assert abs(res.value - oracle) < 1e-8 * abs(oracle)


def test_batch_with_one_under_resolved_state_raises(monkeypatch):
    grid = line(count=512, extent=16.0)
    x = grid.axis(0)
    psi = gaussian_state(grid, width=1.0)
    good = [PolarizedState(np.exp(-(x - c) ** 2 / 2), grid, "position")
            for c in (0.0, -1.0)]
    narrow = PolarizedState(np.exp(-(x - 4.0) ** 2 / 0.18), grid, "position")
    coarse_panels(monkeypatch, 6 * np.pi, 16)  # h_max about 1
    assert len(_Pairing(psi, good, TOL).at(0.02)) == 2
    with pytest.raises(QuadratureFailure):
        bks_pairing(psi, narrow, 0.02)
    with pytest.raises(QuadratureFailure) as err:
        _Pairing(psi, [good[0], narrow, good[1]], TOL).at(0.02)
    assert err.value.doubling_delta > 0


SCHRODINGER_TIMES = [0.32, 0.16, 0.08, 0.04, 0.02]


def test_schrodinger_panel_builds_one_stencil_per_time_and_resolution():
    grid = line(count=512, extent=16.0)
    psi0 = gaussian_state(grid, center=0.4, width=1.1, wavenumber=0.3)
    _STENCILS.clear()
    fit = schrodinger_residual(psi0, SCHRODINGER_TIMES)
    assert fit.extrapolation_spread <= TOL.bks and fit.residual <= 10 * TOL.bks
    assert _STENCILS.builds == 10  # 5 times x coarse and fine
    # another state on the same grid and times reuses every table
    other = gaussian_state(grid, center=-1.3, width=0.8, wavenumber=-0.7)
    fit = schrodinger_residual(other, SCHRODINGER_TIMES)
    assert fit.extrapolation_spread <= TOL.bks and fit.residual <= 10 * TOL.bks
    assert _STENCILS.builds == 10


def test_pairing_values_do_not_depend_on_what_ran_before():
    # psi_a reaches further on both sides, so it extends psi_b's tables at
    # both ends; psi_b's second fit must still assemble the same stencils
    grid = line(count=512, extent=16.0)
    psi_b = gaussian_state(grid, center=0.4, width=0.9, wavenumber=0.3)
    psi_a = gaussian_state(grid, center=-0.5, width=1.4, wavenumber=-0.6)
    _STENCILS.clear()
    first = schrodinger_residual(psi_b, SCHRODINGER_TIMES)
    schrodinger_residual(psi_a, SCHRODINGER_TIMES)
    assert _STENCILS.builds == 10 and _STENCILS.extensions == 10
    again = schrodinger_residual(psi_b, SCHRODINGER_TIMES)
    assert again.c_fit == first.c_fit
    assert (again.residual, again.extrapolation_spread) == (
        first.residual, first.extrapolation_spread)


def test_plane_wave_moved_by_one_cell_builds_no_table():
    grid = line(count=640, extent=40.0)
    t_list = [0.32, 0.16, 0.08, 0.04]
    waves = [windowed_plane_wave(grid, k=2, flat_halfwidth=20.0, taper_width=16.0,
                                 center=c) for c in (0.3, 0.3 + grid.spacings[0])]
    _STENCILS.clear()
    state_projected_rate(waves[0], t_list)
    assert _STENCILS.builds == 8
    state_projected_rate(waves[1], t_list)
    assert _STENCILS.builds == 8


def test_chirp_stencil_hit_equals_miss_and_is_read_only():
    args = (0.0625, 12.5, 1.5 * np.pi, 8, -280, 272)  # y in [-17.5, 17]
    _STENCILS.clear()
    miss = _STENCILS.stencil(*args)
    hit = _STENCILS.stencil(*args)
    assert (_STENCILS.builds, _STENCILS.hits) == (1, 1)
    _STENCILS.clear()
    fresh = _STENCILS.stencil(*args)
    assert hit[0] == fresh[0] == miss[0] == args[4] - 2
    assert hit[1].shape == fresh[1].shape
    assert np.all(hit[1] == fresh[1])
    for array in (hit[1], _STENCILS._tables[args[:4]]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    # one complex per lattice offset that the cells reach, not per node
    assert hit[1].size == args[5] - args[4] + 5


def test_lagrange_matrix_is_cardinal():
    # row k holds the monomial coefficients of L_k, so L_k(o_j) = delta_jk
    vander = _OFFSETS[:, None].astype(float) ** np.arange(_OFFSETS.size)
    assert np.max(np.abs(_LAGRANGE @ vander.T - np.eye(_OFFSETS.size))) < 1e-14


def per_node_fold(h, a, y_lo, y_hi, theta_max, h_max):
    """The chirp stencil folded node by node: six Lagrange weights per node,
    scattered by ``bincount``; the reference for the per-cell moment fold."""
    y, w = _phase_panels(y_lo, y_hi, a, theta_max, h_max)
    s_min = int(np.floor(y.min() / h)) - 2
    size = int(np.floor(y.max() / h)) + 3 - s_min + 1
    posy = y / h
    b = np.floor(posy)
    t = posy - b
    a0, a1, a3, a4, a5 = t + 2.0, t + 1.0, t - 1.0, t - 2.0, t - 3.0
    p45 = a4 * a5
    p345 = a3 * p45
    p01 = a0 * a1
    p01t = p01 * t
    weights = np.array([a1 * t * p345 / -120.0, a0 * t * p345 / 24.0,
                        p01 * p345 / -12.0, p01t * p45 / 12.0,
                        p01t * a3 * a5 / -24.0, p01t * a3 * a4 / 120.0])
    terms = weights * (w * np.exp(1j * a * y**2))
    idx = (b.astype(np.int64) + np.arange(-2, 4)[:, None] - s_min).reshape(-1)
    re = np.bincount(idx, terms.real.reshape(-1), size)
    im = np.bincount(idx, terms.imag.reshape(-1), size)
    return s_min, re + 1j * im


def block_stencil(h, a, theta_max, pitch, k_lo, k_hi):
    """The table's stencil of the blocks k_lo <= k < k_hi of ``pitch`` cells."""
    return _STENCILS.stencil(h, a, theta_max, pitch, k_lo * pitch, k_hi * pitch)


def assert_matches_per_node_fold(args, stencil):
    h, a, theta_max, pitch, k_lo, k_hi = args
    s_min, coeff = stencil
    assert s_min == k_lo * pitch - 2
    assert coeff.size == (k_hi - k_lo) * pitch + 5
    # the oracle spans the offsets its nodes reach, which may leave out an
    # end cell without nodes
    ref_min, ref = per_node_fold(h, a, k_lo * pitch * h, k_hi * pitch * h, theta_max,
                                 pitch * h)
    at = ref_min - s_min
    assert 0 <= at and at + ref.size <= coeff.size
    want = np.zeros_like(coeff)
    want[at:at + ref.size] = ref
    assert np.max(np.abs(coeff - want)) <= 1e-14 * np.max(np.abs(ref))


# (h, a, theta_max, pitch, k_lo, k_hi): the stencil of the blocks
# [k_lo pitch h, k_hi pitch h], pitch lattice cells each
@pytest.mark.parametrize("args, fold_panels", [
    ((0.0625, 25.0, 1.5 * np.pi, 8, -35, 35), None),    # Schroedinger panel
    ((0.0625, 25.0, 0.75 * np.pi, 4, -70, 70), None),   # its fine resolution
    ((0.0625, 12.5, 1.5 * np.pi, 8, -19, 25), None),    # asymmetric range
    ((0.0625, 12.5, 1.5 * np.pi, 5, -48, 66), None),    # odd pitch
    ((0.0625, 25.0, 1.5 * np.pi, 5, -48, 66), 1),       # folded one block per window
    ((0.0625, 12.5, 1.5 * np.pi, 5, -64, -8), None),    # wholly mirrored cells
    ((0.0625, 12.5, 1.5 * np.pi, 8, 5, 40), None),      # wholly folded cells
    ((0.0625, 25.0, 1.5 * np.pi, 5, -19, 50), None),    # straddles 0, |k_lo| != k_hi
    ((0.0625, 25.0, 1.5 * np.pi, 1, -40, 60), 1),       # pitch 1: every window one cell
])
def test_cell_moment_fold_matches_per_node_fold(args, fold_panels, monkeypatch):
    _STENCILS.clear()
    stencil = block_stencil(*args)
    assert_matches_per_node_fold(args, stencil)
    if fold_panels is not None:
        table = _STENCILS._tables[args[:4]]
        monkeypatch.setattr(bks, "_FOLD_PANELS", fold_panels)
        _STENCILS.clear()
        assert same_bits(block_stencil(*args)[1], stencil[1])
        assert same_bits(_STENCILS._tables[args[:4]], table)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 60.0), theta_max=st.floats(0.5, 2.0 * np.pi),
       pitch=st.integers(1, 9), k_lo=st.integers(-60, 60),
       blocks=st.lists(st.integers(1, 12), min_size=1, max_size=6))
def test_window_rules_concatenate_to_the_whole_rule(a, theta_max, pitch, k_lo, blocks):
    h_max = pitch * 0.0625
    ends = [k_lo]
    for count in blocks:
        ends.append(ends[-1] + count)
    whole = _phase_panels(ends[0] * h_max, ends[-1] * h_max, a, theta_max, h_max)
    windows = [_phase_panels(j0 * h_max, j1 * h_max, a, theta_max, h_max)
               for j0, j1 in zip(ends[:-1], ends[1:])]
    for k in range(2):  # nodes, then weights
        assert same_bits(np.concatenate([window[k] for window in windows]), whole[k])


@pytest.mark.parametrize("args", [
    (0.125, 12.5, 0.75 * np.pi, 4, 0, 292),     # the fine plane-wave table, doubled
    (0.0625, 25.0, 1.5 * np.pi, 8, -70, 35),    # straddles 0
    (0.0625, 40.0, 1.5 * np.pi, 3, -90, -20),   # wholly mirrored blocks
])
def test_fold_windows_tile_the_range_within_the_budget(args):
    h, a, theta_max, pitch, k_lo, k_hi = args
    h_max = pitch * h
    windows = sorted(bks._fold_windows(a * h_max**2 / theta_max, k_lo, k_hi))
    assert windows[0][0] == k_lo and windows[-1][1] == k_hi
    assert all(j1 == next_j0 for (_, j1), (next_j0, _) in zip(windows, windows[1:]))
    assert len(windows) > 1
    for j0, j1 in windows:
        assert j0 < j1
        nodes, _ = _phase_panels(j0 * h_max, j1 * h_max, a, theta_max, h_max)
        # only a window of one block may pass the budget
        assert j1 - j0 == 1 or nodes.size <= (bks._FOLD_PANELS + 1) * bks._GL_POINTS


def fresh_window_fold(h, a, theta_max, pitch, k_lo, k_hi):
    """``_fold_cells`` with fresh arrays in every window, the chirp formed as
    ``w * np.exp(1j * a * y**2)``: the reference for its reused work array."""
    h_max = pitch * h
    rows = np.zeros(((k_hi - k_lo) * pitch, _OFFSETS.size), dtype=complex)
    for j0, j1 in bks._fold_windows(a * h_max**2 / theta_max, k_lo, k_hi):
        y, w = _phase_panels(j0 * h_max, j1 * h_max, a, theta_max, h_max)
        posy = y / h
        b = np.floor(posy)
        cells = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
        moments = np.empty((_OFFSETS.size, y.size), dtype=complex)
        moments[0] = w * np.exp(1j * a * y**2)
        t = posy - b
        for p in range(1, _OFFSETS.size):
            np.multiply(moments[p - 1], t, out=moments[p])
        sums = np.add.reduceat(moments, cells, axis=1)
        # zero columns keep every window, one cell or more, on numpy's matrix product
        padded = np.concatenate([sums, np.zeros_like(sums)], axis=1)
        rows[b[cells].astype(np.int64) - k_lo * pitch] = (_LAGRANGE @ padded).T[:cells.size]
    return rows


# folds whose windows grow past the first one's size and include a one-block
# window over the panel budget: explicit examples of the fresh-array property
GROWING_FOLDS = [
    dict(a=25.0, theta_max=1.5 * np.pi, pitch=4, k_lo=-10, blocks=40, fold_panels=8),
    dict(a=40.0, theta_max=1.5 * np.pi, pitch=3, k_lo=-30, blocks=42, fold_panels=16),
    dict(a=60.0, theta_max=2.0, pitch=5, k_lo=10, blocks=20, fold_panels=32),
]


@pytest.mark.parametrize("fold", GROWING_FOLDS)
def test_growing_folds_outgrow_their_first_window_and_pass_the_budget(fold, monkeypatch):
    monkeypatch.setattr(bks, "_FOLD_PANELS", fold["fold_panels"])
    a, theta_max, k_lo = fold["a"], fold["theta_max"], fold["k_lo"]
    h_max = fold["pitch"] * 0.0625
    windows = list(bks._fold_windows(a * h_max**2 / theta_max, k_lo, k_lo + fold["blocks"]))
    sizes = [_phase_panels(j0 * h_max, j1 * h_max, a, theta_max, h_max)[0].size
             for j0, j1 in windows]
    assert max(sizes[1:]) > sizes[0]
    assert any(j1 - j0 == 1 and size > (fold["fold_panels"] + 1) * bks._GL_POINTS
               for (j0, j1), size in zip(windows, sizes))


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 40.0), theta_max=st.floats(0.5, 2.0 * np.pi),
       pitch=st.integers(1, 9), k_lo=st.integers(-30, 30), blocks=st.integers(1, 20),
       fold_panels=st.integers(1, 64))
@example(**GROWING_FOLDS[0])
@example(**GROWING_FOLDS[1])
@example(**GROWING_FOLDS[2])
def test_fold_has_the_bits_of_a_fold_with_fresh_window_arrays(a, theta_max, pitch, k_lo,
                                                               blocks, fold_panels):
    args = (0.0625, a, theta_max, pitch, k_lo, k_lo + blocks)
    with mock.patch.object(bks, "_FOLD_PANELS", fold_panels):
        assert same_bits(bks._fold_cells(*args), fresh_window_fold(*args))


def test_fold_memory_does_not_grow_with_its_range():
    """The fine plane-wave table (584 cells, about 340k nodes) and the same
    geometry over twice the cells: a fold holds one window's rule at a time.
    Folding either range as one rule peaks at 14.7 and 32.6 MB; holding the
    smaller work array while a later window grows it, at 2.9 MB."""
    for k_hi in (146, 292):
        tracemalloc.start()
        try:
            rows = bks._fold_cells(0.125, 12.5, 0.75 * np.pi, 4, 0, k_hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (4 * k_hi, _OFFSETS.size)
        assert peak < 2.5e6


@pytest.mark.parametrize("c_lo, c_hi", [(0, 0), (5, 3), (-8, -8)])
def test_stencil_rejects_an_empty_or_reversed_cell_range(c_lo, c_hi):
    _STENCILS.clear()
    with pytest.raises(ValueError, match=rf"\[{c_lo}, {c_hi}\)"):
        _STENCILS.stencil(0.0625, 25.0, 1.5 * np.pi, 8, c_lo, c_hi)
    assert (_STENCILS.builds, _STENCILS.extensions, _STENCILS.hits) == (0, 0, 0)
    assert not _STENCILS._tables


@settings(max_examples=30, deadline=None)
@given(pitch=st.integers(3, 9), a=st.floats(2.0, 40.0),
       k_lo=st.integers(-30, 30), blocks=st.integers(1, 30))
def test_cell_table_matches_per_node_fold_for_any_geometry(pitch, a, k_lo, blocks):
    args = (0.0625, a, 1.5 * np.pi, pitch, k_lo, k_lo + blocks)
    assert_matches_per_node_fold(args, block_stencil(*args))


def test_table_extended_on_both_sides_matches_per_node_fold():
    geometry = (0.0625, 25.0, 1.5 * np.pi, 8)
    _STENCILS.clear()
    inner = block_stencil(*geometry, -10, 10)
    wide = block_stencil(*geometry, -35, 37)
    assert (_STENCILS.builds, _STENCILS.extensions) == (1, 1)
    assert_matches_per_node_fold((*geometry, -35, 37), wide)
    # the inner range still assembles the same bits from the extended table
    again = block_stencil(*geometry, -10, 10)
    assert _STENCILS.hits == 1
    assert again[0] == inner[0] and same_bits(again[1], inner[1])
    _STENCILS.clear()
    assert same_bits(block_stencil(*geometry, -35, 37)[1], wide[1])


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_negative_cells_are_the_reversed_rows():
    geometry = (0.0625, 25.0, 1.5 * np.pi, 5)
    _STENCILS.clear()
    block_stencil(*geometry, -30, 20)
    table = _STENCILS._tables[geometry]
    assert table.shape == (150, 6)  # cells 0 <= b < 150 only
    for b in range(150):  # the stencil of cell -b-1 alone is row b reversed
        s_min, coeff = _STENCILS.stencil(*geometry, -b - 1, -b)
        assert s_min == -b - 3
        assert np.array_equal(coeff, table[b, ::-1])
    # and it is the rule of the negative blocks, folded directly
    folded = bks._fold_cells(*geometry, -30, 0)
    assert np.max(np.abs(folded - table[::-1, ::-1])) <= 1e-14 * np.max(np.abs(table))


def recording_folds(monkeypatch):
    ranges, fold = [], bks._fold_cells

    def recorded(h, a, theta_max, pitch, k_lo, k_hi):
        ranges.append((k_lo, k_hi))
        return fold(h, a, theta_max, pitch, k_lo, k_hi)
    monkeypatch.setattr(bks, "_fold_cells", recorded)
    return ranges


def test_stencil_tables_grow_only_at_their_far_end(monkeypatch):
    ranges = recording_folds(monkeypatch)
    geometry = (0.0625, 25.0, 1.5 * np.pi, 8)
    _STENCILS.clear()
    block_stencil(*geometry, -35, 35)
    assert ranges == [(0, 35)]  # a cold symmetric request folds blocks k >= 0 only
    block_stencil(*geometry, -35, 35)
    block_stencil(*geometry, -20, 3)
    assert ranges == [(0, 35)]  # hits fold nothing
    # a range on one side of 0 folds every block from 0 to its far end
    other = (0.0625, 12.5, 1.5 * np.pi, 8)
    block_stencil(*other, -40, -5)
    assert ranges[1:] == [(0, 40)]
    block_stencil(*other, -40, 10)
    block_stencil(*other, 5, 40)
    block_stencil(*other, -45, 0)   # lacks blocks 40..44 only
    assert ranges[2:] == [(40, 45)]
    assert (_STENCILS.builds, _STENCILS.extensions, _STENCILS.hits) == (2, 1, 4)


def test_hit_after_extension_has_the_bits_of_a_fresh_build():
    geometry = (0.0625, 12.5, 1.5 * np.pi, 5)
    _STENCILS.clear()
    for k_lo, k_hi in [(-40, -5), (-12, 31), (3, 50)]:
        block_stencil(*geometry, k_lo, k_hi)
    assert (_STENCILS.builds, _STENCILS.extensions, _STENCILS.hits) == (1, 1, 1)
    extended = _STENCILS._tables[geometry]
    hit = block_stencil(*geometry, -30, 20)
    assert _STENCILS.hits == 2
    _STENCILS.clear()
    fresh = block_stencil(*geometry, -30, 20)
    assert hit[0] == fresh[0] and same_bits(hit[1], fresh[1])
    _STENCILS.clear()
    block_stencil(*geometry, -50, 40)  # one fold of the 50 blocks
    assert same_bits(extended, _STENCILS._tables[geometry])


def test_bks_demo_body_does_not_depend_on_what_ran_before():
    cfg = RunConfig(demo="bks")
    _STENCILS.clear()
    cold = strip_footer(render_report(run_demo(cfg)))
    # a wider state on the demo's grid extends every table the demo uses
    grid = ConfigGrid.line(-2.0 * cfg.extent, 2.0 * cfg.extent, 2 * cfg.grid_points)
    schrodinger_residual(gaussian_state(grid, width=1.6), list(cfg.t_list))
    assert _STENCILS.extensions == 2 * len(cfg.t_list)
    assert strip_footer(render_report(run_demo(cfg))) == cold


def counting_transforms(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def counted(x, *args, _transform=transform, **kwargs):
            calls.append(np.shape(x))
            return _transform(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_pairing_transforms_do_not_depend_on_the_times(monkeypatch):
    grid = line(count=512, extent=16.0)
    psi0 = gaussian_state(grid, center=0.4, width=1.1, wavenumber=0.3)
    times = [0.32, 0.24, 0.16, 0.12, 0.08, 0.06, 0.04, 0.03, 0.02, 0.015]
    for t_list in (times[:3], times):  # fill the stencil tables first
        schrodinger_residual(psi0, t_list)
    calls = counting_transforms(monkeypatch)
    counts = []
    for t_list in (times[:3], times[:5], times):
        calls.clear()
        schrodinger_residual(psi0, t_list)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]
    calls.clear()
    pairing = _Pairing(psi0, _default_panel(psi0), TOL)
    assert calls  # the profiles are built with the pairing
    calls.clear()
    for t in times:
        pairing.at(t)
    assert calls == []


def free_propagated(chi, t):
    """U_t chi with U_t = exp(-i hbar t k^2 / 2m), one FFT multiplier."""
    n, h = chi.grid.counts[0], chi.grid.spacings[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    return fft_apply(chi.samples, np.exp(-0.5j * chi.hbar * t * k**2 / chi.mass), 0)


@pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0)])
def test_pairing_is_the_free_propagator_at_every_time(hbar, mass):
    """<<rho_t psi, chi>> = e^{i pi/4} <psi, U_t chi> for every t > 0, not
    only as t -> 0: y = t p / m and the Fresnel integral turn the momentum
    integral into the free Schroedinger propagator."""
    grid = line(count=512, extent=16.0)
    psi = gaussian_state(grid, center=0.3, wavenumber=0.7, hbar=hbar, mass=mass)
    panel = _default_panel(psi)
    pairing = _Pairing(psi, panel, TOL)
    gap = conjugate_gap = 0.0
    for t in (0.02, 0.04, 0.08, 0.16, 0.32, 1.0, 3.0):
        for chi, res in zip(panel, pairing.at(t)):
            overlap = np.vdot(psi.samples, free_propagated(chi, t)) * grid.cell_volume
            oracle = np.exp(0.25j * np.pi) * overlap
            gap = max(gap, abs(res.value - oracle) / abs(oracle))
            conjugate = np.exp(-0.25j * np.pi) * overlap
            conjugate_gap = max(conjugate_gap, abs(res.value - conjugate) / abs(conjugate))
    assert gap < 1e-7
    assert conjugate_gap > 1.0  # the other branch misses by |1 - i|


def test_gauss_legendre_rule_is_cached_and_read_only():
    nodes, weights = gauss_legendre(12)
    assert gauss_legendre(12)[0] is nodes
    for array in (nodes, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_pairing_accepts_zero_dimensional_arrays():
    grid = line(count=512, extent=16.0)
    psi = gaussian_state(grid, width=1.0)
    chi = gaussian_state(grid, width=1.2, center=0.5)
    as_arrays = bks_pairing(psi, chi, np.array(0.1))
    assert as_arrays.value == bks_pairing(psi, chi, 0.1).value


def test_plane_wave_rates_share_stencils_across_wavenumbers():
    # criterion 8's waves share one support width, so their 24 stencil calls
    # (3 waves x 4 times x coarse and fine) need only 8 stencil tables
    grid = line(count=640, extent=40.0)
    _STENCILS.clear()
    for k in (1, 2, 3):
        state = windowed_plane_wave(grid, k=k, flat_halfwidth=20.0, taper_width=16.0)
        state_projected_rate(state, [0.32, 0.16, 0.08, 0.04])
    assert (_STENCILS.builds, _STENCILS.hits) == (8, 16)


def test_pairing_rejects_dimension_two():
    grid = ConfigGrid((-4.0, -4.0), (4.0, 4.0), (32, 32))
    psi = PolarizedState(np.ones(grid.shape), grid, "position")
    with pytest.raises(UnsupportedObservable):
        bks_pairing(psi, psi, 0.1)


def test_phase_panel_rule_integrates_quadratic_phase():
    # Integral of e^{i a y^2} over [-Y, Y] against the erf closed form
    from scipy.special import erf
    a, y_max = 18.0, 6.0
    nodes, weights = _phase_panels(-y_max, y_max, a, 1.5 * np.pi, 1.0)
    approx = np.sum(weights * np.exp(1j * a * nodes**2))
    root = np.sqrt(-1j * a)  # principal branch
    exact = np.sqrt(np.pi) * erf(root * y_max) / root
    assert abs(approx - exact) < 1e-12
    # antisymmetric integrands cancel to round-off
    odd = np.sum(weights * nodes * np.exp(1j * a * nodes**2)
                 * np.exp(-nodes**2 / 4))
    assert abs(odd) < 1e-13


def test_richardson_recovers_polynomials_exactly():
    ts = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
    vals = 3.0 - 2.0 * ts + 0.7 * ts**2 - 0.1 * ts**3
    value, spread = richardson_extrapolate(ts, vals)
    assert value == pytest.approx(3.0, abs=1e-12)
    assert spread < 1e-10


@pytest.mark.parametrize("ts", [[0.1, 0.1, 0.05], [0.1, np.inf, 0.05], [0.1, np.nan, 0.05]])
def test_richardson_rejects_repeated_or_non_finite_times(ts):
    # each made the Neville table divide by zero or by infinity and return NaN
    with pytest.raises(ValueError, match="finite and distinct"):
        richardson_extrapolate(ts, [1.0, 2.0, 3.0])


def test_richardson_on_analytic_function():
    ts = np.array([0.64, 0.32, 0.16, 0.08, 0.04, 0.02])
    f = lambda t: np.sqrt(2 * np.pi / (t - 2j))
    g = (f(ts) - f(0.0)) / ts
    exact = -np.sqrt(2 * np.pi) / 2 * (-2j) ** -1.5
    value, spread = richardson_extrapolate(ts, g)
    assert abs(value - exact) < 1e-8
    assert spread < 1e-5


def test_windowed_plane_wave_properties():
    grid = line(count=640, extent=40.0)
    psi = windowed_plane_wave(grid, k=2.0, flat_halfwidth=20.0, taper_width=16.0)
    assert psi.norm() == pytest.approx(1.0)
    x = grid.axis(0)
    flat = np.abs(x) <= 20.0
    mags = np.abs(psi.samples[flat])
    assert np.max(mags) / np.min(mags) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(psi.samples[np.abs(x) >= 36.05]) == 0.0)


def test_gaussian_width_tracks_hbar():
    # exp(-p^2 / 2 hbar) maps to exp(-q^2 / 2 hbar) for hbar != 1 as well
    hbar = 0.5
    grid = line(count=384, extent=10.0)
    phi = PolarizedState(np.exp(-grid.axis(0) ** 2 / (2 * hbar)), grid,
                         "momentum", hbar=hbar)
    psi = fourier_project(phi)
    expected = np.exp(-psi.grid.axis(0) ** 2 / (2 * hbar))
    err = np.sqrt(np.sum(np.abs(psi.samples - expected) ** 2)
                  * psi.grid.cell_volume)
    assert err < 1e-10


def test_two_dimensional_projection_and_parseval():
    grid = ConfigGrid((-10.0, -10.0), (10.0, 10.0), (96, 96))
    p1, p2 = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
    samples = np.exp(-(p1**2 + 1.3 * p2**2) / 2 + 0.7j * p1 - 0.4j * p2)
    phi = PolarizedState(samples, grid, "momentum").normalized()
    psi = fourier_project(phi)
    assert psi.n == 2
    assert abs(psi.norm() - 1.0) < 1e-8
    back = fourier_project_back(psi)
    err = np.sqrt(np.sum(np.abs(back.samples - phi.samples) ** 2)
                  * grid.cell_volume)
    assert err < 1e-8
