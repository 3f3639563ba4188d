import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoquant.config import DEFAULT_TOLERANCES
from geoquant.demos import RunConfig, run_demo
from geoquant.errors import FlowEscapesGrid, UnsupportedObservable
from geoquant.prequant import (Observable, PhaseSpaceGrid, classify_flow,
                               evolution, prequantum_evolve)
from geoquant.stencil import fft_apply, spectral_shift_symbol


def grid_128(extent=8.0):
    return PhaseSpaceGrid(-extent, extent, -extent, extent, 128, 128)


def gaussian(grid, q0=0.0, p0=0.0, sigma=1.0):
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    return np.exp(-((q - q0) ** 2 + (p - p0) ** 2) / (2 * sigma**2)).astype(complex)


def test_zero_generator_is_identity():
    grid = grid_128()
    psi = gaussian(grid)
    out = prequantum_evolve(Observable.constant(1, 0), psi, 1.7, 1, grid, 1.0)
    assert np.max(np.abs(out - psi)) < 1e-14


def test_constant_generator_is_a_global_phase():
    grid = grid_128()
    psi = gaussian(grid)
    out = prequantum_evolve(Observable.constant(1, 2.0), psi, 0.3, 1, grid, 1.0)
    assert np.max(np.abs(out - np.exp(0.6j) * psi)) < 1e-12


def test_momentum_flow_translates_without_phase():
    # value at (q, p) comes from the flowed point (q + t, p); zero phase
    grid = grid_128()
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    psi = gaussian(grid, q0=1.0)
    out = prequantum_evolve(Observable.momentum(), psi, 0.5, 1, grid, 1.0)
    expected = np.exp(-((q + 0.5 - 1.0) ** 2 + p**2) / 2)
    assert np.max(np.abs(out - expected)) < 1e-8


def test_coordinate_flow_shifts_momentum_with_phase():
    grid = grid_128()
    hbar = 0.7
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    psi = gaussian(grid)
    t = 0.4
    out = prequantum_evolve(Observable.coordinate(), psi, t, 1, grid, hbar)
    expected = np.exp(1j * q * t / hbar) * np.exp(-(q**2 + (p - t) ** 2) / 2)
    # a loose pointwise bound suffices: a wrong sign would be O(1)
    assert np.max(np.abs(out - expected)) < 1e-5


def test_free_flow_matches_closed_form():
    grid = grid_128(extent=12.0)
    mass = 2.0
    hbar = 1.0
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    psi = gaussian(grid, sigma=1.5)
    t = 0.8
    free = Observable.from_terms(1, {(0, 2): 1.0 / (2 * mass)})
    out = prequantum_evolve(free, psi, t, 2, grid, hbar)
    # action integral of the constant lagrangian p^2/2m along the flow
    expected = np.exp(-1j * t * p**2 / (2 * mass * hbar)) \
        * np.exp(-((q + p * t / mass) ** 2 + p**2) / (2 * 1.5**2))
    assert np.max(np.abs(out - expected)) < 1e-5


def test_rotation_flow_action_integral_is_exact():
    grid = grid_128(extent=10.0)
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    psi = gaussian(grid, sigma=1.4)
    t = 0.6
    harmonic = Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5})
    out = prequantum_evolve(harmonic, psi, t, 1, grid, 1.0)
    # closed-form action: Integral (p^2-q^2)/2 along the rotation flow
    action = 0.5 * ((p**2 - q**2) * np.sin(2 * t) / 2
                    + p * q * (np.cos(2 * t) - 1))
    qt = q * np.cos(t) + p * np.sin(t)
    pt = p * np.cos(t) - q * np.sin(t)
    expected = np.exp(-1j * action) * np.exp(-(qt**2 + pt**2) / (2 * 1.4**2))
    assert np.max(np.abs(out - expected)) < 1e-5


def test_rotation_preserves_norm():
    grid = grid_128(extent=10.0)
    psi = gaussian(grid, sigma=1.4)
    harmonic = Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5})
    out = prequantum_evolve(harmonic, psi, 1.0, 2, grid, 1.0)
    assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) / np.linalg.norm(psi) < 1e-6


def test_free_flow_unitary_within_grid_tolerance():
    grid = PhaseSpaceGrid(-32, 32, -32, 32, 512, 512)
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    psi = np.exp(-(q**2 + p**2) / (2 * 2.0**2)).astype(complex)
    free = Observable.from_terms(1, {(0, 2): 0.5})
    n0 = np.linalg.norm(psi)
    for t in (0.5, 1.0, 2.0):
        out = prequantum_evolve(free, psi, t, 1, grid, 1.0)
        assert abs(np.linalg.norm(out) - n0) / n0 < 1e-6 * max(t, 1.0)


def test_flipped_shear_fails_the_demo_flow_check(monkeypatch):
    """A shear in the wrong direction keeps the norm but not the closed form."""
    shears = evolution._shears
    monkeypatch.setattr(evolution, "_shears", lambda spec, t: [
        (axis, -offset, -slope) for axis, offset, slope in shears(spec, t)])
    grid = grid_128(extent=12.0)
    psi = gaussian(grid, sigma=1.5)
    out = prequantum_evolve(Observable.from_terms(1, {(0, 2): 0.5}), psi, 0.5, 1, grid, 1.0)
    assert abs(np.linalg.norm(out) / np.linalg.norm(psi) - 1.0) < 1e-12
    report = run_demo(RunConfig(demo="prequant-flat", n_pairs=1))
    check = next(c for c in report.checks if c.name == "flow-closed-form")
    assert not check.passed and check.value > 0.1


def test_endpoint_applies_the_shears_last_first(monkeypatch):
    """A non-palindromic shear list pins the order in which rho_t moves the coordinates."""
    monkeypatch.setattr(evolution, "_shears", lambda spec, t: [(0, 0.3, 0.0), (1, 0.0, 0.4)])
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 128, 128)
    hbar = 0.7
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    psi = lambda q, p: np.exp(-((q - 1.0) ** 2 + (p + 0.5) ** 2) / (2 * 1.2**2) + 1j * q)
    out = prequantum_evolve(Observable.constant(1, 0), psi(q, p), 1.0, 1, grid, hbar)
    # psi_1(q, p) = psi(q + 0.3, p), then psi_1(q, p + 0.4 q) = psi(q + 0.3, p + 0.4 q)
    q_t, p_t = q + 0.3, p + 0.4 * q
    expected = np.exp(-1j * (q_t * p_t - q * p) / (2 * hbar)) * psi(q_t, p_t)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_translation_shifts_by_a_1d_symbol(monkeypatch):
    """A zero-slope shear needs one symbol entry per wavenumber, not one per node.

    The result keeps the bits of the per-line symbol it replaces.
    """
    symbols = []

    def recording(field, symbol, axis):
        symbols.append(symbol)
        return fft_apply(field, symbol, axis)
    monkeypatch.setattr(evolution, "fft_apply", recording)
    grid = PhaseSpaceGrid(-8, 8, -6, 6, 64, 48)
    psi = gaussian(grid, q0=0.5, p0=-0.3)
    for axis in (0, 1):
        out, _ = evolution._shear(psi, grid, axis, 0.7, 0.0)
        assert symbols[-1].shape == (grid.counts[axis],)
        per_line = spectral_shift_symbol(grid.counts[axis], grid.spacings[axis],
                                         np.full(grid.counts[1 - axis], 0.7))
        assert np.array_equal(out, fft_apply(psi, per_line if axis == 0 else per_line.T, axis))
    evolution._shear(psi, grid, 0, 0.0, 0.3)
    assert symbols[-1].shape == grid.shape


def test_flow_escape_raises_with_fraction():
    grid = grid_128(extent=4.0)
    psi = gaussian(grid)
    free = Observable.from_terms(1, {(0, 2): 0.5})
    with pytest.raises(FlowEscapesGrid) as err:
        prequantum_evolve(free, psi, 10.0, 1, grid, 1.0)
    assert 0.5 < err.value.escaped_fraction <= 1.0


HARMONIC = Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5})
FREE = Observable.from_terms(1, {(0, 2): 0.5})


def modulated_gaussian(grid, q0=1.0, p0=-0.5, sigma=1.2, k=1.0):
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    return np.exp(-((q - q0) ** 2 + (p - p0) ** 2) / (2 * sigma**2) + 1j * k * q)


def _flow_and_times():
    """A generator with a constant term, and two times whose flows keep the state inside."""
    const = st.floats(-2.0, 2.0)
    coeff = st.floats(-1.0, 1.0)
    translation = st.tuples(st.sampled_from([(0, 1), (1, 0)]), coeff, const).map(
        lambda a: Observable.from_terms(1, {a[0]: a[1], (0, 0): a[2]}))
    free = st.tuples(st.floats(-0.5, 0.5), const).map(
        lambda a: Observable.from_terms(1, {(0, 2): a[0], (0, 0): a[1]}))
    rotation = st.tuples(coeff, const).map(
        lambda a: Observable.from_terms(1, {(2, 0): a[0], (0, 2): a[0], (0, 0): a[1]}))
    # translations move the state by at most 3 and free-flow shears have slope at
    # most 2; a rotation keeps the state near the centre at every angle
    times = lambda bound: st.tuples(st.floats(-bound, bound), st.floats(-bound, bound))
    return st.one_of(st.tuples(translation, times(1.5)), st.tuples(free, times(1.0)),
                     st.tuples(rotation, times(15.0)))


@pytest.mark.parametrize("flow, t1, t2", [(HARMONIC, 0.9, 1.7), (FREE, 0.5, 0.7)],
                         ids=["rotation", "free"])
def test_group_law(flow, t1, t2):
    # rotation: 0.9 + 1.7 > pi/2, so two one-sub-rotation steps make a two-sub-rotation one
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 128, 128)
    psi = modulated_gaussian(grid)
    stepped = prequantum_evolve(flow, prequantum_evolve(flow, psi, t1, 1, grid, 1.0),
                                t2, 1, grid, 1.0)
    direct = prequantum_evolve(flow, psi, t1 + t2, 1, grid, 1.0)
    assert np.max(np.abs(stepped - direct)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(_flow_and_times(), st.sampled_from([0.5, 1.0, 2.0]))
@example((Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5, (0, 0): 0.3}),
          (10.0, 10.0)), 1.0)  # ten turns
def test_group_law_for_every_family(flow_and_times, hbar):
    flow, (t1, t2) = flow_and_times
    # 256^2: the closed-form phase is a chirp of local wavenumber ~|z|/hbar
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 256, 256)
    psi = modulated_gaussian(grid)
    stepped = prequantum_evolve(flow, prequantum_evolve(flow, psi, t1, 1, grid, hbar),
                                t2, 1, grid, hbar)
    direct = prequantum_evolve(flow, psi, t1 + t2, 1, grid, hbar)
    assert np.max(np.abs(stepped - direct)) < 1e-12


def test_full_rotation_returns_the_state_times_its_phase():
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 128, 128)
    psi = modulated_gaussian(grid)
    hbar, const = 0.7, 0.3
    f = Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5, (0, 0): const})
    for turns in (1, 10):
        t = 2 * np.pi * turns
        out = prequantum_evolve(f, psi, t, 1, grid, hbar)
        # the quadratic part's action vanishes over a period; the constant leaves exp(i c t / hbar)
        assert np.max(np.abs(out - np.exp(1j * const * t / hbar) * psi)) < 1e-12


def test_rotation_past_a_quarter_turn_matches_closed_form():
    """w = 2.5 > pi/2 runs as two sub-rotations of three shears each."""
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 256, 256)
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    t = 2.5
    out = prequantum_evolve(HARMONIC, modulated_gaussian(grid), t, 1, grid, 1.0)
    action = 0.5 * ((p**2 - q**2) * np.sin(2 * t) / 2 + p * q * (np.cos(2 * t) - 1))
    qt = q * np.cos(t) + p * np.sin(t)
    pt = p * np.cos(t) - q * np.sin(t)
    pushed = np.exp(-((qt - 1.0) ** 2 + (pt + 0.5) ** 2) / (2 * 1.2**2) + 1j * qt)
    assert np.max(np.abs(out - np.exp(-1j * action) * pushed)) < 1e-12


def test_escaped_mass_raises_although_most_nodes_stay():
    grid = grid_128()
    psi = gaussian(grid, q0=-5.0)
    q_flowed = grid.q_axis + 4.0  # the momentum flow moves every node by t = 4 in q
    assert np.mean(q_flowed > grid.q_max) < 0.5
    with pytest.raises(FlowEscapesGrid) as err:
        prequantum_evolve(Observable.momentum(), psi, 4.0, 1, grid, 1.0)
    assert err.value.escaped_fraction > 0.5  # the Gaussian's mass, not its nodes
    # the bound is Tolerances.tail_mass: lifting it lets the zero-filled result through
    loose = DEFAULT_TOLERANCES.override(tail_mass=1.0)
    out = prequantum_evolve(Observable.momentum(), psi, 4.0, 1, grid, 1.0, tolerances=loose)
    assert np.linalg.norm(out) < 0.5 * np.linalg.norm(psi)


def test_unsupported_flow_rejected():
    grid = grid_128()
    psi = gaussian(grid)
    cubic = Observable.from_terms(1, {(3, 0): 1.0})
    with pytest.raises(UnsupportedObservable):
        prequantum_evolve(cubic, psi, 0.1, 1, grid, 1.0)


def test_classify_flow_families():
    assert classify_flow(Observable.momentum()).kind == "translation_q"
    assert classify_flow(Observable.coordinate()).kind == "translation_p"
    assert classify_flow(Observable.from_terms(1, {(0, 2): 0.25})).kind == "free"
    spec = classify_flow(Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5}))
    assert spec.kind == "rotation" and spec.coeff == pytest.approx(0.5)
    with pytest.raises(UnsupportedObservable):
        classify_flow(Observable.from_terms(1, {(2, 0): 1.0, (0, 2): 2.0}))


def test_free_flow_keeps_a_state_whose_nodes_leave():
    """Most nodes flow out of the box, but the state's mass stays inside."""
    grid = PhaseSpaceGrid(-24, 24, -24, 24, 256, 256)
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    hbar, t, sigma = 1.0, 3.0, 1.5
    assert np.mean(np.abs(q + t * p) > 24) > 0.6
    out = prequantum_evolve(FREE, gaussian(grid, sigma=sigma), t, 1, grid, hbar)
    expected = np.exp(-1j * t * p**2 / (2 * hbar)) \
        * np.exp(-((q + t * p) ** 2 + p**2) / (2 * sigma**2))
    assert np.max(np.abs(out - expected)) < 1e-12


@pytest.mark.parametrize("flow", [Observable.from_terms(1, {(0, 1): 0.8, (0, 0): 0.2}),
                                  Observable.from_terms(1, {(1, 0): -0.6}),
                                  FREE, HARMONIC],
                         ids=["translation_q", "translation_p", "free", "rotation"])
def test_steps_do_not_change_the_result(flow):
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 128, 128)
    psi = modulated_gaussian(grid)
    one = prequantum_evolve(flow, psi, 1.3, 1, grid, 0.7)
    four = prequantum_evolve(flow, psi, 1.3, 4, grid, 0.7)
    assert np.array_equal(one, four)
