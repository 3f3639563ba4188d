import direct_phase
import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geoquant.config import DEFAULT_TOLERANCES
from geoquant.demos import RunConfig, run_demo
from geoquant.errors import FlowEscapesGrid, UnsupportedObservable
from geoquant.prequant import Observable, PhaseSpaceGrid, evolution, prequantum_evolve
from geoquant.stencil import bilinear_phasor, fft_apply, spectral_shear_symbol


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
    monkeypatch.setattr(evolution, "_shears", lambda g, t: [
        (axis, -offset, -slope) for axis, offset, slope in shears(g, t)])
    grid = grid_128(extent=12.0)
    psi = gaussian(grid, sigma=1.5)
    out = prequantum_evolve(Observable.from_terms(1, {(0, 2): 0.5}), psi, 0.5, 1, grid, 1.0)
    assert abs(np.linalg.norm(out) / np.linalg.norm(psi) - 1.0) < 1e-12
    report = run_demo(RunConfig(demo="prequant-flat", n_pairs=1))
    check = next(c for c in report.checks if c.name == "flow-closed-form")
    assert not check.passed and check.value > 0.1


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
        per_line = direct_phase.shift_symbol(grid.counts[axis], grid.spacings[axis],
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


def modulated_gaussian_at(q, p, q0=1.0, p0=-0.5, sigma=1.2, k=1.0):
    return np.exp(-((q - q0) ** 2 + (p - p0) ** 2) / (2 * sigma**2) + 1j * k * q)


def modulated_gaussian(grid, **shape):
    return modulated_gaussian_at(*np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij"), **shape)


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


EXPONENTS = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
COUPLED = Observable.from_terms(1, {(2, 0): 0.5, (1, 1): 0.3, (0, 2): 0.4, (1, 0): 0.2,
                                    (0, 1): -0.3, (0, 0): 0.1})


def _characteristics(f, q, p, t):
    """RK4 of Hamilton's equations from (q, p), with the action Integral L_f along them."""
    f_q, f_p = f.dq(0), f.dp(0)

    def rate(y):
        q, p, _ = y
        df_dp = f_p.evaluate(q, p) + 0.0 * q
        return np.array([df_dp, -f_q.evaluate(q, p) - 0.0 * q, p * df_dp - f.poly.evaluate(q, p)])
    # 400 steps per unit of the fastest rate, which 2 max|coefficient| bounds
    steps = int(np.ceil(400 * abs(t) * max(1.0, 2 * max(map(abs, f.poly.coeffs.values())))))
    h = t / steps
    y = np.array([q, p, 0.0 * q])
    for _ in range(steps):
        k1 = rate(y)
        k2 = rate(y + h / 2 * k1)
        k3 = rate(y + h / 2 * k2)
        k4 = rate(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


@pytest.mark.parametrize("flow, t", [
    (COUPLED, 1.1),
    (COUPLED, 7.3),  # 0.16 short of the period 2 pi / sqrt(0.71)
    (Observable.from_terms(1, {(0, 2): 0.5, (1, 0): 0.4}), 1.0),
    (Observable.from_terms(1, {(0, 2): 0.5, (2, 0): -0.5}), 0.8),
    (Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.6, (0, 1): -0.4}), 2.5),
    (Observable.from_terms(1, {(2, 0): 1.0, (0, 2): 2.0}), 0.9),  # 2.5 rad: two half maps
    # three shears would need outer slopes ~ 1/0.04: it takes four, with slopes ~ sqrt(t)
    (Observable.from_terms(1, {(1, 1): 1.0, (2, 0): 0.02, (0, 2): -0.01, (0, 1): 0.3}), 0.3),
], ids=["coupled", "coupled-near-a-period", "free-fall", "inverted-oscillator",
        "affine-rotation", "anisotropic-oscillator", "nearly-a-squeeze"])
def test_quadratic_flows_match_the_characteristics(flow, t):
    """psi_t(m) = exp(-(i/hbar) Integral L_f) psi(rho_t(m)), integrated on sampled nodes."""
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 256, 256)
    hbar = 0.7
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    out = prequantum_evolve(flow, modulated_gaussian_at(q, p), t, 1, grid, hbar)
    # nodes anywhere, and the nodes where the evolved state is largest
    nodes = np.concatenate([np.random.default_rng(3).choice(grid.size, 200, replace=False),
                            np.argsort(np.abs(out), axis=None)[-200:]])
    q_t, p_t, action = _characteristics(flow, q.flat[nodes], p.flat[nodes], t)
    expected = np.exp(-1j * action / hbar) * modulated_gaussian_at(q_t, p_t)
    assert np.max(np.abs(out.flat[nodes] - expected)) < 1e-10


def test_squeeze_scales_the_state_without_phase():
    """f = qp: rho_t(q, p) = (q e^t, p e^-t), and L_f = p q - f = 0."""
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 256, 256)
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    squeeze = Observable.from_terms(1, {(1, 1): 1.0})
    out = prequantum_evolve(squeeze, modulated_gaussian_at(q, p), 0.3, 1, grid, 0.7)
    expected = modulated_gaussian_at(q * np.exp(0.3), p * np.exp(-0.3))
    assert np.max(np.abs(out - expected)) < 1e-11
    for t in (1.0, -1.0):  # the state's tail then reaches the edge of the box
        with pytest.raises(FlowEscapesGrid):
            prequantum_evolve(squeeze, modulated_gaussian_at(q, p), t, 1, grid, 0.7)


def _affine(axis, offset, slope):
    """The shear ``(axis, offset, slope)`` as a 3x3 matrix on (q, p, 1)."""
    m = np.eye(3)
    m[axis, 1 - axis], m[axis, 2] = slope, offset
    return m


def test_shears_compose_to_the_flow_map():
    """The first shear outermost, the list is exp(t G), here against a 30-digit exponential."""
    rng = np.random.default_rng(5)
    shapes = set()
    for draw in range(160):
        c = rng.uniform(-1.0, 1.0, size=6)
        if draw % 4 == 1:  # elliptic, mostly past a quarter turn
            c[0], c[1], c[2] = abs(c[0]) + 0.2, 0.1 * c[1], abs(c[2]) + 0.2
        elif draw % 4 == 2:  # a squeeze
            c[0] = c[2] = 0.0
        elif draw % 4 == 3:  # nearly a squeeze: the three shears' outer slopes are steep
            c[0], c[2] = 0.01 * c[0], 0.01 * c[2]
        f = Observable.from_terms(1, dict(zip(EXPONENTS, c)))
        g, _ = evolution._generator(f)
        t = rng.uniform(-6.0, 6.0) if draw % 4 == 1 else rng.uniform(-2.0, 2.0)
        shears = evolution._shears(g, t)
        shapes.add(len(shears))
        composed = np.linalg.multi_dot([_affine(*shear) for shear in shears])
        with mpmath.workdps(30):
            exact = np.array(mpmath.expm(mpmath.matrix(g.tolist()) * t).tolist(), dtype=float)
        assert np.max(np.abs(composed - exact)) < 1e-13 * np.max(np.abs(exact))
    assert {3, 4, 6} <= shapes  # three shears, four, and two half maps of three


@pytest.mark.parametrize("flow, count", [(Observable.from_terms(1, {(0, 1): 0.8}), 1),
                                         (Observable.from_terms(1, {(1, 0): -0.6}), 1),
                                         (FREE, 1), (HARMONIC, 3)],
                         ids=["translation_q", "translation_p", "free", "rotation"])
def test_translations_free_flow_and_rotation_keep_their_shear_counts(flow, count):
    g, _ = evolution._generator(flow)
    assert sum(1 for _, offset, slope in evolution._shears(g, 1.0) if offset or slope) == count


def _quadratic_and_times():
    """A quadratic with a linear and constant part, and two times that keep the state
    inside the box and resolved by its grid."""
    linear = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-2.0, 2.0))
    small = st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), linear)
    # same-signed q^2 and p^2 coefficients dominate b: bounded orbits at every time
    elliptic = st.tuples(st.floats(0.3, 0.6), st.floats(-0.3, 0.3), st.floats(0.3, 0.6),
                         st.sampled_from([-1.0, 1.0]), linear).map(
        lambda a: (a[3] * a[0], a[1], a[3] * a[2], a[4]))
    to_flow = lambda a: Observable.from_terms(1, dict(zip(EXPONENTS, a[:3] + a[3])))
    times = lambda bound: st.tuples(st.floats(-bound, bound), st.floats(-bound, bound))
    # a hyperbolic flow stretches the state by at most e^(sqrt(5) 0.3 |t|) < 2
    return st.one_of(st.tuples(small.map(to_flow), times(0.5)),
                     st.tuples(elliptic.map(to_flow), times(6.0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_quadratic_and_times(), st.sampled_from([0.5, 1.0, 2.0]))
@example((Observable.from_terms(1, {(2, 0): 0.25, (0, 2): 1e-12}), (0.3, -0.2)),
         0.5)  # period 6.3e6: t taken modulo it would keep only 9 digits
def test_group_law_for_random_quadratics(flow_and_times, hbar):
    flow, (t1, t2) = flow_and_times
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 256, 256)
    psi = modulated_gaussian(grid, sigma=0.6)
    try:
        stepped = prequantum_evolve(flow, prequantum_evolve(flow, psi, t1, 1, grid, hbar),
                                    t2, 1, grid, hbar)
        direct = prequantum_evolve(flow, psi, t1 + t2, 1, grid, hbar)
    except FlowEscapesGrid:
        assume(False)
    assert np.max(np.abs(stepped - direct)) < 1e-12


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
    with pytest.raises(UnsupportedObservable):
        prequantum_evolve(Observable.momentum(n=2), psi, 0.1, 1, grid, 1.0)


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


EPS = np.finfo(float).eps


@pytest.mark.parametrize("m, n", [(256, 256), (255, 256), (256, 255), (7, 12), (1, 9)])
@pytest.mark.parametrize("theta", [0.0137, -0.9, 2.3])
def test_bilinear_phasor_is_the_direct_exponential(m, n, theta):
    a, b = np.arange(m) - m // 2, np.arange(n) - n // 2
    argument = theta * np.multiply.outer(a, b)
    phasor = bilinear_phasor(theta, m, n)
    assert phasor.shape == (m, n)
    assert np.max(np.abs(phasor - np.exp(1j * argument))) <= 64 * EPS * max(1.0, np.max(np.abs(argument)))


@pytest.mark.parametrize("n, lines", [(256, 256), (255, 256), (256, 193), (33, 8)])
@pytest.mark.parametrize("offset, slope", [(0.7, 0.31), (-2.5, -1.7), (0.0, 0.05)])
def test_shear_symbol_is_the_direct_exponential(n, lines, offset, slope):
    grid = PhaseSpaceGrid(-14, 14, -9, 11, n, lines)
    x = grid.p_axis
    shifts = offset + slope * (x - x[lines // 2])
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid.h_q)
    symbol = spectral_shear_symbol(n, grid.h_q, offset, slope, lines, grid.h_p)
    argument = np.multiply.outer(k, shifts)
    assert np.max(np.abs(symbol - direct_phase.shift_symbol(n, grid.h_q, shifts))) \
        <= 64 * EPS * np.max(np.abs(argument))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_quadratic_and_times(), st.sampled_from([0.5, 1.0, 2.0]))
def test_evolution_matches_the_direct_phase_oracle(flow_and_times, hbar):
    flow, (t, _) = flow_and_times
    grid = PhaseSpaceGrid(-14, 14, -14, 14, 256, 256)
    psi = modulated_gaussian(grid, sigma=0.6)
    try:
        expected = direct_phase.evolve(flow, psi, t, grid, hbar)
    except FlowEscapesGrid:
        with pytest.raises(FlowEscapesGrid):
            prequantum_evolve(flow, psi, t, 1, grid, hbar)
        return
    out = prequantum_evolve(flow, psi, t, 1, grid, hbar)
    assert np.max(np.abs(out - expected)) < 1e-13 * np.max(np.abs(psi))


@pytest.mark.parametrize("flow, t", [(HARMONIC, 1.0), (HARMONIC, 2.5), (FREE, 1.0), (COUPLED, 1.1),
                                     (Observable.from_terms(1, {(1, 1): 1.0, (0, 1): 0.3}), 0.3),
                                     (Observable.from_terms(1, {(0, 1): 0.8, (1, 0): 0.2}), 1.0)],
                         ids=["rotation", "two-half-maps", "free", "coupled", "squeeze", "translation"])
def test_evolution_takes_no_exponential_of_a_grid_sized_array(monkeypatch, flow, t):
    grid = PhaseSpaceGrid(-14, 14, -12, 12, 256, 192)
    psi = modulated_gaussian(grid, sigma=0.6)
    sizes = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)
    monkeypatch.setattr(np, "exp", counting)
    prequantum_evolve(flow, psi, t, 1, grid, 0.7)
    assert sizes and max(sizes) <= grid.n_q + grid.n_p


def test_momentum_translation_returns_its_shear_output():
    """c p has no action: the result is the shear's output, zero-filled where nodes leave."""
    grid = PhaseSpaceGrid(-8, 8, -6, 6, 64, 48)
    psi = gaussian(grid, q0=0.5, p0=-0.3)
    f = Observable.from_terms(1, {(0, 1): 0.9})
    out = prequantum_evolve(f, psi, 1.5, 1, grid, 0.7)
    expected, _ = evolution._shear(psi, grid, 0, 0.9 * 1.5, 0.0)
    expected[grid.q_axis + 0.9 * 1.5 > grid.q_max] = 0.0
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    still = prequantum_evolve(Observable.constant(1, 0), psi, 1.5, 1, grid, 0.7)
    assert np.array_equal(still, psi) and not np.shares_memory(still, psi)


_QUADRATIC = Observable.from_terms(1, {(2, 0): 0.5, (1, 1): 0.3, (0, 2): 0.5})


@pytest.mark.parametrize("t, hbar, message", [
    (1.0, 0.0, "hbar must be positive and finite"),
    (1.0, -1.0, "hbar must be positive and finite"),
    (1.0, np.nan, "hbar must be positive and finite"),
    (1.0, np.inf, "hbar must be positive and finite"),
    (np.nan, 1.0, "t must be finite"),
    (np.inf, 1.0, "t must be finite"),
    (-np.inf, 1.0, "t must be finite")])
def test_a_bad_hbar_or_time_is_refused(t, hbar, message):
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    with pytest.raises(ValueError, match=message):
        prequantum_evolve(_QUADRATIC, gaussian(grid), t, 1, grid, hbar)


def test_a_negative_time_is_the_backward_flow():
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    psi = gaussian(grid)
    out = prequantum_evolve(_QUADRATIC, psi, 0.5, 1, grid, 1.0)
    assert np.max(np.abs(prequantum_evolve(_QUADRATIC, out, -0.5, 1, grid, 1.0) - psi)) < 1e-10
