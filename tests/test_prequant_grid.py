import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spectral_oracle import lifted_derivative, periodic_derivative_matrix, reference_apply

import geoquant.grid
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.demos import RunConfig, run_demo
from geoquant.errors import BasisMismatch, UnsupportedObservable
from geoquant.grid import interior_states
from geoquant.halfform import ConfigGrid, check_canonical_commutator, quantize_halfform
from geoquant.linalg import adjoint_wrt, commutator
from geoquant.polynomials import Polynomial
from geoquant.prequant import (Observable, PhaseSpaceGrid, PrequantApplier,
                               check_dirac, liouville_gram, poisson_bracket, prequantize,
                               selfadjoint_residual)
from geoquant.stencil import derivative_matrix_1d

TOL = DEFAULT_TOLERANCES


def small_grid(n_pts=24, extent=6.0):
    return PhaseSpaceGrid(-extent, extent, -extent, extent, n_pts, n_pts)


def pooled(names):
    """Whether any of the thread names is a panel pool worker's."""
    return any(name.startswith("geoquant-panel") for name in names)


def live_panel_threads():
    return [t.name for t in threading.enumerate() if pooled([t.name])]


@pytest.fixture
def panel_threads(monkeypatch):
    """Names of the threads that run each panel state, appended as they run."""
    names = []
    original = geoquant.grid._map_states

    def recording(fn, states):
        def named(v):
            names.append(threading.current_thread().name)
            return fn(v)
        return original(named, states)
    monkeypatch.setattr(geoquant.grid, "_map_states", recording)
    return names


def test_momentum_prequantizes_to_gradient():
    grid = small_grid()
    op = prequantize(Observable.momentum(), grid, hbar=0.7).dense()
    d_q = periodic_derivative_matrix(grid.n_q, grid.q_max - grid.q_min)
    expected = -0.7j * np.kron(d_q, np.eye(grid.n_p))
    assert np.max(np.abs(op - expected)) < 1e-14


def test_coordinate_prequantizes_to_dp_plus_q():
    grid = small_grid()
    op = prequantize(Observable.coordinate(), grid, hbar=0.7).dense()
    d_p = periodic_derivative_matrix(grid.n_p, grid.p_max - grid.p_min)
    q_field = np.repeat(grid.q_axis, grid.n_p)
    expected = 0.7j * np.kron(np.eye(grid.n_q), d_p) + np.diag(q_field)
    assert np.max(np.abs(op - expected)) < 1e-14


def test_constant_prequantizes_to_identity():
    grid = small_grid()
    op = prequantize(Observable.constant(1, 1.0), grid, hbar=1.0).dense()
    assert np.max(np.abs(op - np.eye(grid.size))) == 0.0


def test_prequantize_is_linear():
    grid = small_grid()
    rng = np.random.default_rng(2)
    f = Observable.from_terms(1, {(2, 0): 0.3, (0, 1): -1.2})
    g = Observable.from_terms(1, {(1, 1): 0.8, (0, 2): 0.5})
    combo = Observable(1, 2.0 * f.poly + (-0.5) * g.poly)
    lhs = prequantize(combo, grid, 1.0).dense()
    rhs = 2.0 * prequantize(f, grid, 1.0).dense() \
        - 0.5 * prequantize(g, grid, 1.0).dense()
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    del rng


@pytest.mark.parametrize("grid", [ConfigGrid.line(-3.0, 3.0, 16), ConfigGrid.line(-3.0, 3.0, 17),
                                  ConfigGrid((-3.0, -2.0), (3.0, 2.0), (16, 17)),
                                  ConfigGrid((-3.0, -2.0), (3.0, 2.0), (17, 16))],
                         ids=["n1-even", "n1-odd", "n2-even-odd", "n2-odd-even"])
def test_lifted_derivatives_are_the_kronecker_lift(grid):
    """Each momentum densifies to -i times the lifted closed-form derivative."""
    for axis in range(grid.n):
        op = quantize_halfform(Observable.momentum(grid.n, axis), grid, 1.0).dense()
        # entries reach 2.8 here; the FFT and the closed form differ by round-off
        assert np.max(np.abs(op + 1j * lifted_derivative(grid, axis))) < 2e-14


@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_derivative_matrix_is_the_closed_form(n):
    """The FFT-built matrix against Trefethen's cot (even n) and csc (odd n) forms."""
    gap = derivative_matrix_1d(n, 6.0 / n) - periodic_derivative_matrix(n, 6.0)
    assert np.max(np.abs(gap)) < 1e-14


def test_row_pattern_products_match_the_dense_matrix():
    """``entries @ v`` against the closed-form reference; non-vector operands raise."""
    grid = PhaseSpaceGrid(-5, 5, -4, 4, 12, 9)
    f = Observable.from_terms(1, {(2, 0): 0.4, (1, 1): -0.3, (0, 2): 0.9, (1, 0): 0.1})
    g = Observable.from_terms(1, {(1, 1): 0.7, (0, 1): -1.1})
    mf, mg = prequantize(f, grid, 0.9).entries, prequantize(g, grid, 0.9).entries
    rng = np.random.default_rng(11)
    v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    expected = reference_apply(mf, v)
    got = mf @ v
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))
    # only the vector product is kept: a block or a matrix operand raises
    for rhs in (v[:-1], np.stack([v, v], axis=1), mg.toarray(), mg):
        with pytest.raises(ValueError):
            mf @ rhs


def test_prequantize_stores_rows_not_squares():
    """128^2: prequantize keeps its coefficient fields; a dense matrix would need 4.3 GB."""
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 128, 128)
    f = Observable.from_terms(1, {(2, 0): 0.5, (1, 1): -0.3, (0, 2): 0.9, (1, 0): 0.1})
    tracemalloc.start()
    try:
        entries = prequantize(f, grid, 1.0).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = [field for _, field, _ in entries.terms] + [entries.scalar]
    # even a one-byte size^2 array (268 MB) would break this bound
    assert peak < 4 * sum(field.nbytes for field in fields)


def test_sign_conventions_locked_together():
    """{q, p} = -1, the map rule, and [q^, p^] = +i*hbar jointly."""
    grid = small_grid(n_pts=48, extent=8.0)
    hbar = 0.7
    q = Observable.coordinate()
    p = Observable.momentum()
    assert poisson_bracket(q, p).poly.coeffs == {(0, 0): -1}
    pq = PrequantApplier(q, grid, hbar)
    pp = PrequantApplier(p, grid, hbar)
    for v in interior_states(grid, count=3, seed=1):
        canon = pq(pp(v)) - pp(pq(v))
        # commutation rule with the minus sign turns {q,p} = -1 into +i*hbar
        assert np.linalg.norm(canon - 1j * hbar * v) < TOL.grid
    assert check_dirac(q, p, grid, hbar) < TOL.grid


def test_check_dirac_same_observable_machine_zero():
    grid = small_grid()
    f = Observable.from_terms(1, {(2, 0): 1.0, (0, 1): 0.5})
    assert check_dirac(f, f, grid, 1.0) < 1e-14


def test_check_dirac_random_quadratics_spectral():
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    rng = np.random.default_rng(0)
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for _ in range(5):
        f = Observable.from_terms(1, {e: rng.uniform(-1, 1) for e in exps})
        g = Observable.from_terms(1, {e: rng.uniform(-1, 1) for e in exps})
        assert check_dirac(f, g, grid, 1.0) < TOL.grid


_QUADRATIC = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(
    lambda c: Observable.from_terms(
        1, dict(zip([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], c))))


@settings(max_examples=30, deadline=None)
@given(_QUADRATIC, _QUADRATIC, st.integers(64, 128), st.integers(64, 128),
       st.floats(6.0, 10.0), st.floats(0.5, 2.0))
def test_dirac_residual_of_random_quadratics(f, g, n_q, n_p, extent, hbar):
    grid = PhaseSpaceGrid(-extent, extent, -extent, extent, n_q, n_p)
    assert check_dirac(f, g, grid, hbar) < TOL.grid


_Q, _P2 = Observable.coordinate(), Observable.from_terms(1, {(0, 2): 1.0})
_QUAD_F = Observable.from_terms(1, {(2, 0): 0.5, (1, 1): -0.8, (0, 2): 0.3, (1, 0): 0.4})
_QUAD_G = Observable.from_terms(1, {(2, 0): -0.6, (1, 1): 0.7, (0, 2): 0.9, (0, 1): -0.2})
_QUAD2_F = Observable.from_terms(2, {(1, 0, 0, 1): 0.7, (0, 0, 2, 0): -0.4,
                                     (0, 1, 0, 0): 0.3})
_QUAD2_G = Observable.from_terms(2, {(0, 2, 0, 0): 0.6, (1, 0, 1, 0): -0.5,
                                     (0, 0, 0, 1): 0.2})


@pytest.mark.parametrize("grid, f, g", [
    (small_grid(), _QUAD_F, _QUAD_G),
    (small_grid(), _Q, _P2),  # one axis each
    (small_grid(), _P2, _Q),
    (small_grid(), Observable.constant(1, 3.0), _QUAD_G),  # P_3 touches no axis
    (small_grid(), _QUAD_F, Observable.constant(1, 3.0)),
    (PhaseSpaceGrid(-6, 6, -6, 6, 12, 12, n=2), _QUAD2_F, _QUAD2_G),
    (PhaseSpaceGrid(-6, 6, -6, 6, 12, 12, n=2),
     Observable.coordinate(n=2, axis=1), Observable.constant(2, 3.0)),
], ids=["spectral", "q-p2", "p2-q", "3-quad", "quad-3", "n2-spectral", "n2-q2-3"])
def test_shared_derivatives_give_the_unshared_residual_bitwise(grid, f, g):
    """P_g v, P_f v and P_{f,g} v share v's derivatives; the bits do not move."""
    hbar = 0.7
    pf, pg, pfg = (PrequantApplier(h, grid, hbar) for h in (f, g, poisson_bracket(f, g)))
    states = interior_states(grid, count=3, seed=5)
    unshared = geoquant.grid.worst_residual(
        lambda v: pf(pg(v)) - pg(pf(v)) + 1j * hbar * pfg(v), states)
    assert check_dirac(f, g, grid, hbar, states=states) == unshared


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_check_dirac_transforms_each_state_six_times(monkeypatch, panel_workers, workers):
    """Two quadratics on both axes: one FFT pair per derivative of v, P_g v, P_f v."""
    panel_workers(workers)
    calls = []

    def counting(transform):
        def counted(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return counted
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    grid = small_grid()
    f = Observable.from_terms(1, {(2, 0): 1.0, (0, 2): 1.0})
    g = Observable.from_terms(1, {(1, 1): 1.0})
    for k in (1, 3):
        states = interior_states(grid, count=k)
        calls.clear()
        check_dirac(f, g, grid, 1.0, states=states)
        assert sorted(calls) == ["fft"] * 6 * k + ["ifft"] * 6 * k


def test_fft_derivative_round_off_floor_at_256():
    """The spectral residual's N^2 round-off floor, about 1.6e-11 at 256^2.

    Random quadratics on [-8, 8]^2; the bound allows one decade above the
    floor, so a change that loses accuracy in the FFT derivative shows.
    """
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 256, 256)
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2):
        f = Observable.from_terms(1, {e: rng.uniform(-1, 1) for e in exps})
        g = Observable.from_terms(1, {e: rng.uniform(-1, 1) for e in exps})
        worst = max(worst, check_dirac(f, g, grid, 1.0))
    assert 0.0 < worst < 1.6e-10


def test_interior_states_vanish_at_the_box_edge():
    """Edge values sit at round-off, so the Dirac residual reads the operators.

    A spectral derivative differentiates the periodic extension; an edge
    value of 1e-12 of the peak gave residuals up to 1.6e-9 here, against a
    round-off floor of 2e-12.
    """
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 128, 128)
    f = Observable.from_terms(1, {(2, 0): 0.5, (1, 1): -0.8, (0, 2): 0.3, (1, 0): 0.4})
    g = Observable.from_terms(1, {(2, 0): -0.6, (1, 1): 0.7, (0, 2): 0.9, (0, 1): -0.2})
    for seed in range(4):
        states = interior_states(grid, count=16, seed=seed)
        for v in states:
            s = np.abs(v.reshape(grid.shape))
            edge = max(s[[0, -1], :].max(), s[:, [0, -1]].max())
            assert edge <= 1e-15 * s.max()
        assert check_dirac(f, g, grid, 1.0, states=states) < 1e-11


def meshgrid_interior_states(grid, count, seed):
    """``interior_states`` with each factor exponentiated on a coordinate mesh."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        psi = np.ones(grid.shape, dtype=complex)
        for x, lo, hi in zip(np.meshgrid(*grid.axes(), indexing="ij"), grid.mins, grid.maxs):
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            sigma = half * rng.uniform(0.09, 0.11)
            center = mid + half * rng.uniform(-0.2, 0.2)
            sigma = min(sigma, (half - abs(center - mid)) / geoquant.grid._EDGE_SIGMAS)
            psi = psi * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
            k = rng.uniform(-2.0, 2.0) * np.pi / half
            psi = psi * np.exp(1j * k * (x - mid))
        flat = psi.reshape(-1)
        states.append(flat / np.linalg.norm(flat))
    return states


@pytest.mark.parametrize("grid", [PhaseSpaceGrid(-8, 8, -8, 8, 256, 256),
                                  PhaseSpaceGrid(-8, 8, -6, 6, 64, 48),
                                  PhaseSpaceGrid(-3, 3, -4, 4, 12, 12, n=2),
                                  ConfigGrid.line(-16, 16, 512)],
                         ids=["256^2", "64x48", "12^4", "line"])
def test_interior_states_have_the_bits_of_the_meshgrid_formula(grid):
    for seed in range(5):
        states = interior_states(grid, count=3, seed=seed)
        oracle = meshgrid_interior_states(grid, 3, seed)
        assert all(np.array_equal(v.view(np.uint64), w.view(np.uint64))
                   for v, w in zip(states, oracle))


def test_check_dirac_qsquared_p():
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    f = Observable.from_terms(1, {(2, 0): 1.0})
    assert check_dirac(f, Observable.momentum(), grid, 1.0) < TOL.grid


def test_applier_matches_matrix():
    grid = small_grid()
    rng = np.random.default_rng(4)
    f = Observable.from_terms(1, {(2, 0): 0.4, (1, 1): -0.3, (0, 2): 0.9,
                                  (1, 0): 0.1})
    v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    direct = prequantize(f, grid, 0.9).entries @ v
    assert np.max(np.abs(direct - PrequantApplier(f, grid, 0.9)(v))) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_applier_matches_assembled_matrix(n):
    """Matrix-free P_f agrees with its terms assembled on the closed-form derivative.

    Even and odd counts: the spectral Nyquist mode exists only at even N.
    """
    for n_q, n_p in ((10, 8), (9, 11)):
        grid = PhaseSpaceGrid(-6.0, 6.0, -5.0, 5.0, n_q, n_p, n=n)
        rng = np.random.default_rng(6 + n)
        exponents = [e for e in np.ndindex(*(3,) * (2 * n)) if sum(e) <= 2]
        f = Observable.from_terms(n, {e: rng.uniform(-1, 1) for e in exponents})
        v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        applier = PrequantApplier(f, grid, 0.8)
        expected = reference_apply(applier, v)
        assert np.max(np.abs(applier(v) - expected)) < 1e-12 * np.max(np.abs(expected))


def test_spectral_apply_builds_no_dense_matrix(no_derivative_matrix):
    """Operators and their products on flat vectors run without a derivative matrix."""
    phase = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    line = ConfigGrid.line(-8.0, 8.0, 256)
    qp = Observable.from_terms(1, {(1, 1): 1.0})
    for op, grid in ((prequantize(qp, phase, 1.0), phase),
                     (quantize_halfform(qp, line, 1.0), line)):
        v = interior_states(grid, count=1)[0]
        assert np.all(np.isfinite(op.entries @ v))
    assert run_demo(RunConfig(demo="prequant-flat")).passed


def test_matrix_free_checks_build_no_lifted_matrix(no_derivative_matrix):
    """The phase-space Dirac and self-adjointness checks build no derivative matrix."""
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    q, p = Observable.coordinate(), Observable.momentum()
    assert check_dirac(q, p, grid, 1.0) < TOL.grid
    assert selfadjoint_residual(p, grid, 1.0) < TOL.grid


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_nan_state_fails_the_checks(panel_workers, workers):
    panel_workers(workers)
    grid = PhaseSpaceGrid(-4, 4, -4, 4, 16, 16)
    q, p = Observable.coordinate(), Observable.momentum()
    nan_state = [np.full(grid.size, np.nan)]
    assert np.isnan(check_dirac(q, p, grid, 1.0, states=nan_state))
    assert np.isnan(selfadjoint_residual(p, grid, 1.0, states=nan_state))
    # one NaN among finite states still poisons the worst value
    mixed = interior_states(grid, count=2) + nan_state
    assert np.isnan(check_dirac(q, p, grid, 1.0, states=mixed))
    assert np.isnan(selfadjoint_residual(p, grid, 1.0, states=mixed))


def test_symmetry_defect_applies_the_operator_once_per_state():
    grid = small_grid()
    applier = PrequantApplier(Observable.from_terms(1, {(1, 1): 1.0}), grid, 1.0)
    calls = []

    def counted(v):
        calls.append(1)
        return applier(v)
    states = interior_states(grid, count=4)
    worst = geoquant.grid.worst_symmetry_defect(counted, states)
    assert len(calls) == 4
    # the pairwise loop that applies the operator twice per pair gives the same bits
    reference = max(abs(np.vdot(u, applier(v)) - np.vdot(applier(u), v))
                    / (np.linalg.norm(u) * np.linalg.norm(v))
                    for i, u in enumerate(states) for v in states[i:])
    assert worst == reference


@pytest.mark.parametrize("grid, f, g", [
    (small_grid(), _QUAD_F, _QUAD_G),
    (PhaseSpaceGrid(-8, 8, -8, 8, 64, 64), _QUAD_F, _QUAD_G),
    (PhaseSpaceGrid(-6, 6, -6, 6, 12, 12, n=2), _QUAD2_F, _QUAD2_G),
    (PhaseSpaceGrid(-8, 8, -8, 8, 128, 128), _QUAD_F, _QUAD_G),
], ids=["24^2", "64^2", "n2-12^4", "128^2"])
def test_pool_and_serial_panels_give_the_same_bits(panel_workers, panel_threads, grid, f, g):
    values = {}
    for workers in (2, 1):
        panel_workers(workers)
        panel_threads.clear()
        values[workers] = (check_dirac(f, g, grid, 0.7), selfadjoint_residual(f, grid, 0.7))
        assert pooled(panel_threads) == (workers == 2)
    assert values[1] == values[2]


def test_an_error_in_one_state_comes_out_of_the_pool_with_its_type(panel_workers,
                                                                   panel_threads):
    panel_workers(2)
    states = [np.full(8, float(k)) for k in range(1, 5)]

    def residual(v):
        if v[0] == 2.0:
            raise UnsupportedObservable("state 2")
        return v
    with pytest.raises(UnsupportedObservable, match="state 2"):
        geoquant.grid.worst_residual(residual, states)
    assert pooled(panel_threads)


def test_no_panel_thread_outlives_a_pooled_check(panel_workers, panel_threads):
    """Each pooled panel shuts its pool before it returns, or before its error does."""
    panel_workers(2)
    phase = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    assert check_dirac(_QUAD_F, _QUAD_G, phase, 0.7) < TOL.grid
    assert live_panel_threads() == []
    assert selfadjoint_residual(_QUAD_F, phase, 0.7) < TOL.grid
    assert live_panel_threads() == []
    assert check_canonical_commutator(ConfigGrid.line(-8.0, 8.0, 256), 0.7) < TOL.grid
    assert live_panel_threads() == []

    def residual(v):
        if v[0] == 1.0:
            raise UnsupportedObservable("state 1")
        return v
    with pytest.raises(UnsupportedObservable, match="state 1"):
        geoquant.grid.worst_residual(residual, [np.full(8, float(k)) for k in range(1, 5)])
    assert live_panel_threads() == []
    assert pooled(panel_threads)


def test_a_panel_inside_a_pooled_panel_returns(panel_workers, panel_threads):
    """Both workers run an outer state whose residual runs its own panel.

    The inner panel opens a pool of its own, so no worker waits on the pool
    it runs on.
    """
    panel_workers(2)
    inner = [np.full(1 << 14, 2.0)] * 4
    outer = [np.full(1 << 14, 1.0)] * 4
    results = []

    def nested(v):
        return v * geoquant.grid.worst_residual(lambda u: u, inner)
    thread = threading.Thread(
        target=lambda: results.append(geoquant.grid.worst_residual(nested, outer)),
        daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert results == [1.0]
    assert pooled(panel_threads)


def test_concurrent_callers_get_the_serial_bits(panel_workers):
    """Eight threads start pooled panels at once, with a short switch interval."""
    grid = small_grid()
    panel_workers(1)
    expected = check_dirac(_QUAD_F, _QUAD_G, grid, 0.7)
    panel_workers(2)
    results = []
    start = threading.Barrier(8)

    def run():
        start.wait(timeout=60)
        results.append(check_dirac(_QUAD_F, _QUAD_G, grid, 0.7))
    threads = [threading.Thread(target=run, daemon=True) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 8


def test_one_worker_creates_no_pool(panel_workers, panel_threads):
    panel_workers(1)
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 128, 128)
    assert check_dirac(_QUAD_F, _QUAD_G, grid, 1.0) < TOL.grid
    assert selfadjoint_residual(_QUAD_F, grid, 1.0) < TOL.grid
    assert panel_threads and not pooled(panel_threads)


def test_grid_samples_are_real_for_real_polynomials():
    """Samples on broadcast axes have the bits of samples on coordinate fields."""
    for grid in (PhaseSpaceGrid(-6, 6, -3, 3, 12, 10), PhaseSpaceGrid(-6, 6, -3, 3, 8, 9, n=2),
                 ConfigGrid((-4.0, -2.0), (4.0, 2.0), (16, 18))):
        mesh = [x.reshape(-1) for x in np.meshgrid(*grid.axes(), indexing="ij")]
        ndim = len(mesh)
        real = Polynomial(ndim, {(2,) + (0,) * (ndim - 1): 0.5, (1,) * ndim: -0.3,
                                 (0,) * (ndim - 1) + (1,): 0.7})
        half_i = Polynomial(ndim, {(1,) + (0,) * (ndim - 1): 0.5j})
        samples = grid.sample([real, half_i, Polynomial.constant(ndim, 2.0),
                               Polynomial.zero(ndim)])
        assert [s.dtype for s in samples] == [np.float64, np.complex128] + [np.float64] * 2
        assert all(s.shape == (grid.size,) for s in samples)
        assert np.array_equal(samples[0], real.evaluate(*mesh))
        assert np.array_equal(samples[1], half_i.evaluate(*mesh))
        assert np.all(samples[2] == 2.0) and np.all(samples[3] == 0.0)


def test_two_states_in_flight_use_no_more_memory_than_a_serial_panel(panel_workers):
    """Four 256^2 states on two workers peak under 17 complex grid fields.

    17 MiB is the traced peak of the serial panel over complex coefficient
    fields.  Real fields, one unshared derivative at a time and freeing
    P_g v early pay for the second state in flight.
    """
    panel_workers(2)
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 256, 256)
    rng = np.random.default_rng(0)
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    f, g = (Observable.from_terms(1, {e: rng.uniform(-1, 1) for e in exps}) for _ in range(2))
    states = interior_states(grid, count=4)
    check_dirac(f, g, grid, 1.0, states=states)  # import the pool outside the trace
    tracemalloc.start()
    try:
        check_dirac(f, g, grid, 1.0, states=states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = grid.size * np.dtype(complex).itemsize
    assert peak <= 17 * field


def test_commutator_matrix_route_matches_applier_route():
    """Dual route: dense matrix algebra against operator application."""
    grid = small_grid(n_pts=16)
    hbar = 1.0
    f = Observable.from_terms(1, {(2, 0): 1.0})
    g = Observable.momentum()
    comm = commutator(prequantize(f, grid, hbar), prequantize(g, grid, hbar))
    pf, pg = PrequantApplier(f, grid, hbar), PrequantApplier(g, grid, hbar)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    assert np.max(np.abs(comm.entries @ v - (pf(pg(v)) - pg(pf(v))))) < 1e-11


def test_gram_selfadjointness_on_interior_states():
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 64, 64)
    for f in (Observable.momentum(), Observable.coordinate(),
              Observable.from_terms(1, {(2, 0): 1.0, (0, 2): 1.0})):
        assert selfadjoint_residual(f, grid, 1.0) < TOL.grid


def test_liouville_gram_weight():
    grid = small_grid()
    gram = liouville_gram(grid, hbar=2.0)
    expected = grid.h_q * grid.h_p / (2 * np.pi * 2.0)
    assert gram.diagonal()[0] == pytest.approx(expected)
    assert gram.basis_id == grid.basis_id


def test_two_degrees_of_freedom_dirac():
    grid = PhaseSpaceGrid(-6, 6, -6, 6, 32, 32, n=2)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    sigma = 0.15 * 6.0
    bump = np.ones(grid.shape)
    for x in mesh:
        bump = bump * np.exp(-(x**2) / (2 * sigma**2))
    states = [(bump / np.linalg.norm(bump)).reshape(-1).astype(complex)]
    q1 = Observable.coordinate(n=2, axis=0)
    p1 = Observable.momentum(n=2, axis=0)
    p2 = Observable.momentum(n=2, axis=1)
    res_11 = check_dirac(q1, p1, grid, 1.0, states=states)
    res_12 = check_dirac(q1, p2, grid, 1.0, states=states)
    assert res_12 < 1e-12  # independent axes commute exactly
    assert res_11 < TOL.grid


def test_spectral_convergence_of_dirac_residual():
    """32^2 -> 48^2 points shrinks the residual by 1e4 or more; 4th order gives about 5."""
    f = Observable.from_terms(1, {(2, 0): 1.0, (0, 1): 0.3})
    g = Observable.from_terms(1, {(1, 1): 1.0})
    residuals = {}
    for n_pts in (32, 48):
        grid = PhaseSpaceGrid(-8, 8, -8, 8, n_pts, n_pts)
        states = interior_states(grid, count=3, seed=12)
        residuals[n_pts] = check_dirac(f, g, grid, 1.0, states=states)
    assert residuals[48] * 1e4 <= residuals[32]


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(-8, 8, -8, 8, 4, 64)
    with pytest.raises(ValueError):
        PhaseSpaceGrid(8, -8, -8, 8, 64, 64)
    with pytest.raises(ValueError, match="unknown scheme"):
        PhaseSpaceGrid(-8, 8, -8, 8, 64, 64, scheme="fd4")
    for n, spacing in ((1, 0.5), (8, 0.0)):
        with pytest.raises(ValueError):
            derivative_matrix_1d(n, spacing)


def test_spectral_momentum_is_antisymmetric_to_roundoff():
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 32, 32)
    assert selfadjoint_residual(Observable.momentum(), grid, 1.0) < 1e-13


def test_basis_id_tells_grid_extents_apart_past_six_digits():
    near = PhaseSpaceGrid(-6.0, 6.0000001, -6.0, 6.0, 8, 8)
    with pytest.raises(BasisMismatch):
        adjoint_wrt(prequantize(Observable.coordinate(), small_grid(8), 1.0),
                    liouville_gram(near, 1.0))


@pytest.mark.parametrize("check", [
    lambda grid: check_dirac(Observable.coordinate(), Observable.momentum(), grid, 1.0, states=[]),
    lambda grid: selfadjoint_residual(Observable.momentum(), grid, 1.0, states=[])],
    ids=["check_dirac", "selfadjoint_residual"])
def test_an_empty_test_panel_is_refused(check):
    with pytest.raises(ValueError, match="the test panel is empty"):
        check(small_grid())


_QUADRATIC = Observable.from_terms(1, {(2, 0): 0.5, (1, 1): 0.3, (0, 2): 0.5})


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    lambda grid, hbar: prequantize(_QUADRATIC, grid, hbar),
    lambda grid, hbar: PrequantApplier(_QUADRATIC, grid, hbar),
    lambda grid, hbar: check_dirac(_QUADRATIC, Observable.momentum(), grid, hbar),
    lambda grid, hbar: selfadjoint_residual(_QUADRATIC, grid, hbar),
    lambda grid, hbar: liouville_gram(grid, hbar)],
    ids=["prequantize", "PrequantApplier", "check_dirac", "selfadjoint_residual",
         "liouville_gram"])
def test_a_hbar_that_is_not_positive_and_finite_is_refused(entry, hbar):
    """At hbar = 0 the Dirac residual reads exactly 0, a pass that checks nothing."""
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        entry(small_grid(16), hbar)
