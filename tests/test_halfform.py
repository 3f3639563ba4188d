import time

import numpy as np
import pytest
from spectral_oracle import periodic_derivative_matrix, reference_apply

from geoquant.bks import gaussian_state, schrodinger_residual
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.demos import RunConfig, run_demo
from geoquant.errors import BasisMismatch, PolarizationViolation, UnsupportedObservable
from geoquant.grid import diagonal_gram, interior_states
from geoquant.linalg import adjoint_wrt
from geoquant.halfform import (ConfigGrid, _halfform_operator, check_canonical_commutator,
                               check_selfadjoint, quantize_halfform)
from geoquant.prequant import Observable, PhaseSpaceGrid, PrequantApplier, poisson_bracket

TOL = DEFAULT_TOLERANCES


def line(count=64, extent=6.0):
    return ConfigGrid.line(-extent, extent, count)


def gradient(grid):
    """Closed-form spectral d/dq on a line grid."""
    return periodic_derivative_matrix(grid.counts[0], grid.maxs[0] - grid.mins[0])


def obs(n, terms):
    return Observable.from_terms(n, terms)


Q, P = Observable.coordinate(), Observable.momentum()
QP = obs(1, {(1, 1): 1.0})  # the dilation generator: v = q, div v = 1


def test_pure_position_observable_is_multiplication():
    grid = line()
    op = quantize_halfform(Q, grid, 1.0)
    assert np.allclose(op.dense(), np.diag(grid.axis(0)))


def test_momentum_is_scaled_gradient():
    grid = line()
    op = quantize_halfform(P, grid, hbar=0.7)
    d = gradient(grid)
    assert np.allclose(op.dense(), -0.7j * d)


def test_dilation_gets_half_divergence():
    # f = q p: v = q, div v = 1, operator -i hbar (q d/dq + 1/2)
    grid = line()
    op = quantize_halfform(QP, grid, 1.0)
    d = gradient(grid)
    expected = -1j * (np.diag(grid.axis(0)) @ d + 0.5 * np.eye(grid.size))
    assert np.allclose(op.dense(), expected)


def test_quantization_is_linear_in_f():
    grid = line()
    rng = np.random.default_rng(0)
    f1 = obs(1, {(2, 0): 0.5, (1, 1): -1.0})
    f2 = obs(1, {(1, 0): 2.0, (0, 1): 0.3})
    a, b = rng.uniform(-2, 2, size=2)
    combo = Observable(1, a * f1.poly + b * f2.poly)
    lhs = quantize_halfform(combo, grid, 1.0).dense()
    rhs = a * quantize_halfform(f1, grid, 1.0).dense() \
        + b * quantize_halfform(f2, grid, 1.0).dense()
    assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_assembled_matrix_matches_matrix_free_apply(n):
    """quantize_halfform's entries agree with its terms assembled on the closed-form derivative."""
    if n == 1:
        grid = line(count=64)
        f = obs(1, {(2, 0): 0.5, (0, 1): 1.0, (1, 1): -0.7})
    else:
        grid = ConfigGrid((-5.0, -4.0), (5.0, 4.0), (24, 20))
        f = obs(2, {(1, 1, 0, 0): 0.3, (0, 1, 1, 0): 1.0,
                    (2, 0, 0, 1): -0.4, (0, 0, 0, 1): 1.0})
    entries = quantize_halfform(f, grid, 0.8).entries
    for v in interior_states(grid, count=3, seed=4):
        expected = reference_apply(entries, v)
        assert np.max(np.abs(entries @ v - expected)) < 1e-12 * np.max(np.abs(expected))


def test_grid_checks_assemble_no_operator(no_derivative_matrix):
    """Half-form checks, the BKS fit and the canonical demo build no derivative matrix."""
    grid = line(count=256, extent=8.0)
    assert check_canonical_commutator(grid, 1.0) < TOL.grid
    assert check_selfadjoint(QP, grid, 1.0) < TOL.grid
    fit = schrodinger_residual(gaussian_state(ConfigGrid.line(-16.0, 16.0, 512), width=1.0),
                               [0.32, 0.16, 0.08, 0.04, 0.02])
    assert fit.extrapolation_spread <= TOL.bks and fit.residual <= 10 * TOL.bks
    assert run_demo(RunConfig(demo="canonical")).passed


def test_two_dimensional_checks_at_128_squared():
    """A 128^2 spectral grid: a dense operator here would take 4.3 GB."""
    grid = ConfigGrid((-8.0, -8.0), (8.0, 8.0), (128, 128))
    start = time.perf_counter()
    for a in range(2):
        for b in range(2):
            assert check_canonical_commutator(grid, 1.0, a=a, b=b) < TOL.grid
    f = obs(2, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0})
    assert check_selfadjoint(f, grid, 1.0) < TOL.grid
    assert check_selfadjoint(f, grid, 1.0, include_divergence_term=False) > 0.4
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("grid", [
    line(),
    line(count=256, extent=8.0),
    ConfigGrid((-4.0, -4.0), (4.0, 4.0), (24, 24)),
    ConfigGrid((-8.0, -8.0), (8.0, 8.0), (128, 128)),
], ids=["64", "256", "24^2", "128^2"])
def test_pool_and_serial_panels_give_the_same_bits(panel_workers, grid):
    f = QP if grid.n == 1 else obs(2, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 0.5, (2, 0, 0, 0): 0.3})
    values = {}
    for workers in (2, 1):
        panel_workers(workers)
        values[workers] = (
            [check_canonical_commutator(grid, 0.7, a=a, b=b)
             for a in range(grid.n) for b in range(grid.n)],
            check_selfadjoint(f, grid, 0.7),
            check_selfadjoint(f, grid, 0.7, include_divergence_term=False))
    assert values[1] == values[2]


def test_canonical_commutator_spectral():
    grid = line(count=256, extent=8.0)
    assert check_canonical_commutator(grid, 1.0) < TOL.grid


def test_config_states_vanish_at_the_box_edge():
    grid = line(count=256, extent=8.0)
    for seed in range(8):
        for v in interior_states(grid, count=16, seed=seed):
            s = np.abs(v)
            assert max(s[0], s[-1]) <= 1e-15 * s.max()
    assert check_canonical_commutator(grid, 1.0,
                                      states=interior_states(grid, seed=0)) < 1e-13


def test_commutator_of_coordinates_vanishes_exactly():
    grid = line(count=32)
    qa = quantize_halfform(Q, grid, 1.0).dense()
    qb = quantize_halfform(obs(1, {(2, 0): 1.0}), grid, 1.0).dense()
    assert not np.any(qa @ qb - qb @ qa)


def test_cross_axis_commutator_vanishes():
    grid = ConfigGrid((-4.0, -4.0), (4.0, 4.0), (24, 24))
    assert check_canonical_commutator(grid, 1.0, a=0, b=1) < 1e-12


def test_multiplication_selfadjoint_to_machine():
    assert check_selfadjoint(Q, line(), 1.0) < 1e-14


def test_momentum_selfadjoint_on_spectral_grid():
    # the spectral symbol i*k is odd (its Nyquist entry is zero), so d/dq is
    # antisymmetric and -i*hbar*d/dq is symmetric to roundoff
    assert check_selfadjoint(P, line(count=64), 1.0) < 1e-13


def test_dilation_selfadjoint_with_divergence_term():
    grid = line(count=256, extent=8.0)
    assert check_selfadjoint(QP, grid, 1.0) < TOL.grid


def test_negative_control_breaks_symmetry_at_order_hbar():
    """Dropping the divergence term leaves an O(hbar) defect.

    Integration by parts gives <u, q v'> + <q u', v> = -<u, v> on interior
    supports, so the panel pair u = v pins the defect at hbar exactly.
    """
    grid = line(count=256, extent=8.0)
    for hbar in (1.0, 0.5):
        control = check_selfadjoint(QP, grid, hbar,
                                    include_divergence_term=False)
        assert control > 0.4 * hbar
        assert control == pytest.approx(hbar, rel=1e-6)


def test_reject_quadratic_momentum():
    for terms in ({(0, 2): 1.0}, {(1, 2): 0.5, (0, 1): 1.0}):
        f = obs(1, terms)
        with pytest.raises(PolarizationViolation, match="geoquant.bks"):
            quantize_halfform(f, line(), 1.0)
        with pytest.raises(PolarizationViolation):
            check_selfadjoint(f, line(), 1.0)


def test_observable_and_grid_dimensions_must_match():
    """An n = 2 observable on a line grid is a reported failure, not a crash."""
    f = Observable.momentum(n=2, axis=0)
    with pytest.raises(UnsupportedObservable, match="n=2 but grid has n=1"):
        quantize_halfform(f, line(), 1.0)
    with pytest.raises(UnsupportedObservable):
        check_selfadjoint(f, line(), 1.0)


def test_accept_cubic_position():
    grid = line()
    op = quantize_halfform(obs(1, {(3, 0): 1.0}), grid, 1.0)
    assert np.allclose(op.dense(), np.diag(grid.axis(0) ** 3))


def test_accept_linear_combination():
    grid = line()
    op = quantize_halfform(obs(1, {(1, 0): 1.0, (0, 1): 3.0}), grid, 0.7)
    d = gradient(grid)
    assert np.allclose(op.dense(), np.diag(grid.axis(0)) - 3.0 * 0.7j * d)


def test_linear_in_p_closed_under_bracket_and_dirac():
    """The class is bracket-closed; the quantized bracket matches."""
    grid = line(count=192, extent=8.0)
    hbar = 1.0
    rng = np.random.default_rng(3)
    states = interior_states(grid, count=3, seed=9)
    for _ in range(4):
        f_obs = obs(1, {(1, 0): rng.uniform(-1, 1), (2, 0): rng.uniform(-1, 1),
                        (0, 1): rng.uniform(-1, 1), (1, 1): rng.uniform(-1, 1)})
        g_obs = obs(1, {(1, 0): rng.uniform(-1, 1), (0, 1): rng.uniform(-1, 1),
                        (1, 1): rng.uniform(-1, 1)})
        bracket = poisson_bracket(f_obs, g_obs)
        assert max(e[1] for e in bracket.poly.coeffs) <= 1  # symbolic closure
        op_f = quantize_halfform(f_obs, grid, hbar).entries
        op_g = quantize_halfform(g_obs, grid, hbar).entries
        op_br = quantize_halfform(bracket, grid, hbar).entries
        for v in states:
            r = op_f @ (op_g @ v) - op_g @ (op_f @ v) + 1j * hbar * (op_br @ v)
            assert np.linalg.norm(r) / np.linalg.norm(v) < TOL.grid


def test_spectral_convergence_of_selfadjointness():
    """32 -> 48 points shrinks the defect by 1e4 or more; 4th order gives about 5."""
    residuals = {}
    for count in (32, 48):
        grid = line(count=count, extent=8.0)
        states = interior_states(grid, count=3, seed=2)
        residuals[count] = check_selfadjoint(QP, grid, 1.0, states=states)
    assert residuals[48] * 1e4 <= residuals[32]


def divergence_term(f, grid, hbar=1.0):
    """Diagonal that the half-form correction adds to Q_f.

    The assembled matrices differ on the diagonal alone.  The returned term
    is read from the operators' scalar fields: the dense spectral derivative
    has a diagonal of round-off size, which the assembled diagonal adds in.
    """
    with_div = quantize_halfform(f, grid, hbar).dense()
    without = _halfform_operator(f, grid, hbar, include_divergence_term=False).toarray()
    diff = with_div - without
    assert not np.any(diff - np.diag(np.diag(diff)))
    term = (_halfform_operator(f, grid, hbar).scalar
            - _halfform_operator(f, grid, hbar, include_divergence_term=False).scalar)
    assert np.allclose(np.diag(diff), term, rtol=0, atol=1e-15)
    return term


def test_divergence_term_is_analytic():
    # f = 1.5 q^2 p: v = 1.5 q^2, div v = 3 q, taken exactly from the polynomial
    grid = line()
    term = divergence_term(obs(1, {(2, 1): 1.5}), grid, hbar=0.6)
    assert np.allclose(term, -0.5j * 0.6 * 3.0 * grid.axis(0), rtol=0, atol=1e-15)


def test_divergence_term_depends_on_v_only():
    """u enters Q_f as multiplication only; the correction is -(i hbar/2) div v."""
    grid = line()
    term = divergence_term(obs(1, {(3, 0): 0.4, (1, 0): -1.0, (1, 1): 1.0}), grid)
    assert np.array_equal(term, divergence_term(QP, grid))
    assert np.array_equal(term, np.full(grid.size, -0.5j))


@pytest.mark.parametrize("n, n_q", [(1, 48), (2, 16)])
def test_halfform_operator_is_prequantum_operator_on_polarized_sections(n, n_q):
    """P_f on psi(q) x 1 is Q_f without its divergence term, on every p-slice.

    Random f = u(q) + v(q).p on spectral grids with matching q axes: the
    i*hbar df/dq d/dp terms of P_f see a constant in p and the scalar
    f - p.df/dp is u, so the two operators agree to round-off, and Q_f adds
    exactly -(i hbar/2) (div v) psi.
    """
    rng = np.random.default_rng(n)
    hbar = 0.8
    config = ConfigGrid((-6.0,) * n, (6.0,) * n, (n_q,) * n)
    phase = PhaseSpaceGrid(-6.0, 6.0, -3.0, 3.0, n_q, 8, n=n)
    terms = {}
    for a in range(n + 1):  # a = n is u, a < n is v_a
        for q_expo in np.ndindex(*(3,) * n):
            if sum(q_expo) <= 2:
                p_expo = tuple(int(b == a) for b in range(n))
                terms[(*q_expo, *p_expo)] = rng.uniform(-1.0, 1.0)
    f = obs(n, terms)
    applier = PrequantApplier(f, phase, hbar)
    q_f = _halfform_operator(f, config, hbar)
    q_bare = _halfform_operator(f, config, hbar, include_divergence_term=False)
    div_v = sum(f.poly.differentiate(n + a).differentiate(a) for a in range(n))
    mesh = [x.reshape(-1) for x in np.meshgrid(*config.axes(), indexing="ij")]
    div_v = div_v.evaluate(*mesh, *(np.zeros(config.size),) * n)
    for psi in interior_states(config, count=2, seed=3):
        lifted = np.broadcast_to(psi.reshape(config.shape + (1,) * n), phase.shape)
        image = applier(lifted)
        bare = q_bare.apply(psi).reshape(config.shape + (1,) * n)
        assert np.max(np.abs(image - bare)) < 1e-12 * np.max(np.abs(bare))
        assert np.allclose(q_f.apply(psi) - q_bare.apply(psi), -0.5j * hbar * div_v * psi,
                           rtol=0, atol=1e-13)


def test_axis_out_of_range_raises():
    grid = ConfigGrid((-4.0, -4.0), (4.0, 4.0), (24, 24))
    for a, b in [(grid.n, 0), (0, grid.n), (-1, 0)]:
        with pytest.raises(ValueError, match="out of range"):
            check_canonical_commutator(grid, 1.0, a=a, b=b)
    with pytest.raises(ValueError, match="out of range"):
        check_canonical_commutator(line(), 1.0, a=1)


def test_grid_validation():
    with pytest.raises(ValueError):
        ConfigGrid.line(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        ConfigGrid((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (32, 32, 32))
    with pytest.raises(ValueError):
        ConfigGrid((-np.inf,), (1.0,), (32,))


def test_basis_id_tells_grid_extents_apart_past_six_digits():
    other = ConfigGrid.line(-8.0, 8.0000001, 16)
    with pytest.raises(BasisMismatch):
        adjoint_wrt(quantize_halfform(Observable.coordinate(), ConfigGrid.line(-8.0, 8.0, 16), 1.0),
                    diagonal_gram(other, other.cell_volume))


@pytest.mark.parametrize("check", [
    lambda grid: check_canonical_commutator(grid, 1.0, states=[]),
    lambda grid: check_selfadjoint(Observable.momentum(), grid, 1.0, states=[])],
    ids=["check_canonical_commutator", "check_selfadjoint"])
def test_an_empty_test_panel_is_refused(check):
    with pytest.raises(ValueError, match="the test panel is empty"):
        check(line())


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    lambda grid, hbar: quantize_halfform(Q, grid, hbar),
    lambda grid, hbar: check_canonical_commutator(grid, hbar),
    lambda grid, hbar: check_selfadjoint(QP, grid, hbar)],
    ids=["quantize_halfform", "check_canonical_commutator", "check_selfadjoint"])
def test_a_hbar_that_is_not_positive_and_finite_is_refused(entry, hbar):
    """At hbar = 0 the canonical commutator residual reads exactly 0."""
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        entry(line(16), hbar)
