"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failure) and asserts every bound at its stated
tolerance, including the wall-clock budget.

Tolerances: tol_grid = 1e-6 (grid residuals on interior test vectors),
tol_exact = 1e-10 (closed-form matrix algebra), tol_bks = 1e-3 relative
(oscillatory quadrature / extrapolation).
"""

import math
import time

import numpy as np

from geoquant import bks, fock, halfform, spin
from geoquant.grid import interior_states
from geoquant.linalg import GramMatrix, commutator, real_spectrum
from geoquant.prequant import (Observable, PhaseSpaceGrid, check_dirac,
                               cylinder_spectrum, interior_test_states,
                               prequantum_evolve, weil_admissible)

from cylinder_relabeling import lambda_blind, relabeling_residual

TOL_GRID = 1e-6
TOL_EXACT = 1e-10
TOL_BKS = 1e-3


def _verdict(index: int, name: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {index} {name}: {status}{suffix}")
    return passed


def test_criterion_1_dirac_conditions_on_flat_prequantization():
    start = time.perf_counter()
    grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 128, 128)
    states = interior_test_states(grid, count=4, seed=0)
    rng = np.random.default_rng(0)
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    worst = 0.0
    for _ in range(20):
        f = Observable.from_terms(1, {e: rng.uniform(-1, 1) for e in exps})
        g = Observable.from_terms(1, {e: rng.uniform(-1, 1) for e in exps})
        worst = max(worst, check_dirac(f, g, grid, 1.0, states=states))
    canonical = check_dirac(Observable.coordinate(), Observable.momentum(),
                            grid, 1.0, states=states)
    elapsed = time.perf_counter() - start

    ok = worst < TOL_GRID and canonical < TOL_GRID and elapsed < 30.0
    assert _verdict(1, "dirac-flat-prequantization", ok,
                    f"worst={worst:.2e} canonical={canonical:.2e} "
                    f"t={elapsed:.1f}s")


def test_criterion_2_weil_integrality_of_spin():
    start = time.perf_counter()
    cases = {0.5: True, 1.0: True, 1.5: True, 0.7: False, 1.2: False}
    verdicts_ok = True
    quad_worst = 0.0
    for s, expected in cases.items():
        result = weil_admissible(s, 1.0)
        verdicts_ok = verdicts_ok and (result.admissible == expected)
        quad_worst = max(quad_worst,
                         abs(result.integral - 4 * np.pi * s) / (4 * np.pi * s))
    elapsed = time.perf_counter() - start
    ok = verdicts_ok and quad_worst < 1e-8 and elapsed < 5.0
    assert _verdict(2, "weil-integrality", ok,
                    f"quad={quad_worst:.2e} t={elapsed:.1f}s")


def test_criterion_3_cylinder_sectors():
    start = time.perf_counter()
    k_max = 6
    exact = True
    for lam in (0.0, 0.25, 0.5):
        spec = cylinder_spectrum(lam, 1.0, k_max)
        expected = np.sort(np.arange(-k_max, k_max + 1) + lam)
        exact = exact and np.array_equal(spec, expected)
        # lambda + 1 relabels k -> k + 1 on the shared modes
        exact = exact and relabeling_residual(cylinder_spectrum, lam, k_max) < TOL_EXACT
    # negative control: a spectrum that ignores lambda is no relabeling
    control = relabeling_residual(lambda_blind, 0.25, k_max)
    elapsed = time.perf_counter() - start
    ok = exact and control > TOL_EXACT and elapsed < 1.0
    assert _verdict(3, "cylinder-sectors", ok, f"t={elapsed:.2f}s")


def test_criterion_4_fock_oscillator():
    start = time.perf_counter()
    basis = fock.FockBasis(1, 8, hbar=1.0)
    spec = real_spectrum(fock.oscillator_hamiltonian(basis),
                         fock.fock_gram(basis))
    spec_err = float(np.max(np.abs(spec - (np.arange(9) + 0.5))))

    two = fock.FockBasis(2, 4, hbar=1.0)
    vals = real_spectrum(fock.oscillator_hamiltonian(two), fock.fock_gram(two))
    mults = [int(np.sum(np.isclose(vals, k + 1.0, atol=1e-12)))
             for k in range(5)]

    below = basis.below_top_mask()
    up = fock.op_raise(basis)
    ladder = commutator(fock.oscillator_hamiltonian(basis), up).entries \
        - 1.0 * up.entries
    ladder_err = float(np.linalg.norm(ladder * below))
    elapsed = time.perf_counter() - start

    ok = (spec_err < TOL_EXACT and mults == [1, 2, 3, 4, 5]
          and ladder_err < TOL_EXACT and elapsed < 1.0)
    assert _verdict(4, "fock-oscillator", ok,
                    f"spec={spec_err:.1e} mults={mults} ladder={ladder_err:.1e} "
                    f"t={elapsed:.2f}s")


def test_criterion_5_spin_representation():
    start = time.perf_counter()
    ok = True
    details = []
    for n in range(1, 7):
        basis = spin.SpinBasis(n, hbar=1.0)
        ok = ok and basis.dim == n + 1
        rep = spin.check_su2(basis)
        expected = (n / 2) * (n / 2 + 1)
        ok = ok and rep.casimir_residual < TOL_EXACT
        ok = ok and abs(rep.casimir_scalar.real - expected) < TOL_EXACT * max(1, expected)
        j3 = real_spectrum(spin.spin_operators(basis)["J3"],
                           spin.spin_gram(basis))
        ok = ok and np.max(np.abs(j3 - (np.arange(n + 1) - n / 2))) < TOL_EXACT
        closed = spin.spin_gram(basis).diagonal().real
        quad = spin.spin_gram_quadrature(basis).diagonal().real
        gram_err = float(np.max(np.abs(quad - closed) / closed))
        ok = ok and gram_err < 1e-8
        details.append(f"n={n}:gram={gram_err:.0e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert _verdict(5, "spin-representation", ok,
                    f"{' '.join(details[-1:])} t={elapsed:.1f}s")


def test_criterion_6_canonical_halfform_operators():
    start = time.perf_counter()
    grid = halfform.ConfigGrid.line(-8.0, 8.0, 256)
    states = interior_states(grid, count=4, seed=0)
    comm = halfform.check_canonical_commutator(grid, 1.0, states=states)

    panel = {
        "q": Observable.coordinate(),
        "p": Observable.momentum(),
        "qp": Observable.from_terms(1, {(1, 1): 1}),
    }
    sym = max(halfform.check_selfadjoint(f, grid, 1.0, states=states)
              for f in panel.values())
    control = halfform.check_selfadjoint(panel["qp"], grid, 1.0, states=states,
                                         include_divergence_term=False)
    elapsed = time.perf_counter() - start
    ok = (comm < TOL_GRID and sym < TOL_GRID and control > 0.4
          and elapsed < 10.0)
    assert _verdict(6, "canonical-halfform", ok,
                    f"comm={comm:.2e} sym={sym:.2e} control={control:.2f} "
                    f"t={elapsed:.1f}s")


def test_criterion_7_fourier_projection():
    start = time.perf_counter()
    grid = halfform.ConfigGrid.line(-14.0, 14.0, 384)
    x = grid.axis(0)
    phi = bks.PolarizedState(np.exp(-x**2 / 2.0), grid, "momentum")
    psi = bks.fourier_project(phi)
    gauss_err = float(np.sqrt(np.sum(np.abs(psi.samples - np.exp(-x**2 / 2.0)) ** 2)
                              * grid.cell_volume))

    rng = np.random.default_rng(7)
    parseval = 0.0
    for _ in range(5):
        parts = [np.exp(-(x - rng.uniform(-2, 2)) ** 2
                        / (2 * rng.uniform(0.8, 1.5) ** 2)
                        + 1j * rng.uniform(-2, 2) * x) for _ in range(3)]
        state = bks.PolarizedState(sum(parts), grid, "momentum").normalized()
        parseval = max(parseval, abs(bks.fourier_project(state).norm() - 1.0))
    elapsed = time.perf_counter() - start
    ok = gauss_err < 1e-6 and parseval < 1e-8 and elapsed < 5.0
    assert _verdict(7, "fourier-projection", ok,
                    f"gauss={gauss_err:.1e} parseval={parseval:.1e} "
                    f"t={elapsed:.1f}s")


def test_criterion_8_schrodinger_recovery():
    start = time.perf_counter()
    grid = halfform.ConfigGrid.line(-16.0, 16.0, 512)
    psi0 = bks.gaussian_state(grid, width=1.0, hbar=1.0, mass=1.0)
    fit = bks.schrodinger_residual(psi0, [0.32, 0.16, 0.08, 0.04, 0.02])
    mod_err = abs(abs(fit.c_fit) - 0.5) / 0.5
    arg_err = abs(float(np.angle(fit.c_fit)) + np.pi / 4.0)

    wave_grid = halfform.ConfigGrid.line(-40.0, 40.0, 640)
    rates = {}
    for k in (1, 2, 3):
        state = bks.windowed_plane_wave(wave_grid, k=k, flat_halfwidth=20.0,
                                        taper_width=16.0)
        rates[k] = abs(bks.state_projected_rate(state, [0.32, 0.16, 0.08, 0.04]))
    k_dev = max(abs(rates[k] / rates[1] / k**2 - 1.0) for k in (2, 3))
    elapsed = time.perf_counter() - start

    ok = (fit.ok and mod_err < TOL_BKS and arg_err < 1e-2 and k_dev < 1e-2
          and elapsed < 60.0)
    assert _verdict(8, "schrodinger-recovery", ok,
                    f"|c|err={mod_err:.1e} arg_err={arg_err:.1e} "
                    f"k2_dev={k_dev:.1e} t={elapsed:.1f}s")


def test_criterion_9_prequantum_unitarity():
    start = time.perf_counter()
    grid = PhaseSpaceGrid(-32.0, 32.0, -32.0, 32.0, 512, 512)
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    # state supported well inside the inner 40 percent of the grid
    psi = np.exp(-(q**2 + p**2) / (2 * 2.0**2)).astype(complex)
    assert 4 * 2.0 < 0.4 * 32.0
    free = Observable.from_terms(1, {(0, 2): 0.5})
    n0 = np.linalg.norm(psi)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        out = prequantum_evolve(free, psi, t, 1, grid, 1.0)
        drift = abs(np.linalg.norm(out) - n0) / n0
        worst = max(worst, drift / max(t, 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < TOL_GRID and elapsed < 10.0
    assert _verdict(9, "prequantum-unitarity", ok,
                    f"drift_per_unit_time={worst:.2e} t={elapsed:.1f}s")


def test_acceptance_dimensions_footnote():
    # spot checks used throughout the criteria
    assert fock.FockBasis(2, 4).dim == math.comb(6, 2)
    assert spin.SpinBasis(6).dim == 7
    assert GramMatrix.identity(3, "b").dim == 3
