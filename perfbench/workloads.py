"""Seeded verification workloads for the geoquant benchmark.

Each workload turns ``(seed, index)`` into the inputs of one task and runs the
task through geoquant's public API.  A task returns a list of
:class:`Verification` records: one measured value compared against its
tolerance from :class:`geoquant.config.Tolerances`, or the report's own
``Check.passed`` for demo runs.  A :class:`~geoquant.errors.GeoquantError`
raised by a call is recorded as one failed verification named after the
error type.

The library is always called through module attributes (``gridops.check_dirac``
rather than a name imported by value), so the tracer's rebinding of those
attributes reaches every call made here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from geoquant import bks, demos, fock, halfform, linalg, reporting
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.errors import GeoquantError
from geoquant.prequant import evolution, gridops
from geoquant.prequant.observables import Observable, poisson_bracket

TOL = DEFAULT_TOLERANCES

#: (step, check) pairs known to fail in the library.  They are counted
#: in the failure ratio like any other failure; they only keep the run's
#: ``correct`` verdict true.  Any failure outside this set makes it false.
KNOWN_FAILURES = frozenset({
    # quadrature Gram off by 3.7e-7 and 1.2e-6 against 1e-8
    ("spin n=28", "gram-quadrature"),
    ("spin n=32", "gram-quadrature"),
    # entries near 6e-16 fall under the quadrature Gram's 1e-14 zeroing
    ("spin n=48", "DegenerateGram"),
    # the demo compares spectra rounded to 12 decimals; for about 0.7% of
    # lambda values (k + lambda + 1) * hbar and (k + lambda) * hbar + hbar
    # round apart, e.g. 129.2181794875715 against 129.21817948757152
    ("cylinder", "sector-relabeling"),
})


@dataclass(frozen=True)
class Verification:
    """One value compared against its tolerance."""

    step: str
    check: str
    value: float
    tol: float
    passed: bool
    exceed: bool = False  # negative control: the value must exceed ``tol``
    error: str = ""       # message of the GeoquantError the call raised

    @property
    def margin(self) -> float | None:
        """Decades between a passing value and its tolerance; None otherwise."""
        if not self.passed or self.error or self.value == 0.0:
            return None
        ratio = self.value / self.tol if self.exceed else self.tol / self.value
        return math.log10(ratio)

    def key(self) -> tuple:
        """Exact identity of the outcome, with NaN made comparable."""
        value = "nan" if math.isnan(self.value) else self.value
        return (self.step, self.check, value, self.tol, self.passed, self.error)


class TaskLog:
    """Collects the verifications of one task."""

    def __init__(self):
        self.verifications: list[Verification] = []

    def below(self, step: str, check: str, value: float, tol: float):
        value = float(value)
        self.verifications.append(Verification(step, check, value, tol, value <= tol))

    def report(self, step: str, report) -> None:
        for c in report.checks:
            self.verifications.append(Verification(
                step, c.name, c.value, c.tol, c.passed,
                exceed=c.passed and c.value > c.tol))

    @contextmanager
    def guard(self, step: str):
        """Record a GeoquantError raised inside the block as one failure."""
        try:
            yield
        except GeoquantError as exc:
            self.verifications.append(Verification(
                step, type(exc).__name__, math.nan, math.nan, False,
                error=str(exc)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, int], dict]
    run: Callable[[dict], list]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_quadratic(rng: np.random.Generator) -> Observable:
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return Observable.from_terms(1, {e: rng.uniform(-1.0, 1.0) for e in exps})


# -- phase-grid ---------------------------------------------------------------

DIRAC_GRID = gridops.PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 256, 256, scheme="spectral")
FLOW_GRID = gridops.PhaseSpaceGrid(-16.0, 16.0, -16.0, 16.0, 256, 256)


def _phase_grid_inputs(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    f, g = _random_quadratic(rng), _random_quadratic(rng)
    states = gridops.interior_test_states(DIRAC_GRID, count=4,
                                          seed=int(rng.integers(2**31)))
    q0, p0 = rng.uniform(-2.0, 2.0, size=2)
    sigma = rng.uniform(1.6, 2.0)
    qm, pm = np.meshgrid(FLOW_GRID.q_axis, FLOW_GRID.p_axis, indexing="ij")
    psi = np.exp(-((qm - q0) ** 2 + (pm - p0) ** 2) / (2.0 * sigma**2)).astype(complex)
    shift_q, shift_p = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
    flows = [
        ("evolve c*p", Observable.from_terms(1, {(0, 1): shift_q})),
        ("evolve c*q", Observable.from_terms(1, {(1, 0): shift_p})),
        ("evolve p^2/2", Observable.from_terms(1, {(0, 2): 0.5})),
        ("evolve (q^2+p^2)/2", Observable.from_terms(1, {(2, 0): 0.5, (0, 2): 0.5})),
    ]
    return {"f": f, "g": g, "states": states, "psi": psi, "flows": flows, "hbar": 1.0}


def _phase_grid_run(inp: dict) -> list[Verification]:
    log = TaskLog()
    hbar = inp["hbar"]
    with log.guard("dirac"):
        log.below("dirac", "dirac-residual",
                  gridops.check_dirac(inp["f"], inp["g"], DIRAC_GRID, hbar,
                                      states=inp["states"]), TOL.grid)
    with log.guard("selfadjoint"):
        log.below("selfadjoint", "gram-symmetry",
                  gridops.selfadjoint_residual(inp["f"], DIRAC_GRID, hbar,
                                               states=inp["states"]), TOL.grid)
    psi = inp["psi"]
    n0 = np.linalg.norm(psi)
    for step, obs in inp["flows"]:
        with log.guard(step):
            out = evolution.prequantum_evolve(obs, psi, 1.0, 1, FLOW_GRID, hbar)
            log.below(step, "norm-drift", abs(np.linalg.norm(out) - n0) / n0, TOL.grid)
    return log.verifications


# -- bks-pairing --------------------------------------------------------------

LINE_GRID = halfform.ConfigGrid.line(-16.0, 16.0, 512)
WAVE_GRID = halfform.ConfigGrid.line(-40.0, 40.0, 640)
MOMENTUM_GRID = halfform.ConfigGrid.line(-32.0, 32.0, 1024)
SCHRODINGER_TIMES = (0.32, 0.16, 0.08, 0.04, 0.02)
RATE_TIMES = (0.32, 0.16, 0.08, 0.04)
#: criterion 8's bound on the phase of c and on the k^2 rate ratios (1e-2)
BKS_LOOSE = 10.0 * TOL.bks


def _bks_inputs(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    psi0 = bks.gaussian_state(LINE_GRID, center=rng.uniform(-1.5, 1.5),
                              width=rng.uniform(0.8, 1.3),
                              wavenumber=rng.uniform(-1.0, 1.0))
    wave_center = rng.uniform(-2.0, 2.0)
    waves = {k: bks.windowed_plane_wave(WAVE_GRID, k=k, flat_halfwidth=20.0,
                                        taper_width=16.0, center=wave_center)
             for k in (1, 2, 3)}
    comps = [bks.gaussian_state(MOMENTUM_GRID, center=rng.uniform(-2.0, 2.0),
                                width=rng.uniform(0.8, 1.6),
                                wavenumber=rng.uniform(-2.0, 2.0),
                                polarization="momentum", normalize=False).samples
             for _ in range(3)]
    phi = bks.PolarizedState(sum(comps), MOMENTUM_GRID, "momentum").normalized()
    return {"psi0": psi0, "waves": waves, "phi": phi}


def _bks_run(inp: dict) -> list[Verification]:
    log = TaskLog()
    psi0 = inp["psi0"]
    with log.guard("schrodinger"):
        fit = bks.schrodinger_residual(psi0, list(SCHRODINGER_TIMES))
        expected = psi0.hbar**2 / (2.0 * psi0.mass)
        log.below("schrodinger", "modulus", abs(abs(fit.c_fit) - expected) / expected,
                  TOL.bks)
        log.below("schrodinger", "phase",
                  abs(float(np.angle(fit.c_fit)) + np.pi / 4.0), BKS_LOOSE)
        log.below("schrodinger", "richardson-spread", fit.extrapolation_spread, TOL.bks)
        log.below("schrodinger", "fit-residual", fit.residual, 10.0 * TOL.bks)
    with log.guard("plane-wave rates"):
        rates = {k: abs(bks.state_projected_rate(wave, list(RATE_TIMES)))
                 for k, wave in inp["waves"].items()}
        log.below("plane-wave rates", "k2-ratio",
                  max(abs(rates[k] / rates[1] / k**2 - 1.0) for k in (2, 3)),
                  BKS_LOOSE)
    phi = inp["phi"]
    with log.guard("fourier"):
        projected = bks.fourier_project(phi)
        back = bks.fourier_project_back(projected)
        log.below("fourier", "parseval", abs(projected.norm() - phi.norm()),
                  TOL.quadrature_match)
        roundtrip = np.sqrt(np.sum(np.abs(back.samples - phi.samples) ** 2)
                            * MOMENTUM_GRID.cell_volume)
        log.below("fourier", "round-trip", roundtrip, TOL.quadrature_match)
    return log.verifications


# -- matrix-models ------------------------------------------------------------

HBARS = (0.5, 1.0, 2.0)
SPIN_SECTORS = (4, 8, 16, 24, 28, 32, 40, 48)
ASSEMBLY_GRID = gridops.PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 32, 32, scheme="spectral")


def _matrix_models_inputs(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    hbar = HBARS[index % len(HBARS)]
    demo_seed = int(rng.integers(2**31))

    def cfg(demo: str, **kw) -> demos.RunConfig:
        return demos.RunConfig(demo=demo, hbar=hbar, seed=demo_seed, **kw)

    runs = [("fock D=40", cfg("fock", degree=40))]
    runs += [(f"spin n={n}", cfg("spin", n_sector=n)) for n in SPIN_SECTORS]
    runs += [("weil-sphere", cfg("weil-sphere")),
             ("cylinder", cfg("cylinder", k_max=64, lam=float(rng.uniform(0.0, 1.0)))),
             ("canonical", cfg("canonical", grid_points=512))]
    qm, pm = np.meshgrid(ASSEMBLY_GRID.q_axis, ASSEMBLY_GRID.p_axis, indexing="ij")
    states = []
    for _ in range(2):
        # widths of 2.2-2.4 cells keep both aliasing and the periodic wrap
        # of the spectral derivative below 1e-6 on this coarse grid
        q0, p0 = rng.uniform(-0.5, 0.5, size=2)
        sigma = rng.uniform(1.1, 1.2)
        k = rng.uniform(-0.5, 0.5)
        states.append((np.exp(-((qm - q0) ** 2 + (pm - p0) ** 2) / (2.0 * sigma**2)
                              + 1j * k * qm)).reshape(-1))
    return {"hbar": hbar, "runs": runs, "f": _random_quadratic(rng), "states": states}


def _matrix_models_run(inp: dict) -> list[Verification]:
    log = TaskLog()
    hbar = inp["hbar"]
    for step, cfg in inp["runs"]:
        with log.guard(step):
            report = demos.run_demo(cfg)
            reporting.render_report(report)
            log.report(step, report)

    step = "fock n=2 D=24"
    with log.guard(step):
        basis = fock.FockBasis(2, 24, hbar)
        spec = linalg.real_spectrum(fock.oscillator_hamiltonian(basis),
                                    fock.fock_gram(basis))
        expected = np.sort([hbar * (sum(m) + 1.0) for m in basis.indices])
        log.below(step, "oscillator-spectrum", np.max(np.abs(spec - expected)),
                  TOL.exact)

    step = "prequantize 32x32"
    with log.guard(step):
        q, p = Observable.coordinate(), Observable.momentum()
        pq = gridops.prequantize(q, ASSEMBLY_GRID, hbar).entries
        pp = gridops.prequantize(p, ASSEMBLY_GRID, hbar).entries
        pqp = gridops.prequantize(poisson_bracket(q, p), ASSEMBLY_GRID, hbar).entries
        pf = gridops.prequantize(inp["f"], ASSEMBLY_GRID, hbar).entries
        gram = gridops.liouville_gram(ASSEMBLY_GRID, hbar)
        u, v = inp["states"]
        residual = pq @ (pp @ v) - pp @ (pq @ v) + 1j * hbar * (pqp @ v)
        log.below(step, "canonical-pair", np.linalg.norm(residual) / np.linalg.norm(v),
                  TOL.grid)
        defect = linalg.gram_inner(u, pf @ v, gram) - linalg.gram_inner(pf @ u, v, gram)
        log.below(step, "gram-symmetry",
                  abs(defect) / (linalg.gram_norm(u, gram) * linalg.gram_norm(v, gram)),
                  TOL.grid)
    return log.verifications


WORKLOADS = {
    "phase-grid": Workload(
        "phase-grid",
        "matrix-free derivative apply and spline pullback on 256x256 phase grids; "
        "no pairing, no eigensolve",
        _phase_grid_inputs, _phase_grid_run),
    "bks-pairing": Workload(
        "bks-pairing",
        "oscillatory BKS pairing and dense Fourier kernels on 1D grids; "
        "no phase grid, no eigensolve",
        _bks_inputs, _bks_run),
    "matrix-models": Workload(
        "matrix-models",
        "assembled sparse and dense operators, Gram validation, eigensolves, "
        "quadratures, demos and reports",
        _matrix_models_inputs, _matrix_models_run),
}
