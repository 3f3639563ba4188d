"""End-to-end demo runs behind the command line interface.

Each demo builds its operators, evaluates the quantitative checks with the
central tolerances, and returns a :class:`~geoquant.reporting.QuantReport`.
Randomness is seeded from the configuration, so identical configurations
produce byte-identical report bodies.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import bks, fock, halfform, spin
from .config import DEFAULT_TOLERANCES
from .errors import ConfigError
from .grid import interior_states
from .linalg import GramMatrix, adjoint_wrt, commutator, real_spectrum
from .prequant import (Observable, PhaseSpaceGrid, check_dirac, cylinder_momentum_operator,
                       cylinder_spectrum, prequantum_evolve, selfadjoint_residual,
                       weil_admissible)
from .reporting import QuantReport

__all__ = ["RunConfig", "run_demo", "DEMOS"]


def _is(value, kind) -> bool:
    """``value`` is a ``kind`` (``numbers.Integral`` or ``numbers.Real``), not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _positive_reals(values) -> bool:
    """``values`` is a list or tuple of finite positive reals, bools excluded."""
    return isinstance(values, (list, tuple)) and all(_is(v, numbers.Real) and 0 < v < np.inf
                                                     for v in values)


@dataclass
class RunConfig:
    demo: str
    hbar: float = 1.0
    n_sector: int = 2
    lam: float = 0.5
    degree: int = 8
    grid_q: int = 128
    grid_p: int = 128
    grid_points: int = 256
    extent: float = 8.0
    mass: float = 1.0
    k_max: int = 4
    n_pairs: int = 6
    seed: int = 0
    t_list: tuple = (0.32, 0.16, 0.08, 0.04, 0.02)
    s_values: tuple = (0.5, 1.0, 1.5, 0.7, 1.2)
    tolerance_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.demo not in DEMOS:
            raise ConfigError(f"unknown demo {self.demo!r}; options: {DEMOS}",
                              field="demo")
        real, integer = numbers.Real, numbers.Integral
        checks = [("hbar", _is(self.hbar, real) and 0 < self.hbar < np.inf),
                  ("mass", _is(self.mass, real) and 0 < self.mass < np.inf),
                  ("n_sector", _is(self.n_sector, integer) and self.n_sector >= 0),
                  ("degree", _is(self.degree, integer) and self.degree >= 1),
                  ("lambda", _is(self.lam, real) and 0.0 <= self.lam < 1.0),
                  ("extent", _is(self.extent, real) and 0 < self.extent < np.inf),
                  ("grid_q", _is(self.grid_q, integer) and self.grid_q >= 8),
                  ("grid_p", _is(self.grid_p, integer) and self.grid_p >= 8),
                  ("grid_points", _is(self.grid_points, integer) and self.grid_points >= 16),
                  ("k_max", _is(self.k_max, integer) and self.k_max >= 0),
                  ("n_pairs", _is(self.n_pairs, integer) and self.n_pairs >= 1),
                  ("seed", _is(self.seed, integer) and self.seed >= 0),
                  ("t_list", _positive_reals(self.t_list) and 3 <= len(self.t_list) <= 10
                   and len(set(self.t_list)) == len(self.t_list)),
                  ("s_values", _positive_reals(self.s_values) and len(self.s_values) >= 1),
                  ("tolerance_overrides", isinstance(self.tolerance_overrides, dict)
                   and all(isinstance(k, str) and _is(v, real) and 0 <= v < np.inf
                           for k, v in self.tolerance_overrides.items()))]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for {name}", field=name)
        self.t_list, self.s_values = tuple(self.t_list), tuple(self.s_values)
        try:
            self.tolerances = DEFAULT_TOLERANCES.override(**self.tolerance_overrides)
        except KeyError as exc:
            raise ConfigError(str(exc), field="tolerance_overrides") from exc

    def echo(self) -> dict:
        out = {"demo": self.demo, "hbar": self.hbar, "seed": self.seed}
        for name in _DEMOS[self.demo][1]:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


def _random_quadratic(n: int, rng: np.random.Generator) -> Observable:
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return Observable.from_terms(n, {e: rng.uniform(-1.0, 1.0) for e in exps})


def demo_prequant_flat(cfg: RunConfig) -> QuantReport:
    tol = cfg.tolerances
    report = QuantReport("prequant-flat", cfg.echo())
    grid = PhaseSpaceGrid(-cfg.extent, cfg.extent, -cfg.extent, cfg.extent,
                          cfg.grid_q, cfg.grid_p)
    rng = np.random.default_rng(cfg.seed)
    states = interior_states(grid, count=4, seed=cfg.seed)

    residuals = [check_dirac(_random_quadratic(1, rng), _random_quadratic(1, rng),
                             grid, cfg.hbar, states=states)
                 for _ in range(cfg.n_pairs)]
    report.tables["dirac_residuals"] = residuals
    report.add_check("dirac-random-pairs", "[P_f, P_g] = -i*hbar*P_{f,g}",
                     max(residuals), tol.grid)

    canonical = check_dirac(Observable.coordinate(), Observable.momentum(),
                            grid, cfg.hbar, states=states)
    report.add_check("canonical-pair", "[q^, p^] = i*hbar*I", canonical, tol.grid)

    sym = max(selfadjoint_residual(f, grid, cfg.hbar, states=states)
              for f in (Observable.momentum(), _random_quadratic(1, rng)))
    report.add_check("gram-symmetry", "<u, P_f v> = <P_f u, v>", sym, tol.grid)

    # the free prequantum flow against its closed form; its own grid keeps the
    # state wide relative to the spacing while the flow stays inside the extents
    fgrid = PhaseSpaceGrid(-2 * cfg.extent, 2 * cfg.extent,
                           -2 * cfg.extent, 2 * cfg.extent,
                           2 * cfg.grid_q, 2 * cfg.grid_p)
    sigma = 0.2 * cfg.extent
    qm, pm = np.meshgrid(fgrid.q_axis, fgrid.p_axis, indexing="ij")
    gaussian = lambda q, p: np.exp(-(q**2 + p**2) / (2 * sigma**2)).astype(complex)
    psi, t = gaussian(qm, pm), 0.5
    free = Observable.from_terms(1, {(0, 2): 1.0 / (2.0 * cfg.mass)})
    evolved = prequantum_evolve(free, psi, t, 1, fgrid, cfg.hbar, tolerances=tol)
    exact = (np.exp(-1j * t * pm**2 / (2.0 * cfg.mass * cfg.hbar))
             * gaussian(qm + t * pm / cfg.mass, pm))
    err = np.linalg.norm(evolved - exact) / np.linalg.norm(psi)
    report.add_check("flow-closed-form",
                     "rho_t psi = exp(-i t p^2/(2m hbar)) psi(q + t p/m, p)", err, tol.grid)
    report.notes.append("commutation residuals evaluated on interior test vectors")
    return report


def demo_weil_sphere(cfg: RunConfig) -> QuantReport:
    tol = cfg.tolerances
    report = QuantReport("weil-sphere", cfg.echo())
    verdicts, integrals, quad_errors = [], [], []
    for s_over_hbar in cfg.s_values:
        s = s_over_hbar * cfg.hbar
        result = weil_admissible(s, cfg.hbar, tolerances=tol)
        verdicts.append(result.admissible)
        integrals.append(result.integral)
        exact = 4.0 * np.pi * s
        quad_errors.append(abs(result.integral - exact) / exact)
        expected = abs(2.0 * s_over_hbar - round(2.0 * s_over_hbar)) < tol.integer_window
        report.add_check(
            f"verdict-s={s_over_hbar:g}hbar", "admissible iff s = (hbar/2) n",
            0.0 if result.admissible == expected else 1.0, 0.5,
            note=f"admissible={result.admissible} nearest_n={result.nearest_n}")
    report.tables["sphere_areas"] = integrals
    report.tables["admissible"] = [int(v) for v in verdicts]
    report.add_check("area-quadrature", "Integral(omega) = 4*pi*s",
                     max(quad_errors), tol.quadrature_match)
    return report


def demo_cylinder(cfg: RunConfig) -> QuantReport:
    tol = cfg.tolerances
    report = QuantReport("cylinder", cfg.echo())
    spec = cylinder_spectrum(cfg.lam, cfg.hbar, cfg.k_max)
    report.tables["spectrum"] = spec

    op = cylinder_momentum_operator(cfg.lam, cfg.hbar, cfg.k_max)
    gram = GramMatrix.identity(op.dim, op.basis_id)
    diag = real_spectrum(op, gram, tol)
    report.add_check("diagonal-construction",
                     "spec(P_p^lambda) = {(k + lambda) * hbar}",
                     float(np.max(np.abs(diag - spec))), tol.exact)

    # lambda + 1 relabels k -> k + 1: its values on modes k = -k_max-1..k_max-1,
    # computed here independently, must reproduce the lambda spectrum
    relabeled = (np.arange(-cfg.k_max - 1, cfg.k_max) + cfg.lam + 1.0) * cfg.hbar
    report.add_check("sector-relabeling",
                     "spec(lambda) = {(k + lambda + 1) * hbar : k -> k+1}",
                     float(np.max(np.abs(spec - relabeled))), tol.exact)
    # negative control: the lambda + 1/2 sector is no relabeling of lambda
    half = cylinder_spectrum((cfg.lam + 0.5) % 1.0, cfg.hbar, cfg.k_max)
    control = float(np.max(np.abs(half - relabeled)))
    report.add_check("sector-relabeling-control",
                     "spec(lambda + 1/2) != {(k + lambda + 1) * hbar : k -> k+1}",
                     control, tol.exact, passed=control > tol.exact,
                     note="residual must EXCEED the threshold")
    return report


def demo_fock(cfg: RunConfig) -> QuantReport:
    tol = cfg.tolerances
    report = QuantReport("fock", cfg.echo())
    basis = fock.FockBasis(1, cfg.degree, cfg.hbar)
    gram = fock.fock_gram(basis)
    ham = fock.oscillator_hamiltonian(basis)
    spec = real_spectrum(ham, gram, tol)
    report.tables["spectrum"] = spec
    expected = cfg.hbar * (np.arange(cfg.degree + 1) + 0.5)
    report.add_check("oscillator-spectrum", "spec(h^) = {hbar*(k + n/2)}",
                     float(np.max(np.abs(spec - expected))), tol.exact)

    raise_op = fock.op_raise(basis)
    lower_op = fock.op_lower(basis)
    below = basis.below_top_mask()
    ladder = commutator(ham, raise_op).entries - cfg.hbar * raise_op.entries
    report.add_check("ladder-raise", "[h^, z^] = hbar * z^",
                     float(np.linalg.norm(ladder * below)), tol.exact)
    pair = commutator(lower_op, raise_op).entries \
        - 2.0 * cfg.hbar * np.eye(basis.dim)
    report.add_check("ladder-pair", "[zbar^, z^] = 2*hbar*I (below top shell)",
                     float(np.linalg.norm(pair * below)), tol.exact)
    adj = adjoint_wrt(raise_op, gram).entries - lower_op.entries
    report.add_check("ladder-adjoint", "adjoint(z^) = zbar^ (below top shell)",
                     float(np.linalg.norm(adj * below)), tol.exact)

    closed = gram.diagonal().real
    quad = fock.fock_gram_quadrature(basis, tolerances=tol).diagonal().real
    report.add_check("gram-quadrature", "<z^m, z^m> = (2*hbar)^m * m!",
                     float(np.max(np.abs(quad - closed) / closed)),
                     tol.quadrature_match)
    report.tables["top_shell_dim"] = len(basis.top_shell())
    report.notes.append("top degree shell is truncated; ladder checks exclude it")
    return report


def demo_spin(cfg: RunConfig) -> QuantReport:
    tol = cfg.tolerances
    report = QuantReport("spin", cfg.echo())
    basis = spin.SpinBasis(cfg.n_sector, cfg.hbar)
    gram = spin.spin_gram(basis)
    ops = spin.spin_operators(basis)
    su2 = spin.check_su2(basis)

    report.tables["dimension"] = basis.dim
    report.tables["j3_spectrum"] = real_spectrum(ops["J3"], gram, tol)
    report.tables["casimir"] = su2.casimir_scalar.real
    scale = max(1.0, cfg.hbar**2 * basis.dim)
    report.add_check("su2-ladders", "[J3, J+-] = +-hbar*J+-",
                     max(su2.ladder_plus, su2.ladder_minus) / scale, tol.exact)
    report.add_check("su2-pair", "[J+, J-] = 2*hbar*J3", su2.pair / scale, tol.exact)
    report.add_check("casimir", "J3^2 + (J+J- + J-J+)/2 = hbar^2*(n/2)(n/2+1)*I",
                     su2.casimir_residual, tol.exact)
    adj = adjoint_wrt(ops["Jplus"], gram).entries - ops["Jminus"].entries
    report.add_check("ladder-adjoint", "adjoint(J+) = J-",
                     float(np.linalg.norm(adj)) / scale, tol.exact)

    closed = gram.diagonal().real
    quad = spin.spin_gram_quadrature(basis, tolerances=tol).diagonal().real
    report.add_check("gram-quadrature",
                     "<z^m, z^m> = Gamma(1+m)Gamma(1+n-m)/Gamma(n+2)",
                     float(np.max(np.abs(quad - closed) / closed)),
                     tol.quadrature_match)
    report.notes.append("no metaplectic correction is applied in the sphere sector")
    return report


def demo_canonical(cfg: RunConfig) -> QuantReport:
    tol = cfg.tolerances
    report = QuantReport("canonical", cfg.echo())
    grid = halfform.ConfigGrid.line(-cfg.extent, cfg.extent, cfg.grid_points)
    states = interior_states(grid, seed=cfg.seed)
    comm = halfform.check_canonical_commutator(grid, cfg.hbar, states=states)
    report.add_check("canonical-commutator", "[q^, p^] = i*hbar*I", comm, tol.grid)

    cases = {
        "q": Observable.coordinate(),
        "p": Observable.momentum(),
        "qp": Observable.from_terms(1, {(1, 1): 1}),
    }
    sym = {name: halfform.check_selfadjoint(f, grid, cfg.hbar, states=states)
           for name, f in cases.items()}
    report.tables["symmetry_residuals"] = [sym[k] for k in sorted(sym)]
    report.add_check("self-adjointness", "<u, Q_f v> = <Q_f u, v>",
                     max(sym.values()), tol.grid)

    control = halfform.check_selfadjoint(cases["qp"], grid, cfg.hbar,
                                         states=states,
                                         include_divergence_term=False)
    report.tables["negative_control"] = control
    report.add_check("divergence-term-load-bearing",
                     "dropping (i*hbar/2)div(v) breaks symmetry by O(hbar)",
                     control, 0.4 * cfg.hbar, passed=control > 0.4 * cfg.hbar,
                     note="residual must EXCEED the threshold")
    report.notes.append("divergence evaluated by the analytic path")
    return report


def demo_bks(cfg: RunConfig) -> QuantReport:
    tol = cfg.tolerances
    report = QuantReport("bks", cfg.echo())
    rng = np.random.default_rng(cfg.seed)
    grid = halfform.ConfigGrid.line(-2.0 * cfg.extent, 2.0 * cfg.extent,
                                    2 * cfg.grid_points)

    # Fourier projection: Gaussian to Gaussian and norm preservation
    phi = bks.gaussian_state(grid, width=np.sqrt(cfg.hbar),
                             polarization="momentum", hbar=cfg.hbar)
    projected = bks.fourier_project(phi, tolerances=tol)
    target = bks.gaussian_state(projected.grid, width=np.sqrt(cfg.hbar),
                                hbar=cfg.hbar)
    err = np.sqrt(np.sum(np.abs(projected.samples - target.samples) ** 2)
                  * grid.cell_volume)
    report.add_check("gaussian-projection",
                     "(Pi phi)(q) = (2*pi*hbar)^(-1/2) Integral phi(p) e^{ipq/hbar} dp",
                     err, tol.grid)
    parseval = 0.0
    for _ in range(5):
        comps = [bks.gaussian_state(grid, center=rng.uniform(-2, 2),
                                    width=rng.uniform(0.8, 1.6),
                                    wavenumber=rng.uniform(-2, 2),
                                    polarization="momentum", hbar=cfg.hbar,
                                    normalize=False).samples for _ in range(3)]
        state = bks.PolarizedState(sum(comps), grid, "momentum", cfg.hbar).normalized()
        parseval = max(parseval, abs(bks.fourier_project(state, tolerances=tol).norm() - 1.0))
    report.add_check("parseval", "||Pi phi|| = ||phi||", parseval,
                     tol.quadrature_match)

    # small-time generator against the Laplacian
    psi0 = bks.gaussian_state(grid, width=1.0, hbar=cfg.hbar, mass=cfg.mass)
    fit = bks.schrodinger_residual(psi0, list(cfg.t_list), tolerances=tol)
    report.tables["c_fit_abs"] = abs(fit.c_fit)
    report.tables["c_fit_arg"] = float(np.angle(fit.c_fit))
    expected_mod = cfg.hbar**2 / (2.0 * cfg.mass)
    report.add_check("schrodinger-modulus",
                     "i*hbar dpsi/dt = -(c*hbar^2/2m) lap(psi), |c| = 1",
                     abs(abs(fit.c_fit) - expected_mod) / expected_mod, tol.bks)
    report.add_check("schrodinger-phase", "arg(c) = -pi*n/4",
                     abs(float(np.angle(fit.c_fit)) + np.pi * psi0.n / 4.0), 1e-2)
    report.add_check("fit-stability", "Richardson corrections settle",
                     fit.extrapolation_spread, 10 * tol.bks,
                     note=f"fit residual {fit.residual:.2e}")
    report.notes.append(
        "pairing evaluated with phase-adapted panels and node-doubling guard")
    return report


#: each demo's runner and the configuration fields its report echoes
_DEMOS = {
    "prequant-flat": (demo_prequant_flat, ("grid_q", "grid_p", "extent", "n_pairs")),
    "weil-sphere": (demo_weil_sphere, ("s_values",)),
    "cylinder": (demo_cylinder, ("lam", "k_max")),
    "fock": (demo_fock, ("degree",)),
    "spin": (demo_spin, ("n_sector",)),
    "canonical": (demo_canonical, ("grid_points", "extent")),
    "bks": (demo_bks, ("grid_points", "mass", "t_list")),
}

DEMOS = tuple(_DEMOS)


def run_demo(cfg: RunConfig) -> QuantReport:
    start = time.perf_counter()
    report = _DEMOS[cfg.demo][0](cfg)
    report.wall_time_s = time.perf_counter() - start
    return report
