import numpy as np
import pytest

from geoquant import demos
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.demos import RunConfig, run_demo
from geoquant.errors import BasisMismatch, ConfigError
from geoquant.linalg import GramMatrix, commutator, real_spectrum
from geoquant.prequant import cylinder_momentum_operator, cylinder_spectrum, weil_admissible

from cylinder_relabeling import lambda_blind, relabeling_residual


def test_half_hbar_is_the_first_admissible_sector():
    result = weil_admissible(0.5, 1.0)
    assert result.admissible
    assert result.nearest_n == 1
    assert result.integral == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_hbar_gives_sector_two():
    result = weil_admissible(1.0, 1.0)
    assert result.admissible
    assert result.nearest_n == 2
    assert result.integral == pytest.approx(4.0 * np.pi, rel=1e-10)


def test_non_half_integer_spin_rejected():
    assert not weil_admissible(0.7, 1.0).admissible


def test_quadrature_matches_area_for_many_radii():
    for s in (0.5, 1.0, 1.5, 0.7, 1.2, 3.25):
        result = weil_admissible(s, 1.0)
        assert abs(result.integral - 4 * np.pi * s) / (4 * np.pi * s) < 1e-10


def test_admissibility_scales_with_hbar():
    # s = hbar/2 stays admissible whatever hbar is
    assert weil_admissible(0.25, 0.5).admissible
    assert not weil_admissible(0.35, 0.5).admissible


def test_cylinder_integer_sector():
    assert np.allclose(cylinder_spectrum(0.0, 1.0, 2), [-2, -1, 0, 1, 2])


def test_cylinder_half_sector():
    assert np.allclose(cylinder_spectrum(0.5, 1.0, 1), [-0.5, 0.5, 1.5])


def test_cylinder_hbar_scaling():
    assert np.allclose(cylinder_spectrum(0.25, 2.0, 1), [-1.5, 0.5, 2.5])


def test_lambda_shift_relabels_modes():
    """lambda + 1 with modes k is lambda with modes k + 1."""
    tol = DEFAULT_TOLERANCES.exact
    # the second case splits 3 of 128 values when both spectra are rounded
    # to 12 decimals; the last two take lambda outside [0, 1)
    for lam, hbar, k_max in ((0.3, 1.0, 5), (0.8894878343490003, 0.5, 64),
                             (1.25, 0.7, 5), (-0.75, 0.7, 5)):
        assert relabeling_residual(cylinder_spectrum, lam, k_max, hbar) < tol
        # negative control: a spectrum that ignores lambda fails the relabeling
        assert relabeling_residual(lambda_blind, lam, k_max, hbar) > tol


def test_operator_is_diagonal_and_matches_spectrum():
    op = cylinder_momentum_operator(0.25, 1.0, 3)
    assert not np.any(op.entries - np.diag(np.diag(op.entries)))
    vals = real_spectrum(op, GramMatrix.identity(op.dim, op.basis_id))
    assert np.array_equal(vals, cylinder_spectrum(0.25, 1.0, 3))


def test_sector_validation():
    for call in (lambda: weil_admissible(0.0, 1.0),
                 lambda: weil_admissible(-1.0, 1.0),
                 lambda: weil_admissible(float("inf"), 1.0),
                 lambda: weil_admissible(float("nan"), 1.0),
                 lambda: weil_admissible(0.5, 0.0),
                 lambda: weil_admissible(0.5, float("inf")),
                 lambda: cylinder_spectrum(0.5, -1.0, 2),
                 lambda: cylinder_spectrum(float("nan"), 1.0, 2),
                 lambda: cylinder_spectrum(float("inf"), 1.0, 2),
                 lambda: cylinder_spectrum(0.5, 1.0, -1),
                 lambda: cylinder_momentum_operator(0.5, 0.0, 2),
                 lambda: cylinder_momentum_operator(-float("inf"), 1.0, 2),
                 lambda: cylinder_momentum_operator(0.5, 1.0, -1)):
        with pytest.raises(ValueError):
            call()
    # the library takes any finite lambda; the command line keeps [0, 1)
    with pytest.raises(ConfigError):
        RunConfig(demo="cylinder", lam=1.0)


def _relabeling_checks(report):
    return {c.name: c for c in report.checks if c.name.startswith("sector-relabeling")}


def test_cylinder_demo_relabeling_at_rounding_sensitive_lambda():
    # rounding both spectra to 12 decimals used to split 3 of 128 values here
    cfg = RunConfig(demo="cylinder", hbar=0.5, k_max=64, lam=0.8894878343490003)
    report = run_demo(cfg)
    checks = _relabeling_checks(report)
    assert report.passed
    assert checks["sector-relabeling"].value < cfg.tolerances.exact
    assert checks["sector-relabeling-control"].value == pytest.approx(0.25)


def test_cylinder_demo_relabeling_fails_when_lambda_is_ignored(monkeypatch):
    monkeypatch.setattr(demos, "cylinder_spectrum", lambda_blind)
    checks = _relabeling_checks(run_demo(RunConfig(demo="cylinder", lam=0.5)))
    assert not checks["sector-relabeling"].passed


def test_basis_id_tells_lambda_apart_past_six_digits():
    with pytest.raises(BasisMismatch):
        commutator(cylinder_momentum_operator(0.25, 1.0, 3),
                   cylinder_momentum_operator(0.2500001, 1.0, 3))
