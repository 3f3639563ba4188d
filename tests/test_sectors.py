import numpy as np
import pytest

from geoquant import demos
from geoquant.demos import RunConfig, run_demo
from geoquant.linalg import GramMatrix, real_spectrum
from geoquant.prequant import (SectorSpec, cylinder_momentum_operator,
                               cylinder_spectrum, weil_admissible)


def sphere(s, hbar=1.0):
    return SectorSpec("sphere", hbar=hbar, s=s)


def test_half_hbar_is_the_first_admissible_sector():
    result = weil_admissible(sphere(0.5))
    assert result.admissible
    assert result.nearest_n == 1
    assert result.integral == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_hbar_gives_sector_two():
    result = weil_admissible(sphere(1.0))
    assert result.admissible
    assert result.nearest_n == 2
    assert result.integral == pytest.approx(4.0 * np.pi, rel=1e-10)


def test_non_half_integer_spin_rejected():
    assert not weil_admissible(sphere(0.7)).admissible


def test_quadrature_matches_area_for_many_radii():
    for s in (0.5, 1.0, 1.5, 0.7, 1.2, 3.25):
        result = weil_admissible(sphere(s))
        assert abs(result.integral - 4 * np.pi * s) / (4 * np.pi * s) < 1e-10


def test_admissibility_scales_with_hbar():
    # s = hbar/2 stays admissible whatever hbar is
    assert weil_admissible(sphere(0.25, hbar=0.5)).admissible
    assert not weil_admissible(sphere(0.35, hbar=0.5)).admissible


def test_cylinder_integer_sector():
    sector = SectorSpec("cylinder", hbar=1.0, lam=0.0)
    assert np.allclose(cylinder_spectrum(sector, 2), [-2, -1, 0, 1, 2])


def test_cylinder_half_sector():
    sector = SectorSpec("cylinder", hbar=1.0, lam=0.5)
    assert np.allclose(cylinder_spectrum(sector, 1), [-0.5, 0.5, 1.5])


def test_cylinder_hbar_scaling():
    sector = SectorSpec("cylinder", hbar=2.0, lam=0.25)
    assert np.allclose(cylinder_spectrum(sector, 1), [-1.5, 0.5, 2.5])


def test_lambda_shift_relabels_modes():
    """lambda and lambda + 1 give the same spectrum on the shared range."""
    k_max = 5
    lam = 0.3
    base = cylinder_spectrum(SectorSpec("cylinder", lam=lam), k_max)
    # lambda + 1 with modes k is lambda with modes k + 1
    shifted = cylinder_spectrum(SectorSpec("cylinder", lam=lam), k_max) + 1.0
    shared = set(np.round(base, 12)) & set(np.round(shifted, 12))
    assert len(shared) == 2 * k_max


def test_operator_is_diagonal_and_matches_spectrum():
    sector = SectorSpec("cylinder", hbar=1.0, lam=0.25)
    op = cylinder_momentum_operator(sector, 3)
    assert not np.any(op.entries - np.diag(np.diag(op.entries)))
    vals = real_spectrum(op, GramMatrix.identity(op.dim, op.basis_id))
    assert np.array_equal(vals, cylinder_spectrum(sector, 3))


def test_sector_validation():
    with pytest.raises(ValueError):
        SectorSpec("cylinder", lam=1.0)
    with pytest.raises(ValueError):
        SectorSpec("cylinder", lam=-0.1)
    with pytest.raises(ValueError):
        SectorSpec("sphere", s=-1.0)
    with pytest.raises(ValueError):
        SectorSpec("torus")


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
    def lambda_blind(sector, k_max):
        return cylinder_spectrum(SectorSpec("cylinder", hbar=sector.hbar, lam=0.0), k_max)

    monkeypatch.setattr(demos, "cylinder_spectrum", lambda_blind)
    checks = _relabeling_checks(run_demo(RunConfig(demo="cylinder", lam=0.5)))
    assert not checks["sector-relabeling"].passed
