import dataclasses

import numpy as np
import pytest

from geoquant import bks
from geoquant.bks import (gaussian_state, schrodinger_residual,
                          state_projected_rate, windowed_plane_wave)
from geoquant.config import DEFAULT_TOLERANCES
from geoquant.demos import RunConfig, run_demo
from geoquant.halfform import ConfigGrid

T_LIST = [0.32, 0.16, 0.08, 0.04, 0.02]


def test_gaussian_recovers_free_generator():
    grid = ConfigGrid.line(-16.0, 16.0, 512)
    psi0 = gaussian_state(grid, width=1.0)
    fit = schrodinger_residual(psi0, T_LIST)
    assert fit.extrapolation_spread <= DEFAULT_TOLERANCES.bks
    assert fit.residual <= 10 * DEFAULT_TOLERANCES.bks
    assert abs(abs(fit.c_fit) - 0.5) / 0.5 < 1e-3
    assert abs(np.angle(fit.c_fit) + np.pi / 4.0) < 1e-2
    assert fit.residual < 1e-2


def test_doubling_mass_halves_the_modulus():
    grid = ConfigGrid.line(-16.0, 16.0, 512)
    base = schrodinger_residual(gaussian_state(grid, width=1.0), T_LIST)
    heavy = schrodinger_residual(gaussian_state(grid, width=1.0, mass=2.0),
                                 T_LIST)
    assert abs(heavy.c_fit) / abs(base.c_fit) == pytest.approx(0.5, rel=1e-3)
    # the phase is mass independent
    assert np.angle(heavy.c_fit) == pytest.approx(np.angle(base.c_fit), abs=1e-3)


def test_hbar_scaling_of_the_modulus():
    grid = ConfigGrid.line(-16.0, 16.0, 512)
    fit = schrodinger_residual(gaussian_state(grid, width=1.0, hbar=0.5),
                               [t / 2 for t in T_LIST])
    assert abs(fit.c_fit) == pytest.approx(0.5**2 / 2.0, rel=1e-3)


def test_plane_wave_rate_scales_as_k_squared():
    grid = ConfigGrid.line(-40.0, 40.0, 640)
    rates = {}
    for k in (1, 2, 3):
        psi = windowed_plane_wave(grid, k=k, flat_halfwidth=20.0,
                                  taper_width=16.0)
        rates[k] = state_projected_rate(psi, [0.32, 0.16, 0.08, 0.04])
    for k in (2, 3):
        ratio = abs(rates[k]) / abs(rates[1])
        assert abs(ratio / k**2 - 1.0) < 1e-2


def test_plane_wave_rate_is_laplacian_like():
    # derivative proportional to -i k^2 / 2m on the state itself
    grid = ConfigGrid.line(-40.0, 40.0, 640)
    psi = windowed_plane_wave(grid, k=2.0, flat_halfwidth=20.0, taper_width=16.0)
    rate = state_projected_rate(psi, [0.32, 0.16, 0.08, 0.04])
    assert rate.real == pytest.approx(0.0, abs=2e-2)
    assert rate.imag == pytest.approx(-2.0, rel=2e-2)  # -(k^2/2m), k=2, m=1


def test_time_list_validation():
    grid = ConfigGrid.line(-16.0, 16.0, 256)
    psi0 = gaussian_state(grid, width=1.0)
    with pytest.raises(ValueError):
        schrodinger_residual(psi0, [0.1, 0.05])
    with pytest.raises(ValueError):
        schrodinger_residual(psi0, [0.1, 0.05, -0.02])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            schrodinger_residual(psi0, [0.1, 0.05, bad])
    # a repeated time made the Neville table divide by zero and return NaN
    for extract in (schrodinger_residual, state_projected_rate):
        with pytest.raises(ValueError, match="distinct"):
            extract(psi0, [0.16, 0.08, 0.08, 0.04])


def test_nan_richardson_spread_fails_the_fit(monkeypatch):
    grid = ConfigGrid.line(-16.0, 16.0, 512)
    psi0 = gaussian_state(grid, width=1.0)
    extrapolate = bks.richardson_extrapolate
    calls = []

    def nan_on_second(ts, values):
        value, spread = extrapolate(ts, values)
        calls.append(spread)
        return value, float("nan") if len(calls) == 2 else spread

    monkeypatch.setattr(bks, "richardson_extrapolate", nan_on_second)
    fit = schrodinger_residual(psi0, T_LIST)
    assert len(calls) == 4
    assert np.isnan(fit.extrapolation_spread)
    assert not fit.extrapolation_spread <= DEFAULT_TOLERANCES.bks


def test_a_poor_generator_fit_fails_the_bks_report(monkeypatch):
    """The report, not the fit, holds the verdict: a residual of 1 fails fit-residual alone."""
    fit_generator = bks.schrodinger_residual
    monkeypatch.setattr(bks, "schrodinger_residual", lambda *args, **kwargs: dataclasses.replace(
        fit_generator(*args, **kwargs), residual=1.0))
    report = run_demo(RunConfig(demo="bks"))
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["fit-residual"] and not report.passed
