import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import geoquant
from geoquant import demos
from geoquant.cli import main
from geoquant.demos import DEMOS, RunConfig, run_demo
from geoquant.errors import ConfigError, SupportEscapesGrid
from geoquant.linalg import spectrum
from geoquant.reporting import SCHEMA, QuantReport, render_report, strip_footer


@pytest.mark.parametrize("demo", DEMOS)
def test_every_demo_passes_with_defaults(demo, capsys):
    assert main([demo]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_spin_sector_64_passes():
    # the first sector past a 64-point angular rule; a fixed rule of that size stopped here
    assert main(["spin", "--n", "64"]) == 0


def test_fock_degree_150_solves_by_eigvalsh_without_a_warning():
    """G A overflows float64 at degree 150; the refusal test reads the Gram-root similarity."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fock", "--degree", "150"]) == 0


@pytest.mark.parametrize("argv, basis_id", [
    (["fock", "--degree", "171"], "fock/n1/D171/hbar1.0"),
    (["spin", "--n", "1100"], "spin/n1100/hbar1.0"),
    (["fock", "--degree", "150", "--hbar", "4"], "fock/n1/D150/hbar4.0")])
def test_gram_past_float64_exits_one_with_one_typed_line(argv, basis_id, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"DegenerateGram: {basis_id}: <z^m, z^m> = ")


def test_underflowing_momentum_gaussian_exits_one_with_one_typed_line(capsys):
    # width sqrt(1e-6): the samples near the edge of the 1024-node grid are about 1e-213,
    # and their squares underflow to 0
    assert main(["bks", "--hbar", "1e-6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("DegenerateGram: <psi, psi> = 0")


def test_reports_are_deterministic():
    cfg = RunConfig(demo="cylinder", lam=0.25, seed=3)
    first = strip_footer(render_report(run_demo(cfg)))
    second = strip_footer(render_report(run_demo(RunConfig(demo="cylinder",
                                                           lam=0.25, seed=3))))
    assert first == second
    assert first.startswith(f"schema: {SCHEMA}\n")


def test_wall_time_only_in_footer():
    report = run_demo(RunConfig(demo="spin", n_sector=1))
    rendered = render_report(report)
    assert "# wall_time_s:" in rendered
    assert "wall_time" not in strip_footer(rendered)


def test_structured_output_and_file(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main(["cylinder", "--lambda", "0.5", "--out", str(out_file),
                 "--report-format", "structured"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout == out_file.read_text()
    body = strip_footer(stdout)
    # lambda = 1/2 spectrum from the diagonal construction
    assert "- -0.5\n" in body and "- 0.5\n" in body and "- 1.5\n" in body


@pytest.mark.parametrize("out", ["", "missing/report.txt"], ids=["directory", "missing-dir"])
def test_unwritable_out_exits_two_with_one_line(out, tmp_path, capsys):
    assert main(["cylinder", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error [out]: ")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"lam": 0.25, "k_max": 1}))
    assert main(["cylinder", "--config", str(cfg_file), "--lambda", "0.5",
                 "--report-format", "structured"]) == 0
    out = capsys.readouterr().out
    assert "lam: 0.5" in out  # the flag wins


def test_invalid_config_exits_two(tmp_path, capsys):
    assert main(["cylinder", "--lambda", "1.2"]) == 2
    assert "lambda" in capsys.readouterr().err
    cfg_file = tmp_path / "bad.json"
    for demo, entries, name in [
            ("prequant-flat", {"scheme": "bogus"}, "scheme"),
            ("prequant-flat", {"scheme": "fd6"}, "scheme"),
            ("canonical", {"extent": float("inf")}, "extent"),
            ("canonical", {"hbar": float("inf")}, "hbar"),
            ("bks", {"mass": float("inf")}, "mass"),
            ("bks", {"t_list": [0.01 * k for k in range(1, 12)]}, "t_list"),
            ("bks", {"t_list": [0.08, 0.04, 0.04, 0.02]}, "t_list"),
            ("weil-sphere", {"s_values": [0.5, -1.0]}, "s_values"),
            # integer fields take ints only, bool excluded
            ("cylinder", {"k_max": 3.5}, "k_max"),
            ("prequant-flat", {"grid_q": 64.5}, "grid_q"),
            ("prequant-flat", {"grid_p": 64.0}, "grid_p"),
            ("prequant-flat", {"n_pairs": "6"}, "n_pairs"),
            ("canonical", {"grid_points": None}, "grid_points"),
            ("fock", {"degree": 4.5}, "degree"),
            ("fock", {"degree": True}, "degree"),
            ("spin", {"n_sector": 2.5}, "n_sector"),
            ("spin", {"seed": 1.5}, "seed"),
            ("bks", {"seed": -1}, "seed"),
            # real fields take ints or floats, bool excluded
            ("fock", {"hbar": "1"}, "hbar"),
            ("bks", {"mass": [1.0]}, "mass"),
            ("cylinder", {"lam": False}, "lambda"),
            ("canonical", {"extent": "8"}, "extent"),
            # sequence fields take lists of reals, mappings map names to reals
            ("bks", {"t_list": 5}, "t_list"),
            ("bks", {"t_list": ["a", "b", "c"]}, "t_list"),
            ("bks", {"t_list": [0.32, 0.16, True]}, "t_list"),
            ("weil-sphere", {"s_values": [True]}, "s_values"),
            ("weil-sphere", {"s_values": "1.0"}, "s_values"),
            ("bks", {"tolerance_overrides": [1]}, "tolerance_overrides"),
            ("fock", {"tolerance_overrides": {"exact": "x"}}, "tolerance_overrides"),
            ("fock", {"tolerance_overrides": {"exact": float("nan")}}, "tolerance_overrides"),
            ("fock", {"tolerance_overrides": {"no_such_tolerance": 1.0}},
             "tolerance_overrides"),
            # the file's top level must be a JSON object
            ("fock", [1, 2], "config"),
            ("fock", "x", "config"),
            ("fock", [["hbar", 2.0]], "config")]:
        cfg_file.write_text(json.dumps(entries))
        assert main([demo, "--config", str(cfg_file)]) == 2, entries
        assert f"[{name}]" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"no_such_knob": 1}))
    assert main(["spin", "--config", str(cfg_file)]) == 2


def test_failing_check_exits_one(tmp_path, capsys):
    cfg_file = tmp_path / "strict.json"
    cfg_file.write_text(json.dumps(
        {"tolerance_overrides": {"exact": 1e-300}}))
    assert main(["fock", "--config", str(cfg_file)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("demo, basis_id", [("spin", "spin/n2/hbar1.0"),
                                             ("fock", "fock/n1/D8/hbar1.0")])
def test_gram_oracle_refusal_exits_one_with_one_typed_line(demo, basis_id, tmp_path, capsys):
    # a bound of 0 is below the quadrature's own off-diagonal round-off, about 1e-16
    cfg_file = tmp_path / "strict.json"
    cfg_file.write_text(json.dumps({"tolerance_overrides": {"quadrature_zero": 0.0}}))
    assert main([demo, "--config", str(cfg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"QuadratureFailure: {basis_id}: |G_mm'| / sqrt")


def test_tail_mass_override_reaches_the_fourier_projection():
    # the projected Gaussian carries about 1e-111 of its mass on the boundary band
    with pytest.raises(SupportEscapesGrid):
        run_demo(RunConfig(demo="bks", tolerance_overrides={"tail_mass": 0.0}))


@pytest.mark.parametrize("demo", ["cylinder", "fock", "spin"])
def test_tolerance_overrides_reach_real_spectrum(demo, monkeypatch):
    seen = []

    def recording(a, gram, tolerances):
        seen.append(tolerances)
        return spectrum(a, gram, tolerances)

    monkeypatch.setattr(demos, "spectrum", recording)
    cfg = RunConfig(demo=demo, tolerance_overrides={"exact": 0.5})
    run_demo(cfg)
    assert seen == [cfg.tolerances] and seen[0].exact == 0.5


def test_runconfig_rejects_unknown_demo():
    with pytest.raises(ConfigError):
        RunConfig(demo="nope")


def test_float_formatting_is_twelve_digits():
    report = run_demo(RunConfig(demo="cylinder", lam=1.0 / 3.0))
    body = render_report(report)
    assert "0.333333333333" in body


def test_a_verdict_is_the_value_against_its_tolerance():
    report = QuantReport("cylinder", {})
    controls = [report.add_check("control", "law", value, 1e-10, exceed=True)
                for value in (1e-10, 2e-10, float("nan"))]
    assert [c.passed for c in controls] == [False, True, False]
    assert {c.note for c in controls} == {"residual must EXCEED the threshold"}
    checks = [report.add_check("check", "law", value, 1e-10)
              for value in (0.5e-10, 1e-10, float("nan"))]
    assert [c.passed for c in checks] == [True, False, False]
    assert {c.note for c in checks} == {""}


def _loaded_by(code: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under any of ``prefixes`` loaded after ``code`` runs in a fresh interpreter."""
    src = str(Path(geoquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import json, sys\n{code}\nprint(json.dumps(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {prefixes!r})))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_lazy_dependencies():
    """The CLI's start-up imports neither sympy nor any part of SciPy.

    The library needs neither.  The sympy derivation of the spin forms,
    ``spin_derivation``, lives with the tests.  The Gram oracles use the
    library's own Gauss-Legendre rules, the Gram-weighted linear algebra
    runs on numpy, and grid operators are matrix-free.
    """
    assert _loaded_by("import geoquant.cli", ("scipy", "sympy")) == []


def test_cli_import_loads_no_thread_pool():
    """The residual panels' thread pool is imported on first use, not at start-up."""
    assert _loaded_by("import geoquant.cli", ("concurrent",)) == []


def test_demos_load_no_scipy():
    code = ("from geoquant.demos import DEMOS, RunConfig, run_demo\n"
            "assert all(run_demo(RunConfig(demo=d)).passed for d in DEMOS)")
    assert _loaded_by(code, ("scipy",)) == []
