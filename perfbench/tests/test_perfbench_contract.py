"""BENCHMARK.json names exactly what run.py reports."""

import json
from pathlib import Path

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items()}


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
