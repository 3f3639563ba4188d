"""Task loops: calibration bracketing and the traced/untraced comparison."""

import itertools

import pytest

import calibrate
import run
from workloads import Verification


class FakeCalibrator:
    """Kernel times 1, 2, 3, ... so every factor is predictable."""

    def __init__(self):
        self._ticks = itertools.count(1)

    def sample(self) -> float:
        return float(next(self._ticks))

    factor = staticmethod(calibrate.Calibrator.factor)


class Counting:
    """Workload whose verification values follow a shared call counter."""

    calls = 0

    @staticmethod
    def make_inputs(seed, index):
        return {"index": index}

    @classmethod
    def run(cls, inputs):
        cls.calls += 1
        return [Verification("step", "check", float(inputs["index"]), 10.0, True)]


def test_each_timed_task_is_scaled_by_the_kernels_around_it():
    results = run.measure_untraced(Counting, 1, 0.0, FakeCalibrator())
    assert [r.index for r in results] == list(range(run.MIN_TIMED_TASKS + 1))
    assert results[0].factor == 1.0  # the warm-up task is not timed
    for i, r in enumerate(results[1:], start=1):
        assert r.factor == pytest.approx(2 * calibrate.REFERENCE_S / (i + i + 1))
        assert r.ref_seconds == pytest.approx(r.seconds * r.factor)


def test_pairs_share_a_factor_and_identical_values_pass_the_gate():
    gate = run.Gate()
    tracer, traced, untraced = run.measure_traced(Counting, 1, 0.0, FakeCalibrator(), gate)
    assert gate.correct
    assert [r.index for r in traced] == list(range(run.MIN_TRACED_PAIRS + 1))
    assert [r.index for r in untraced] == list(range(1, run.MIN_TRACED_PAIRS + 1))
    assert all(a.factor == b.factor for a, b in zip(untraced, traced[1:]))
    assert {s.task for s in tracer.spans} <= {r.index for r in traced}


def test_a_traced_run_that_changes_a_value_fails_the_gate():
    class Drifting(Counting):
        @classmethod
        def run(cls, inputs):
            cls.calls += 1
            return [Verification("step", "check", float(cls.calls), 10.0, True)]

    gate = run.Gate()
    run.measure_traced(Drifting, 1, 0.0, FakeCalibrator(), gate)
    assert not gate.correct
    assert "traced and untraced" in gate.problems[0]
