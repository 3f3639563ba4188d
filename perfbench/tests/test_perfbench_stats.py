"""Tail-percentile selection and the counting of failed verifications."""

import math

import pytest

import run
import stats
from geoquant.errors import DegenerateGram
from workloads import TaskLog, Verification


def test_tail_leaves_ten_samples_beyond():
    t = stats.tail([float(x) for x in range(30, 0, -1)])
    assert t.value == 20.0
    assert t.beyond == 10 and t.samples == 30
    assert t.percentile == pytest.approx(100 * 20 / 30)


def test_tail_with_eleven_samples_is_the_minimum():
    t = stats.tail([5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    assert t.value == 1.0 and t.beyond == 10


def test_tail_steps_below_ties():
    samples = [1.0] * 5 + [2.0] * 10 + [3.0] * 6
    t = stats.tail(samples)
    # no 2.0 has ten samples strictly above it; the highest that does is 1.0
    assert t.value == 1.0 and t.beyond == 16


def test_tail_needs_more_samples_than_beyond():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_raised_geoquant_error_counts_as_one_failed_verification():
    log = TaskLog()
    log.below("a", "residual", 1e-9, 1e-6)
    with log.guard("spin n=48"):
        raise DegenerateGram("not positive definite")
    log.below("b", "residual", 1e-3, 1e-6)
    result = stats.outcome(log.verifications)
    assert result.attempted == 3 and result.failed == 2
    assert result.fail_ratio == pytest.approx(2 / 3)
    assert result.pass_ratio == pytest.approx(1 / 3)
    raised = log.verifications[1]
    assert raised.check == "DegenerateGram" and not raised.passed
    assert result.margin_digits == pytest.approx(3.0)


def test_other_exceptions_fail_the_task_not_a_verification():
    class Broken:
        @staticmethod
        def make_inputs(seed, index):
            return {}

        @staticmethod
        def run(inputs):
            raise ZeroDivisionError

    result = run.execute(Broken, 1, 0)
    assert result.verifications == [] and "ZeroDivisionError" in result.error
    gate = run.Gate()
    run.check_failures("w", [result], [], gate)
    assert not gate.correct


def test_known_failures_stay_listed_but_keep_the_run_correct():
    known = run.TaskResult(3, 1.0, [Verification("spin n=28", "gram-quadrature",
                                                 3.7e-7, 1e-8, False)])
    new = run.TaskResult(4, 1.0, [Verification("spin n=40", "gram-quadrature",
                                               2e-8, 1e-8, False)])
    gate = run.Gate()
    listed = run.check_failures("matrix-models", [known], [], gate)
    assert gate.correct and listed[0]["known"] and listed[0]["task"] == 3
    run.check_failures("matrix-models", [new], [], gate)
    assert not gate.correct


def test_margin_digits():
    assert Verification("s", "c", 1e-9, 1e-6, True).margin == pytest.approx(3.0)
    assert Verification("s", "c", 2.0, 0.2, True, exceed=True).margin == pytest.approx(1.0)
    assert Verification("s", "c", 0.0, 1e-6, True).margin is None
    assert Verification("s", "c", 1e-3, 1e-6, False).margin is None
    nan = Verification("s", "E", math.nan, math.nan, False, error="E")
    assert nan.key() == Verification("s", "E", math.nan, math.nan, False, error="E").key()
