"""Tracer self time and the rebinding of by-value imports."""

import itertools

import pytest

import geoquant
from geoquant import demos, linalg
from geoquant.prequant import gridops
from tracer import LAYERS, Instrumented, Tracer


def test_self_time_subtracts_nested_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    leaf = tracer.wrap("leaf", lambda: None)

    def outer_body():
        inner()           # clock 1 -> 2
        leaf()            # clock 3 -> 4
        inner()           # clock 5 -> 6

    tracer.wrap("outer", outer_body)()   # clock 0 -> 7
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 7.0, "self_s": 4.0}
    assert summary["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    outer = next(s for s in tracer.spans if s.layer == "outer")
    assert outer.parent == -1
    assert all(s.parent == outer.span_id for s in tracer.spans if s is not outer)


def test_grandchild_time_is_charged_to_its_parent_only():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", lambda: c())
    tracer.wrap("a", lambda: b())()   # a 0..5, b 1..4, c 2..3
    summary = tracer.summary()
    assert summary["a"]["self_s"] == 2.0
    assert summary["b"]["self_s"] == 2.0
    assert summary["c"]["self_s"] == 1.0


def test_errors_are_counted_and_propagate():
    tracer = Tracer()

    def boom():
        raise geoquant.errors.DegenerateGram("x")

    with pytest.raises(geoquant.errors.DegenerateGram):
        tracer.wrap("layer", boom)()
    assert tracer.counters["layer.errors"] == 1
    assert tracer.summary()["layer"]["calls"] == 1


def test_by_value_imports_are_rebound_and_restored():
    original = gridops.check_dirac
    original_call = gridops.PrequantApplier.__dict__["__call__"]
    original_gram_init = linalg.GramMatrix.__dict__["__init__"]
    assert demos.check_dirac is original and geoquant.prequant.check_dirac is original
    tracer = Tracer()
    with Instrumented(tracer):
        assert demos.check_dirac is gridops.check_dirac is geoquant.prequant.check_dirac
        assert demos.check_dirac is not original
        assert geoquant.spectrum is linalg.spectrum
        grid = gridops.PhaseSpaceGrid(-4.0, 4.0, -4.0, 4.0, 16, 16)
        q, p = geoquant.prequant.Observable.coordinate(), geoquant.prequant.Observable.momentum()
        demos.check_dirac(q, p, grid, 1.0)
        linalg.GramMatrix.identity(2, "b")
    summary = tracer.summary()
    assert summary["gridops.check_dirac"]["calls"] == 1
    assert summary["gridops.applier_init"]["calls"] == 3
    assert summary["gridops.apply"]["calls"] == 5 * 4
    assert tracer.counters["gridops.apply.points"] == 5 * 4 * 256
    assert summary["linalg.gram_init"]["calls"] == 1
    assert gridops.check_dirac is original
    assert demos.check_dirac is original and geoquant.prequant.check_dirac is original
    assert gridops.PrequantApplier.__dict__["__call__"] is original_call
    assert linalg.GramMatrix.__dict__["__init__"] is original_gram_init


def test_restored_when_the_block_raises():
    originals = {layer.attr: getattr(__import__(layer.module, fromlist=["_"]),
                                     layer.attr.partition(".")[0])
                 for layer in LAYERS}
    with pytest.raises(RuntimeError):
        with Instrumented(Tracer()):
            raise RuntimeError("inside")
    for layer in LAYERS:
        module = __import__(layer.module, fromlist=["_"])
        assert getattr(module, layer.attr.partition(".")[0]) is originals[layer.attr]
    assert demos.run_demo.__module__ == "geoquant.demos"
    assert not hasattr(demos.run_demo, "__wrapped__")
