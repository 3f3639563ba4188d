"""Per-layer spans recorded from outside the geoquant package.

:class:`Tracer` keeps spans in memory: layer, task, start, end, self time
and the id of the enclosing span.  A layer's self time is its duration minus
the time covered by the spans it encloses.  :class:`Instrumented` wraps the
public functions listed in :data:`LAYERS` for the duration of a ``with``
block.  Several geoquant modules import these functions by value
(``demos`` takes ``check_dirac`` and ``real_spectrum`` that way, and
``geoquant.prequant`` re-exports), so every module attribute bound to the
original function is rebound to the wrapper, and all of them are restored
on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

Extra = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Span:
    layer: str
    task: int
    start: float
    end: float
    self_s: float
    span_id: int
    parent: int  # -1 at top level


class Tracer:
    """Span recorder; ``task`` tags the spans recorded while it is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.task = -1
        self._stack: list[list] = []  # [span_id, start, child time]
        self._next_id = 0

    def enter(self) -> None:
        self._stack.append([self._next_id, self.clock(), 0.0])
        self._next_id += 1

    def exit(self, layer: str) -> None:
        end = self.clock()
        span_id, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(Span(layer, self.task, start, end, duration - child,
                               span_id, parent[0] if parent else -1))

    def wrap(self, layer: str, fn: Callable, extra: Extra | None = None) -> Callable:
        """Wrap ``fn`` so that each call records one span of ``layer``.

        ``extra(args, kwargs, result)`` returns counter increments, summed
        into ``counters["<layer>.<name>"]``.  A raised exception increments
        ``<layer>.errors`` and propagates unchanged.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[f"{layer}.errors"] += 1
                raise
            finally:
                self.exit(layer)
            if extra is not None:
                for name, value in extra(args, kwargs, result).items():
                    self.counters[f"{layer}.{name}"] += value
            return result
        return traced

    def summary(self, scale: Callable[[Span], float] = lambda span: 1.0
                ) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per layer; ``scale`` weighs each span's times."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += s.self_s * scale(s)
            row["total_s"] += (s.end - s.start) * scale(s)
        return out


@dataclass(frozen=True)
class Layer:
    """A public function (or ``Class.method``) traced as one layer."""

    name: str
    module: str
    attr: str
    extra: Extra | None = None
    counters: tuple[str, ...] = ()  # counter names reported besides errors


def _fourier_elems(args, kwargs, result) -> dict:
    state = args[0]
    target = (args[1] if len(args) > 1 else kwargs.get("target")) or state.grid
    return {"kernel_elems": sum(a * b for a, b in zip(state.grid.counts, target.counts))}


LAYERS: tuple[Layer, ...] = (
    Layer("stencil.derivative_matrix_1d", "geoquant.stencil", "derivative_matrix_1d"),
    Layer("gridops.applier_init", "geoquant.prequant.gridops", "PrequantApplier.__init__"),
    Layer("gridops.apply", "geoquant.prequant.gridops", "PrequantApplier.__call__",
          lambda a, k, r: {"points": a[0].grid.size}, ("points",)),
    Layer("gridops.check_dirac", "geoquant.prequant.gridops", "check_dirac"),
    Layer("gridops.selfadjoint_residual", "geoquant.prequant.gridops",
          "selfadjoint_residual"),
    Layer("gridops.prequantize", "geoquant.prequant.gridops", "prequantize"),
    Layer("evolution.prequantum_evolve", "geoquant.prequant.evolution",
          "prequantum_evolve", lambda a, k, r: {"points": r.size}, ("points", "errors")),
    Layer("halfform.quantize_halfform", "geoquant.halfform", "quantize_halfform",
          lambda a, k, r: {"dense_bytes": r.entries.nbytes}, ("dense_bytes",)),
    Layer("halfform.check_canonical_commutator", "geoquant.halfform",
          "check_canonical_commutator"),
    Layer("halfform.check_selfadjoint", "geoquant.halfform", "check_selfadjoint"),
    Layer("bks.fourier", "geoquant.bks", "fourier_project", _fourier_elems,
          ("kernel_elems", "errors")),
    Layer("bks.fourier", "geoquant.bks", "fourier_project_back", _fourier_elems,
          ("kernel_elems", "errors")),
    Layer("bks.pairing", "geoquant.bks", "bks_pairing", None, ("errors",)),
    Layer("bks.richardson", "geoquant.bks", "richardson_extrapolate"),
    Layer("bks.schrodinger_residual", "geoquant.bks", "schrodinger_residual"),
    Layer("bks.state_projected_rate", "geoquant.bks", "state_projected_rate"),
    Layer("linalg.spectrum", "geoquant.linalg", "spectrum",
          lambda a, k, r: {"dim3": a[0].dim ** 3}, ("dim3",)),
    Layer("linalg.gram_init", "geoquant.linalg", "GramMatrix.__init__", None, ("errors",)),
    Layer("linalg.adjoint_wrt", "geoquant.linalg", "adjoint_wrt"),
    Layer("quadrature.fock_gram", "geoquant.fock", "fock_gram_quadrature"),
    Layer("quadrature.spin_gram", "geoquant.spin", "spin_gram_quadrature"),
    Layer("sectors.weil_admissible", "geoquant.prequant.sectors", "weil_admissible"),
    Layer("spin.check_su2", "geoquant.spin", "check_su2"),
    Layer("demos.run_demo", "geoquant.demos", "run_demo"),
    Layer("reporting.render_report", "geoquant.reporting", "render_report"),
)


def layer_names() -> list[str]:
    return list(dict.fromkeys(layer.name for layer in LAYERS))


def layer_counters() -> list[str]:
    """``<layer>.<counter>`` for every counter a layer reports."""
    return list(dict.fromkeys(f"{layer.name}.{c}" for layer in LAYERS
                              for c in layer.counters))


def _binding_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "geoquant" or name.startswith("geoquant."))]


class Instrumented:
    """Context manager that traces :data:`LAYERS` into ``tracer`` while active."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        try:
            for layer in LAYERS:
                self._install(layer)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, layer: Layer) -> None:
        module = importlib.import_module(layer.module)
        owner_name, _, method = layer.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._rebind(owner, method, self.tracer.wrap(layer.name, original, layer.extra))
            return
        original = getattr(module, method)
        wrapped = self.tracer.wrap(layer.name, original, layer.extra)
        for mod in _binding_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, name, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
