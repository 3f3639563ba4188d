"""Deterministic run reports.

Reports serialize to a structured UTF-8 text document with schema version
``geoquant-report/1``: fixed field order, floats at 12 significant digits,
arrays one value per line.  The body is byte-identical across runs with the
same configuration; wall time goes into a trailing comment footer that
determinism checks strip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SCHEMA = "geoquant-report/1"

__all__ = ["CheckResult", "QuantReport", "SCHEMA", "render_report", "strip_footer"]


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality with the law it instantiates."""

    name: str
    law: str          # governing equation, e.g. "[Q(f),Q(g)] = -i*hbar*Q({f,g})"
    value: float      # measured residual or quantity
    tol: float
    passed: bool
    note: str = ""


@dataclass
class QuantReport:
    demo: str
    config: dict
    tables: dict = field(default_factory=dict)   # name -> array-like or scalar
    checks: list = field(default_factory=list)   # list[CheckResult]
    notes: list = field(default_factory=list)    # oracle provenance notes
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_check(self, name: str, law: str, value: float, tol: float,
                  exceed: bool = False, note: str = "") -> CheckResult:
        """Record a check that passes when ``value < tol``.

        A negative control (``exceed=True``) passes when ``value > tol``
        instead, and its note is "residual must EXCEED the threshold" in
        place of ``note``.  A NaN value fails either way.
        """
        value, tol = float(value), float(tol)
        passed = value > tol if exceed else value < tol
        if exceed:
            note = "residual must EXCEED the threshold"
        check = CheckResult(name, law, value, tol, passed, note)
        self.checks.append(check)
        return check


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def render_report(report: QuantReport) -> str:
    """Serialize with stable key order; see module docstring for the schema."""
    lines = [f"schema: {SCHEMA}", f"demo: {report.demo}", "config:"]
    for key in sorted(report.config):
        lines.append(f"  {key}: {_fmt(report.config[key])}")
    lines.append("tables:")
    for key in sorted(report.tables):
        value = report.tables[key]
        if np.ndim(value) == 0:
            lines.append(f"  {key}: {_fmt(value)}")
        else:
            lines.append(f"  {key}:")
            for v in np.asarray(value).reshape(-1):
                lines.append(f"    - {_fmt(v)}")
    lines.append("checks:")
    for c in report.checks:
        lines.append(f"  - name: {c.name}")
        lines.append(f"    law: {c.law}")
        lines.append(f"    value: {_fmt(c.value)}")
        lines.append(f"    tol: {_fmt(c.tol)}")
        lines.append(f"    passed: {_fmt(c.passed)}")
        if c.note:
            lines.append(f"    note: {c.note}")
    lines.append("notes:")
    for n in report.notes:
        lines.append(f"  - {n}")
    lines.append(f"passed: {_fmt(report.passed)}")
    lines.append(f"# wall_time_s: {report.wall_time_s:.3f}")
    return "\n".join(lines) + "\n"


def strip_footer(text: str) -> str:
    """Drop the non-deterministic footer lines (leading '#')."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))
