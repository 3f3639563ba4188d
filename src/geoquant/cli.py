"""Command line front end.

Usage:
    geoquant <demo> [--hbar X] [--n N] [--lambda L] [--degree D]
                    [--grid NxM] [--mass M] [--out PATH] [--config PATH]
                    [--report-format {text,structured}] [--seed S]

Configuration may come from a JSON file (``--config``); flags override file
entries.  The structured report is written to ``--out`` when given, a summary
table goes to stdout (or the full structured document with
``--report-format structured``).  Exit status: 0 all checks passed, 1 a check
failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .demos import DEMOS, RunConfig, run_demo
from .errors import ConfigError, GeoquantError
from .reporting import render_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoquant",
        description="run a geometric-quantization demo and verify its checks")
    parser.add_argument("demo", choices=DEMOS)
    parser.add_argument("--hbar", type=float, default=None)
    parser.add_argument("--n", type=int, default=None, dest="n_sector",
                        help="spin sector integer (only the spin demo reads it)")
    parser.add_argument("--lambda", type=float, default=None, dest="lam",
                        help="cylinder sector parameter in [0, 1)")
    parser.add_argument("--degree", type=int, default=None,
                        help="Fock truncation degree")
    parser.add_argument("--grid", type=str, default=None, metavar="NxM",
                        help="phase-space grid size, e.g. 128x128")
    parser.add_argument("--points", type=int, default=None, dest="grid_points",
                        help="1D configuration grid size")
    parser.add_argument("--mass", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None,
                        help="write the structured report to this path")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with RunConfig fields")
    parser.add_argument("--report-format", choices=("text", "structured"),
                        default="text", help="what to print on stdout")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}", field="config")
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object", field="config")
    known = {f.name for f in fields(RunConfig)}
    values.update((name, arg) for name, arg in vars(args).items()
                  if name in known and arg is not None)
    if args.grid is not None:
        try:
            nq, _, np_ = args.grid.partition("x")
            values["grid_q"], values["grid_p"] = int(nq), int(np_)
        except ValueError as exc:
            raise ConfigError("grid must look like 128x128", field="grid") from exc
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config entries: {sorted(unknown)}",
                          field=sorted(unknown)[0])
    return RunConfig(**values)


def _summary_table(report) -> str:
    rows = [("check", "value", "tol", "status")]
    for c in report.checks:
        rows.append((c.name, f"{c.value:.3e}", f"{c.tol:.1e}",
                     "pass" if c.passed else "FAIL"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    status = "PASS" if report.passed else "FAIL"
    lines.append(f"{report.demo}: {status} ({report.wall_time_s:.2f}s)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error [{exc.field}]: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_demo(cfg)
    except GeoquantError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    document = render_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            print(f"config error [out]: cannot write report: {exc}", file=sys.stderr)
            return 2
    if args.report_format == "structured":
        print(document, end="")
    else:
        print(_summary_table(report))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
