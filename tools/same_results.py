"""Compare the results of this working tree with those of a git revision.

Usage:
    python tools/same_results.py --base REV

The committed tree of REV is unpacked by ``git archive`` into a temporary
directory, so the repository itself is left as it is.  Each tree then runs a
fixed grid in one fresh interpreter, with its own ``src`` and ``perfbench`` on
the path:

- the structured report of ``geoquant <demo> --hbar H --seed S`` for the seven
  demos, H in {0.5, 0.7, 1, 2} and S in {0, 3}, plus ``spin --n 64``,
  ``spin --n 119`` and ``fock --degree 150``: its body after ``strip_footer``,
  with anything printed to stderr and the exit status;
- the verification records of tasks 0-7 of the three benchmark workloads on
  seeds 1 and 7919, each value and tolerance compared by ``float.hex``.

Every body diff and every moved record is printed, with the largest relative
move.  The exit status is 0 only when nothing moved, 1 when something did, and
2 when REV cannot be unpacked or a tree cannot run the grid.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("prequant-flat", "weil-sphere", "cylinder", "fock", "spin", "canonical", "bks")
WORKLOADS = ("phase-grid", "bks-pairing", "matrix-models")


def demo_runs() -> list[list[str]]:
    """The CLI arguments of every report in the grid (59 runs)."""
    runs = [[demo, "--hbar", hbar, "--seed", seed]
            for demo in DEMOS for hbar in ("0.5", "0.7", "1", "2") for seed in ("0", "3")]
    return runs + [["spin", "--n", "64"], ["spin", "--n", "119"], ["fock", "--degree", "150"]]


def workload_tasks() -> list[list]:
    """``[workload, seed, task]`` for tasks 0-7 of every workload on seeds 1 and 7919."""
    return [[name, seed, task] for name in WORKLOADS for seed in (1, 7919) for task in range(8)]


def collect(runs: list[list[str]], tasks: list[list]) -> dict:
    """Run the grid in this interpreter, on whatever ``geoquant`` and ``workloads`` import."""
    import workloads
    from geoquant.cli import main
    from geoquant.reporting import strip_footer

    bodies = {}
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = f"exit {main([*argv, '--report-format', 'structured'])}"
            except Exception as exc:  # a crash is a result to compare, not a stop
                status = f"raised {type(exc).__name__}: {exc}"
        bodies[" ".join(argv)] = f"{strip_footer(out.getvalue())}{err.getvalue()}{status}\n"
    records = {}
    for name, seed, task in tasks:
        wl = workloads.WORKLOADS[name]
        for i, v in enumerate(wl.run(wl.make_inputs(seed, task))):
            records[f"{name} seed {seed} task {task} #{i}"] = [
                v.step, v.check, float(v.value).hex(), float(v.tol).hex(), v.passed, v.error]
    return {"bodies": bodies, "records": records}


def results(tree: Path, runs: list[list[str]], tasks: list[list]) -> dict:
    """:func:`collect` for ``tree``, in a fresh interpreter with one BLAS thread."""
    path = [tree / "src", tree / "perfbench", ROOT / "tools", os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in path if p),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import json, sys, same_results; "
            "json.dump(same_results.collect(**json.load(sys.stdin)), sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, check=True,
                          input=json.dumps({"runs": runs, "tasks": tasks}),
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _relative_move(old: list | None, new: list | None) -> float:
    """Largest relative change of a record's value and tolerance; inf if it changed kind."""
    if old is None or new is None or old[:2] != new[:2]:
        return math.inf
    return max(map(_relative, map(float.fromhex, old[2:4]), map(float.fromhex, new[2:4])))


def compare(old: dict, new: dict) -> list[str]:
    """One line per moved body or record, body diffs, and the largest relative move."""
    lines = []
    for label in dict.fromkeys([*old["bodies"], *new["bodies"]]):
        a, b = old["bodies"].get(label, ""), new["bodies"].get(label, "")
        if a != b:
            lines.append(f"body moved: geoquant {label}")
            lines += difflib.unified_diff(a.splitlines(), b.splitlines(), "base", "new",
                                          lineterm="")
    worst, where = 0.0, ""
    for label in dict.fromkeys([*old["records"], *new["records"]]):
        a, b = old["records"].get(label), new["records"].get(label)
        if a != b:
            lines.append(f"record moved: {label}: {a} -> {b}")
            move = _relative_move(a, b)
            if move >= worst:
                worst, where = move, label
    if where:
        lines.append(f"largest relative move: {worst:.3g} at {where}")
    return lines


def unpack(rev: str, dest: Path) -> str:
    """Write the committed tree of ``rev`` to ``dest``; return its commit id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = dest / "tree.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), sha],
                   check=True, capture_output=True, text=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)],
                   check=True, capture_output=True, text=True)
    archive.unlink()
    return sha


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    runs, tasks = demo_runs(), workload_tasks()
    try:
        with tempfile.TemporaryDirectory(prefix="same-results-") as tmp:
            sha = unpack(args.base, Path(tmp))
            old = results(Path(tmp), runs, tasks)
        new = results(ROOT, runs, tasks)
    except subprocess.CalledProcessError as exc:
        print(f"{' '.join(exc.cmd[:3])} failed:\n{exc.stderr.strip()}", file=sys.stderr)
        return 2
    lines = compare(old, new)
    print("\n".join(lines + [
        f"base {args.base} ({sha[:12]}) against the working tree: "
        f"{len(old['bodies'])} report bodies and {len(old['records'])} verification records, "
        + ("no moves" if not lines else "MOVED")]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
