"""Locate the geoquant sources of the checkout this benchmark sits in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: BLAS threads for every process the benchmark runs (at most nproc)
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the path, or exit with status 2."""
    if not (SRC / "geoquant" / "__init__.py").is_file():
        print(f"perfbench: no geoquant sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
