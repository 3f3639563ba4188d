"""Record of the machine and settings a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    """Unified and data cache sizes of cpu0, keyed ``L1d``, ``L2``, ``L3``."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        base = Path(index)
        level, kind, size = (_read(base / n) for n in ("level", "type", "size"))
        if level and kind in ("Data", "Unified") and size:
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _openblas_threads(package_dir: str) -> int | None:
    """Thread count reported by an OpenBLAS bundled next to a package."""
    for lib_path in glob.glob(os.path.join(package_dir + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_record() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "numpy_threads": _openblas_threads(os.path.dirname(np.__file__)),
        "scipy_threads": _openblas_threads(os.path.dirname(scipy.__file__)),
        "requested_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_commit(root: Path) -> str:
    """Commit of a checkout, read from ``.git`` without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(git / ref)
    if loose:
        return loose
    for line in (_read(git / "packed-refs") or "").splitlines():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def machine_record(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "git_commit": git_commit(root),
    }
