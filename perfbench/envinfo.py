"""The environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import threading
from pathlib import Path


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def loadavg() -> list:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def thread_count() -> int:
    """Threads of this process, native BLAS threads included where visible."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def blas_threads():
    """Thread count of the OpenBLAS loaded by numpy, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_state(root: Path) -> dict:
    """Commit and dirtiness of the checkout; None where it is not a git tree."""
    if not (root / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        res = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                             env=env, timeout=30)
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status)}


def environment(root: Path, load_before: list) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        **git_state(root),
    }
