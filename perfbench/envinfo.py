"""Environment block written with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

LIMITS = (
    "no CPU pinning, no frequency-governor control and no cache dropping: the machine is shared, "
    "so the numbers include other tenants' noise; the BLAS thread setting is reported as found, never changed"
)
WAIT_TIME = "none: one thread, one closed-loop client and no queues, so no layer has a wait time"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _openblas_runtime() -> dict:
    """Ask the OpenBLAS library numpy loaded for its thread count and config (read-only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"library": os.path.basename(path), "threads": get_threads(), "config": get_config().decode()}
    return {}


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"head": None, "dirty": None, "note": "not a git checkout"}
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, env=env, check=True, timeout=30).stdout.decode().strip()

    try:
        return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError) as exc:
        return {"head": None, "dirty": None, "note": f"git unavailable: {exc}"}


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "runtime": _openblas_runtime()},
        "blas_thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git": _git(root),
        "seed": seed,
        "limits": LIMITS,
        "wait_time": WAIT_TIME,
    }
