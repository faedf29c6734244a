"""Environment stamp written into every results file."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        info = {}
    return {"name": info.get("name", "unknown"), "version": info.get("version", "unknown")}


def git_state(root: Path) -> dict:
    """HEAD and a dirty flag, or "unknown" outside a git work tree of ``root``."""

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != root.resolve():
            raise ValueError("not the top of a work tree")
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError, ValueError):
        return {"sha": "unknown", "dirty": None}


def stamp(root: Path, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "default"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git": git_state(root),
        "seed": seed,
    }
