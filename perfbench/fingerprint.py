"""The hardware and software a benchmark record was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np

#: environment variables that set BLAS / OpenMP thread counts
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    info = {"name": "unknown", "version": "unknown"}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info = {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except (TypeError, KeyError):
        pass
    # unset means the library default: OpenBLAS uses one thread per core
    info["threads"] = {name: os.environ.get(name) for name in _THREAD_VARIABLES}
    return info


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over ``src/repro``'s Python files: identifies the code measured
    where no git commit is available (a plain source checkout)."""
    digest = hashlib.sha256()
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path, inputs_digest: str) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "inputs_digest": inputs_digest,
    }
