"""Thread caps and the environment record attached to every result.

Nothing here imports numpy at module level: ``apply_thread_caps`` must run
before numpy loads OpenBLAS, which reads the caps once at start-up.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

# The workloads are one closed-loop caller on matrices of dimension <= 64;
# BLAS threads only add contention on a small shared machine.
THREAD_CAPS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def apply_thread_caps() -> None:
    os.environ.update(THREAD_CAPS)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is itself a git checkout, else None.

    Only a ``.git`` inside ``root`` is consulted, so git never searches the
    directories above the checkout.
    """
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "entbounds").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_caps": dict(THREAD_CAPS),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "workload_seed": seed,
    }
