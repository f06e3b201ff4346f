"""The machine block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import time
from pathlib import Path

import numpy as np


# Mean time of reference_work() over 340 samples on the 2-CPU Xeon VM of the
# first baseline (see README.md).  Fixed, so that every run on every machine
# is scaled to that one speed.
REFERENCE_S = 0.0126

_ref_rng = np.random.default_rng(0)
_REF_V = _ref_rng.random((150, 500))
_REF_W = _ref_rng.random((150, 10))
_REF_H = _ref_rng.random((10, 500))
_REF_VALUES = _ref_rng.random(1500).tolist()


def reference_work() -> float:
    """Seconds taken by a fixed sample of the kinds of work the pipeline does.

    Multiplicative updates of a 150x500 rank-10 factorization (numpy and
    BLAS, as in ``fit``), about three quarters of the time, and writing and
    parsing numbers as text (the interpreter, as in the dataset and model
    files).  The text part is kept small because it swings more with the
    machine's speed than any stage does; at half the time or more it
    over-corrected the model stages.  Nothing in it comes from the program,
    so a change to the program cannot change its time.
    """
    start = time.perf_counter()
    V, W, H = _REF_V, _REF_W, _REF_H
    for _ in range(40):
        H = H * (W.T @ V) / (W.T @ W @ H + 1e-9)
        W = W * (V @ H.T) / (W @ (H @ H.T) + 1e-9)
    text = "\n".join(f"{i} {x!r}" for i, x in enumerate(_REF_VALUES))
    sum(float(line.split()[1]) for line in text.splitlines())
    return time.perf_counter() - start


def tree_digest(directory: Path) -> str:
    """SHA-256 over the files of a source tree, bytecode caches left out."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_bytes() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None when it cannot be found."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root),
        "src_sha256": tree_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
    }
