"""The environment a result was measured in, recorded with every result."""

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys

import numpy as np

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    lib_dirs = [os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")]
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas.get("lib directory"):
        lib_dirs.append(blas["lib directory"])
    for lib_dir in lib_dirs:
        for path in sorted(glob.glob(os.path.join(lib_dir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in _THREAD_SYMBOLS:
                if hasattr(lib, symbol):
                    func = getattr(lib, symbol)
                    func.restype = ctypes.c_int
                    return func()
    return None


def source_digest(root):
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "nfcrb", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    # only this checkout's own repository; never one that encloses it
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def describe(root):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
