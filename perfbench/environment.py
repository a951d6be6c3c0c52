"""The environment a run measured in: interpreter, numpy, BLAS and threads."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

# thread-count getters exported by the OpenBLAS builds numpy ships with
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, found through the process's
    own memory map; None when no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def describe() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**_blas_info(), "threads": _openblas_threads()},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k.upper()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
