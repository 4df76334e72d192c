"""What the benchmark ran on: interpreter, numpy, BLAS, CPU and caches."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="ascii").strip()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict[str, int]:
    """Cache sizes of CPU 0 in KiB, keyed like ``L1d``, ``L2``, ``L3``."""
    out: dict[str, int] = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = _read(f"{d}/level"), _read(f"{d}/type"), _read(f"{d}/size")
        if not (level and size.endswith("K")):
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = int(size[:-1])
    return out


def blas_threads(np) -> tuple[str, int | None]:
    """BLAS name and version as numpy reports it, and its live thread count.

    The thread count is asked of the loaded OpenBLAS itself; it is None when
    the library or its query function cannot be found.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def environment(np) -> dict:
    name, threads = blas_threads(np)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": name,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "cache_kib": caches(),
    }


def cache_note(cache_kib: dict[str, int], grids: tuple[int, ...] = (128, 256)) -> str:
    """Say which field sizes fit in L2, and why no bandwidth figure is given."""
    l2 = cache_kib.get("L2")
    parts = []
    for M in grids:
        kib = M * M * 8 // 1024
        fits = "fits in" if l2 and kib <= l2 else "exceeds"
        parts.append(f"M={M} field {kib} KiB {fits} L2 ({l2} KiB)")
    return (
        "; ".join(parts)
        + ". No bandwidth or roofline figure is reported; operation counts"
        " and computed bytes only."
    )
