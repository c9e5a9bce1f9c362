"""The environment a benchmark result was measured in."""
from __future__ import annotations

import os
import platform
from pathlib import Path

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def caches() -> list[str]:
    """One "L<level> <type> <size>" entry per cache of the first CPU."""
    out = []
    for index in sorted(CACHE_DIR.glob("index*")):
        level, kind, size = (_read(index / f)
                             for f in ("level", "type", "size"))
        if level and size:
            out.append(f"L{level} {kind} {size}")
    return out


def blas() -> dict:
    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {k: deps.get(k, {}) for k in ("blas", "lapack")}


def collect() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }
