"""A fixed reference loop that measures how fast the machine runs right now.

The hosts this benchmark runs on are shared: each vCPU switches between
speeds about 1.5x apart, for seconds to minutes at a time, so two runs of the
same code can read 30 % apart in plain wall time.  ``run.py`` pins itself to
one CPU and times this loop next to every job (before and after it) and next
to every set-up.  It then states each measured time at the reference speed,
the speed at which the loop takes ``REFERENCE_S``:

    time at reference speed = measured time * REFERENCE_S / loop time

The loop uses only the standard library, numpy and scipy, never massdrift, so
a change to the program cannot change it.  Its three parts mirror what the
workloads spend their time on: interpreter-bound Python (function calls,
dicts, tuples, floats), many tiny numpy/scipy calls, and a sparse matvec and
vector arithmetic on arrays larger than the L2 cache.
"""
from __future__ import annotations

import gc
import math
import time

import numpy as np
import scipy.sparse as sp

#: about the loop's time in the faster of the two speeds of the machine the
#: benchmark was written on (2 vCPUs of an Intel Xeon at 2.1 GHz, Python
#: 3.11.7, numpy 2.4.6, scipy 1.17.1); in its slower phases it takes 0.07-0.09 s
REFERENCE_S = 0.060

_BIG_N = 100_000
_SMALL_N = 64


def _step(i: int, table: dict) -> float:
    key = (i & 63, i % 7)
    table[key] = table.get(key, 0.0) + math.sqrt(i)
    return table[key] * 0.5


class ReferenceLoop:
    """The loop and its fixed inputs (about 6 MiB, built once)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # four entries a row, built as CSR directly: no COO temporaries
        nnz = 4 * _BIG_N
        self.big = sp.csr_matrix(
            (rng.random(nnz), rng.integers(0, _BIG_N, nnz, dtype=np.int32),
             np.arange(0, nnz + 1, 4, dtype=np.int32)),
            shape=(_BIG_N, _BIG_N))
        self.x = rng.random(_BIG_N)
        self.small = sp.random(_SMALL_N, _SMALL_N, density=0.1,
                               format="csr", random_state=1)
        self.y = rng.random(_SMALL_N)

    def work(self) -> float:
        table: dict = {}
        acc = 0.0
        for i in range(32000):
            acc += _step(i, table)
        y = self.y
        for _ in range(2400):
            y = self.small @ y
            y = y / (np.abs(y).sum() + 1.0)
        x = self.x
        for _ in range(40):
            x = self.big @ x
            x = np.minimum(x, 1.0) * 0.5 + 0.25
        return acc + float(y.sum()) + float(x.sum())

    def time(self) -> float:
        """Seconds the loop takes now.  The garbage collector is held off, so
        that the loop does not pay for collecting what a job left behind."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
