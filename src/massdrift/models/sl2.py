"""Unimodular-lattice chart for walks on the space of lattices in the plane.

A point is a determinant-one basis matrix whose columns span a lattice; bases
differing by integer column operations represent the same point.  The shortest
nonzero lattice vector is the compactness proxy: a set of lattices is
precompact exactly when the shortest length is bounded below.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateBasis

#: slack on the Gauss condition |<b0, b1>| <= |b0|^2 / 2 for a basis whose
#: reduction ends in a rounding tie (see ``reduce_batch``)
TIE_TOL = 1e-9


def reduce_batch(bases: np.ndarray, max_iter: int = 64) -> np.ndarray:
    """Gauss-reduce a stack of bases (n, 2, 2) in place, vectorized.

    At a tie, dot/n0 within rounding of +-1/2, a step can flip the sign of the
    ratio without lowering it, and the loop alternates between two bases that
    are both reduced.  Such a basis is accepted after ``max_iter`` steps; only
    a basis that still breaks the Gauss condition raises.
    """
    b = bases
    for _ in range(max_iter):
        n0 = b[:, 0, 0] ** 2 + b[:, 1, 0] ** 2
        n1 = b[:, 0, 1] ** 2 + b[:, 1, 1] ** 2
        swap = n0 > n1
        if swap.any():
            b[swap] = np.stack((b[swap][:, :, 1], -b[swap][:, :, 0]), axis=2)
            n0 = np.where(swap, n1, n0)
        dot = b[:, 0, 0] * b[:, 0, 1] + b[:, 1, 0] * b[:, 1, 1]
        m = np.round(dot / n0)
        if not m.any():
            return b
        b[:, :, 1] -= m[:, None] * b[:, :, 0]
    n0 = np.minimum(b[:, 0, 0] ** 2 + b[:, 1, 0] ** 2,
                    b[:, 0, 1] ** 2 + b[:, 1, 1] ** 2)
    dot = b[:, 0, 0] * b[:, 0, 1] + b[:, 1, 0] * b[:, 1, 1]
    if np.all(np.abs(dot / n0) <= 0.5 + TIE_TOL):
        return b
    raise DegenerateBasis("batched reduction did not terminate")


def shortest_lengths(bases: np.ndarray) -> np.ndarray:
    """Shortest vector length per reduced basis in a stack (n, 2, 2)."""
    n0 = np.sqrt(bases[:, 0, 0] ** 2 + bases[:, 1, 0] ** 2)
    n1 = np.sqrt(bases[:, 0, 1] ** 2 + bases[:, 1, 1] ** 2)
    return np.minimum(n0, n1)
