"""Unimodular-lattice chart for walks on the space of lattices in the plane.

A point is a determinant-one basis matrix whose columns span a lattice; bases
differing by integer column operations represent the same point.  The shortest
nonzero lattice vector is the compactness proxy: a set of lattices is
precompact exactly when the shortest length is bounded below.

A batch of bases [[a, b], [c, d]] is held as four (n,) component arrays
``(a, b, c, d)``: the columns are (a, c) and (b, d).
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateBasis

#: slack on the Gauss condition |<b0, b1>| <= |b0|^2 / 2 for a basis whose
#: reduction ends in a rounding tie (see ``reduce_batch``)
TIE_TOL = 1e-9


def _gauss_step(a, b, c, d):
    """Swap so the shorter column comes first (sign flip keeps det +1), then
    subtract the rounded projection m of the second column on the first."""
    n0 = a * a + c * c
    n1 = b * b + d * d
    swap = n0 > n1
    if swap.any():
        a, b, c, d = (np.where(swap, b, a), np.where(swap, -a, b),
                      np.where(swap, d, c), np.where(swap, -c, d))
        n0 = np.where(swap, n1, n0)
    m = np.round((a * b + c * d) / n0)
    return (a, b - m * a, c, d - m * c), m


def reduce_batch(basis: tuple, max_iter: int = 64) -> tuple:
    """Gauss-reduce a batch of bases given as components (a, b, c, d).

    Only the walkers whose last step changed their basis (m != 0) are stepped
    again; a basis with m == 0 is a fixed point of the step, so the result
    equals stepping every walker until all are reduced.  At a tie, dot/n0
    within rounding of +-1/2, a step can flip the sign of the ratio without
    lowering it, and the walker alternates between two bases that are both
    reduced.  Such a basis is accepted after ``max_iter`` steps; only a basis
    that still breaks the Gauss condition raises.
    """
    out, m = _gauss_step(*(np.array(x, dtype=float) for x in basis))
    rows = np.flatnonzero(m)
    for _ in range(max_iter - 1):
        if not rows.size:
            return out
        stepped, m = _gauss_step(*(x[rows] for x in out))
        for x, y in zip(out, stepped):
            x[rows] = y
        rows = rows[m != 0]
    if not rows.size:
        return out
    a, b, c, d = (x[rows] for x in out)
    n0 = np.minimum(a * a + c * c, b * b + d * d)
    if np.all(np.abs((a * b + c * d) / n0) <= 0.5 + TIE_TOL):
        return out
    raise DegenerateBasis("batched reduction did not terminate")


def shortest_lengths(basis: tuple) -> np.ndarray:
    """Shortest vector length per reduced basis (a, b, c, d)."""
    a, b, c, d = basis
    return np.minimum(np.sqrt(a * a + c * c), np.sqrt(b * b + d * d))
