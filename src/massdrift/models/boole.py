"""Orbits of the map x -> x - 1/x, which preserves Lebesgue measure on the line.

This is the standard conservative infinite-measure Z-action: almost every
orbit returns near its start infinitely often, yet the occupation fraction of
any fixed window tends to zero.  Orbits are iterated in extended precision and
a per-step local rounding bound is tracked so recurrence statistics can be
trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import OrbitSingular

SINGULAR_EPS = 1e-12
_LD_EPS = float(np.finfo(np.longdouble).eps)


def preimage_jacobian_sum(x: float) -> float:
    """Sum of 1/|T'| over the two preimages of x; equals 1 iff length is preserved."""
    disc = math.sqrt(x * x + 4.0)
    total = 0.0
    for y in ((x + disc) / 2.0, (x - disc) / 2.0):
        total += 1.0 / abs(1.0 + 1.0 / (y * y))
    return total


@dataclass(frozen=True)
class BooleOrbitSpec:
    start_points: tuple[float, ...]
    horizon: int
    window_halfwidth: float = 10.0
    revisit_radius: float = 1.0

    def validate(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.start_points:
            raise ValueError("need at least one start point")
        for x in self.start_points:
            if abs(x) < SINGULAR_EPS:
                raise ValueError(f"start point {x} too close to the pole at 0")


@dataclass
class OrbitRecord:
    start: float
    occupation_curve: list[tuple[int, float]]   # (n, window occupation fraction up to n)
    revisit_times: list[int]
    drift_bound: float                          # max local rounding error of one step
    final_fraction: float = field(init=False)

    def __post_init__(self):
        self.final_fraction = self.occupation_curve[-1][1]


@dataclass
class BooleOrbitReport:
    spec: BooleOrbitSpec
    orbits: list[OrbitRecord]


def _checkpoints(n: int) -> list[int]:
    """Roughly log-spaced step counts up to n, always including n itself."""
    pts = sorted({int(round(10 ** (k / 8))) for k in range(0, 8 * 10)})
    return [p for p in pts if 1 <= p < n] + [n]


def boole_orbit(spec: BooleOrbitSpec, max_revisits: int = 10_000) -> BooleOrbitReport:
    """Iterate each start point, tracking window occupation and revisits.

    Iteration runs in extended precision; the reported drift bound is the
    largest single-step local rounding error eps*(|x| + 1/|x|) seen along the
    orbit (chaotic stretching forbids a meaningful global forward bound, so
    statistics are what extended precision protects).
    """
    spec.validate()
    orbits = []
    checkpoints = _checkpoints(spec.horizon)
    for start in spec.start_points:
        x0 = np.longdouble(start)
        x = x0
        in_window = 0
        revisits: list[int] = []
        drift = 0.0
        curve = []
        ci = 0
        for n in range(1, spec.horizon + 1):
            ax = abs(float(x))
            if ax < SINGULAR_EPS:
                raise OrbitSingular(
                    f"orbit of {start} hit |x|={ax:.2e} at step {n}; reseed")
            drift = max(drift, _LD_EPS * (ax + 1.0 / ax))
            x = x - 1.0 / x
            if abs(float(x)) <= spec.window_halfwidth:
                in_window += 1
            if len(revisits) < max_revisits and \
                    abs(float(x - x0)) < spec.revisit_radius:
                revisits.append(n)
            if ci < len(checkpoints) and n == checkpoints[ci]:
                curve.append((n, in_window / n))
                ci += 1
        orbits.append(OrbitRecord(start, curve, revisits, drift))
    return BooleOrbitReport(spec, orbits)
