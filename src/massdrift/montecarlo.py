"""Seeded walker ensembles on homogeneous charts.

Exact evolution is impossible on these continuous charts, so mass retention is
estimated from independent walkers.  Reproducibility contract: walker i draws
its letters from a counter-based generator keyed by
splitmix64(master_seed + (walker_offset + i) * GOLDEN), so identical specs give
byte-identical outputs and splitting an ensemble across runs merges exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BoundednessViolation, NonFiniteProxy, PingPongViolation,
                     SpecInvalid)
from .measures import StepLaw
from .models.schottky import INVERSE, SchottkyGroup, core_distances, step_batch
from .models.sl2 import reduce_batch, shortest_lengths

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
WILSON_Z = 1.959963984540054  # two-sided 95%

CSV_HEADER = ("n", "threshold", "retained_fraction", "wilson_lo", "wilson_hi",
              "n_walkers", "seed")

DEFAULT_THRESHOLDS = {
    "sl2-lattice": (0.05, 0.1, 0.2),
    "schottky": (2.0, 5.0, 10.0),
    "z-lattice": (10.0, 20.0, 50.0),
}


def splitmix64(x: int) -> int:
    """One step of the splitmix64 output function; the per-walker key schedule."""
    x = (x + GOLDEN) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def walker_seed(master_seed: int, walker_index: int) -> int:
    return splitmix64((master_seed + walker_index * GOLDEN) & MASK64)


@dataclass(frozen=True)
class EnsembleSpec:
    """One walker ensemble, checked when built: the chart must map every
    generator of the law (z-lattice ids start with "+" or "-", the sl2 charts
    take a/A/b/B), and generator matrices must have determinant one and be in
    ping-pong position."""
    chart: str                                  # sl2-lattice | schottky | z-lattice
    mu: StepLaw
    n_walkers: int
    n_steps: int
    master_seed: int
    snapshot_schedule: tuple[int, ...] = ()
    proxy_thresholds: tuple[float, ...] = ()
    walker_offset: int = 0
    generator_a: tuple | None = None            # row-major 2x2, sl2 charts only
    generator_b: tuple | None = None

    def __post_init__(self):
        if self.chart not in DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be >= 1")
        for g in self.mu.support:
            known = str(g.id)[:1] in ("+", "-") if self.chart == "z-lattice" \
                else g.id in INVERSE
            if not known:
                raise ValueError(f"the {self.chart} chart has no generator {g.id!r}")
        if self.chart != "z-lattice":
            try:
                _chart_group(self)
            except BoundednessViolation:
                pass    # the escape hypothesis fails: run_ensemble reports it
            except PingPongViolation as e:
                raise SpecInvalid(str(e)) from e
        if not self.snapshot_schedule:
            object.__setattr__(self, "snapshot_schedule",
                               tuple(sorted({self.n_steps // 4, self.n_steps // 2,
                                             3 * self.n_steps // 4, self.n_steps})))
        if not self.proxy_thresholds:
            object.__setattr__(self, "proxy_thresholds",
                               DEFAULT_THRESHOLDS[self.chart])


@dataclass(frozen=True)
class RetentionRow:
    n: int
    threshold: float
    retained_fraction: float
    wilson_lo: float
    wilson_hi: float
    n_walkers: int
    seed: int
    retained: int       # walkers retained; the fraction is retained / n_walkers

    def as_tuple(self) -> tuple:
        return (self.n, self.threshold, self.retained_fraction,
                self.wilson_lo, self.wilson_hi, self.n_walkers, self.seed)


@dataclass
class RetentionCurve:
    spec: EnsembleSpec
    rows: list[RetentionRow]

    def fraction(self, n: int, threshold: float) -> float:
        for r in self.rows:
            if r.n == n and r.threshold == threshold:
                return r.retained_fraction
        raise KeyError((n, threshold))


@dataclass
class ContrastReport:
    finite: RetentionCurve
    infinite: RetentionCurve
    #: (n, threshold_index, finite fraction - infinite fraction)
    gaps: list[tuple[int, int, float]] = field(default_factory=list)


def wilson_interval(p: float, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # at the degenerate endpoints the bound equals the endpoint exactly;
    # recompute it there so rounding cannot exclude the true value
    lo = 0.0 if p == 0.0 else max(0.0, center - half)
    hi = 1.0 if p == 1.0 else min(1.0, center + half)
    return lo, hi


def _row(n: int, threshold: float, retained: int, n_walkers: int,
         seed: int) -> RetentionRow:
    p = retained / n_walkers
    lo, hi = wilson_interval(p, n_walkers)
    return RetentionRow(n, threshold, p, lo, hi, n_walkers, seed, retained)


def _spectral_radius(m: np.ndarray) -> float:
    return float(max(abs(np.linalg.eigvals(m))))


def _chart_group(spec: EnsembleSpec) -> SchottkyGroup:
    """The Schottky group of an sl2 chart, from the spec's generator matrices."""
    gen_a = np.array(spec.generator_a) if spec.generator_a else None
    gen_b = np.array(spec.generator_b) if spec.generator_b else None
    supplied = [m for m in (gen_a, gen_b) if m is not None]
    if supplied and all(_spectral_radius(m) <= 1.0 + 1e-9 for m in supplied):
        raise BoundednessViolation(
            "all generators are elliptic/bounded; escape hypothesis fails")
    return SchottkyGroup(a=gen_a, b=gen_b)


def _chart_generators(spec: EnsembleSpec):
    """Generator symbol order, matrices, and the retained predicate for the chart."""
    ids = [g.id for g in spec.mu.support]
    if spec.chart == "z-lattice":
        steps = np.array([1 if str(i).startswith("+") else -1 for i in ids],
                         dtype=np.int64)
        return ids, steps, None
    group = _chart_group(spec)
    source = group.disk if spec.chart == "schottky" else group.halfplane
    mats = np.stack([source[i] for i in ids])
    return ids, mats, group


def _letters(spec: EnsembleSpec) -> np.ndarray:
    """Per-walker letter indices, (n_walkers, n_steps), from counter-based streams."""
    cum = np.cumsum([w for _, w in spec.mu.atoms])
    cum[-1] = 1.0
    out = np.empty((spec.n_walkers, spec.n_steps), dtype=np.int64)
    for i in range(spec.n_walkers):
        key = walker_seed(spec.master_seed, spec.walker_offset + i)
        rng = np.random.Generator(np.random.Philox(key=key))
        out[i] = np.searchsorted(cum, rng.random(spec.n_steps), side="right")
    return out


def _retained(spec: EnsembleSpec, proxies: np.ndarray, thr: float) -> np.ndarray:
    if spec.chart == "sl2-lattice":
        return proxies >= thr
    return proxies <= thr   # schottky core distance, z-lattice |position|


def run_ensemble(spec: EnsembleSpec) -> RetentionCurve:
    """Evolve the ensemble and report retention fractions with 95% intervals."""
    ids, gen_data, group = _chart_generators(spec)
    letters = _letters(spec)
    schedule = set(spec.snapshot_schedule)
    rows: list[RetentionRow] = []

    def record(n: int, proxies: np.ndarray):
        # NaN compares False with every threshold: it must not read as escaped
        if not np.isfinite(proxies).all():
            raise NonFiniteProxy(f"a walker's escape proxy is not finite at step {n}")
        for thr in spec.proxy_thresholds:
            k = int(np.count_nonzero(_retained(spec, proxies, thr)))
            rows.append(_row(n, thr, k, spec.n_walkers, spec.master_seed))

    if spec.chart == "z-lattice":
        pos = np.zeros(spec.n_walkers, dtype=np.int64)
        if 0 in schedule:
            record(0, np.abs(pos).astype(float))
        for t in range(spec.n_steps):
            pos += gen_data[letters[:, t]]
            if t + 1 in schedule:
                record(t + 1, np.abs(pos).astype(float))
        return RetentionCurve(spec, rows)

    if spec.chart == "sl2-lattice":
        bases = np.broadcast_to(np.eye(2), (spec.n_walkers, 2, 2)).copy()
        if 0 in schedule:
            record(0, shortest_lengths(bases))
        for t in range(spec.n_steps):
            bases = np.einsum("nij,njk->nik", gen_data[letters[:, t]], bases)
            bases = reduce_batch(bases)
            if t + 1 in schedule:
                record(t + 1, shortest_lengths(bases))
        return RetentionCurve(spec, rows)

    # schottky
    mats = np.broadcast_to(np.eye(2, dtype=complex),
                           (spec.n_walkers, 2, 2)).copy()
    if 0 in schedule:
        record(0, core_distances(group, mats))
    for t in range(spec.n_steps):
        mats = step_batch(mats, gen_data, letters[:, t])
        if t + 1 in schedule:
            record(t + 1, core_distances(group, mats))
    return RetentionCurve(spec, rows)


def compare_volumes(spec_finite: EnsembleSpec,
                    spec_infinite: EnsembleSpec) -> ContrastReport:
    """Run the finite-volume and infinite-volume charts side by side.

    Specs must share the law skeleton (same number of atoms, same weights) and
    the same seed, so the letter streams coincide walker by walker.
    """
    wf = [w for _, w in spec_finite.mu.atoms]
    wi = [w for _, w in spec_infinite.mu.atoms]
    if wf != wi:
        raise ValueError("law skeletons differ between the two specs")
    if spec_finite.master_seed != spec_infinite.master_seed:
        raise ValueError("contrast runs must share the master seed")
    cf = run_ensemble(spec_finite)
    ci = run_ensemble(spec_infinite)
    gaps = []
    for n in spec_finite.snapshot_schedule:
        if n not in spec_infinite.snapshot_schedule:
            continue
        for j, (tf, ti) in enumerate(zip(spec_finite.proxy_thresholds,
                                         spec_infinite.proxy_thresholds)):
            gaps.append((n, j, cf.fraction(n, tf) - ci.fraction(n, ti)))
    return ContrastReport(cf, ci, gaps)


def split_run(spec: EnsembleSpec, n_first: int) -> RetentionCurve:
    """Run the ensemble as two walker blocks and merge; must equal one run."""
    s1 = replace(spec, n_walkers=n_first)
    s2 = replace(spec, n_walkers=spec.n_walkers - n_first,
                 walker_offset=spec.walker_offset + n_first)
    c1, c2 = run_ensemble(s1), run_ensemble(s2)
    rows = [_row(r1.n, r1.threshold, r1.retained + r2.retained,
                 spec.n_walkers, spec.master_seed)
            for r1, r2 in zip(c1.rows, c2.rows)]
    return RetentionCurve(spec, rows)
