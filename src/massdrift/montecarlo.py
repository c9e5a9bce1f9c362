"""Seeded walker ensembles on homogeneous charts.

Exact evolution is impossible on these continuous charts, so mass retention is
estimated from independent walkers.  Reproducibility contract: walker i draws
its letters from Philox4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) keyed by (splitmix64(master_seed + (walker_offset + i)
* GOLDEN), 0); block j = 1, 2, ... of its stream is the cipher of the counter
(j, 0, 0, 0) and gives four doubles (u >> 11) * 2**-53, the stream of
``numpy.random.Generator(numpy.random.Philox(key=k)).random()``.  Identical
specs give byte-identical outputs and splitting an ensemble across runs merges
exactly.  All walkers' streams run as one array program, LETTER_BLOCK steps at
a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BoundednessViolation, NonFiniteProxy, PingPongViolation,
                     SpecInvalid)
from .measures import StepLaw
from .models.schottky import (INVERSE, SchottkyGroup, core_distances,
                              generator_components, step_batch)
from .models.sl2 import reduce_batch, shortest_lengths

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
#: Philox4x64 round multipliers and Weyl key increments
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
#: steps of letters drawn at a time: a run holds n_walkers x LETTER_BLOCK
#: letters, not n_walkers x n_steps; a multiple of 4, the doubles per block
LETTER_BLOCK = 8
WILSON_Z = 1.959963984540054  # two-sided 95%

CSV_HEADER = ("n", "threshold", "retained_fraction", "wilson_lo", "wilson_hi",
              "n_walkers", "seed")

DEFAULT_THRESHOLDS = {
    "sl2-lattice": (0.05, 0.1, 0.2),
    "schottky": (2.0, 5.0, 10.0),
    "z-lattice": (10.0, 20.0, 50.0),
}


def splitmix64(x):
    """One step of the splitmix64 output function; the per-walker key schedule.
    Takes a Python int or a uint64 array, which wraps as the masks do."""
    x = (x + GOLDEN) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def walker_seed(master_seed: int, walker_index):
    """The key of a walker, or of each walker of a uint64 index array."""
    return splitmix64(((master_seed & MASK64) + walker_index * GOLDEN) & MASK64)


@dataclass(frozen=True)
class EnsembleSpec:
    """One walker ensemble, checked when built: the chart must map every
    generator of the law (z-lattice ids start with "+" or "-", the sl2 charts
    take a/A/b/B), generator matrices must have determinant one and be in
    ping-pong position, and every snapshot step must lie in 0..n_steps."""
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
        for n in self.snapshot_schedule:
            if not 0 <= n <= self.n_steps:
                raise ValueError(
                    f"snapshot step {n} is outside the run's 0..{self.n_steps}")
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
    """The generators as the chart's walk reads them, and the Schottky group.

    z-lattice: the step of each letter; sl2-lattice: rows g00, g01, g10, g11
    of the half-plane matrices, (4, k); schottky: ``generator_components`` of
    the disk matrices, (8, k).
    """
    ids = [g.id for g in spec.mu.support]
    if spec.chart == "z-lattice":
        steps = np.array([1 if str(i).startswith("+") else -1 for i in ids],
                         dtype=np.int64)
        return steps, None
    group = _chart_group(spec)
    if spec.chart == "schottky":
        return generator_components([group.disk[i] for i in ids]), group
    mats = np.stack([group.halfplane[i] for i in ids])
    return np.ascontiguousarray(mats.reshape(-1, 4).T), group


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of m * x.  numpy has no 128-bit product, so
    the high half is summed from products of 32-bit halves; no partial sum
    exceeds 2**64 - 1."""
    low, half = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & low, x >> half
    t = x_hi * m_lo + (x_lo * m_lo >> half)
    u = x_lo * m_hi + (t & low)
    return x_hi * m_hi + (t >> half) + (u >> half), x * np.uint64(m)


def philox_uniforms(keys: np.ndarray, first_block: int,
                    n_blocks: int) -> np.ndarray:
    """Doubles 4 * first_block ... 4 * (first_block + n_blocks) - 1 of each
    key's stream, (4 * n_blocks, len(keys)): Philox4x64-10 of the counters
    (first_block + 1, 0, 0, 0), ... under the keys (key, 0)."""
    shape = (n_blocks, len(keys))
    x0 = np.broadcast_to(np.arange(first_block + 1, first_block + n_blocks + 1,
                                   dtype=np.uint64)[:, None], shape)
    x1 = x2 = x3 = np.zeros(shape, dtype=np.uint64)
    for r in range(10):
        k0 = keys + np.uint64(r * PHILOX_W[0] & MASK64)
        k1 = np.uint64(r * PHILOX_W[1] & MASK64)
        hi0, lo0 = _mulhilo(PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    bits = np.stack((x0, x1, x2, x3), axis=1).reshape(4 * n_blocks, len(keys))
    return (bits >> np.uint64(11)) * 2.0 ** -53


def _letter_blocks(spec: EnsembleSpec):
    """Each walker's letter indices, LETTER_BLOCK steps at a time, as
    (steps, n_walkers) arrays."""
    cum = np.cumsum([w for _, w in spec.mu.atoms])
    cum[-1] = 1.0
    keys = walker_seed(spec.master_seed, np.arange(
        spec.walker_offset, spec.walker_offset + spec.n_walkers,
        dtype=np.uint64))
    for t0 in range(0, spec.n_steps, LETTER_BLOCK):
        steps = min(LETTER_BLOCK, spec.n_steps - t0)
        u = philox_uniforms(keys, t0 // 4, -(-steps // 4))[:steps]
        # the letter is the number of cumulative weights <= u, as
        # np.searchsorted(cum, u, side="right") finds it, several times faster
        letters = np.zeros(u.shape, dtype=np.intp)
        for c in cum[:-1]:
            letters += u >= c
        yield letters


def _walk(spec: EnsembleSpec, gens: np.ndarray):
    """Yield (n, state) for n = 0, ..., n_steps, the state being every
    walker's chart point as component arrays: (position,) on the z-lattice,
    the basis (a, b, c, d) on sl2-lattice, the matrix row
    (re x, im x, re y, im y) on schottky.  Arrays yielded are not modified
    later."""
    n = spec.n_walkers
    t = 0
    if spec.chart == "z-lattice":
        pos = np.zeros(n, dtype=np.int64)
        yield 0, (pos,)
        for letters in _letter_blocks(spec):
            path = pos + np.cumsum(gens[letters], axis=0)
            for pos in path:
                t += 1
                yield t, (pos,)
        return
    # the identity: basis e1, e2; matrix row (1, 0)
    state = (np.ones(n), np.zeros(n), np.zeros(n),
             np.ones(n) if spec.chart == "sl2-lattice" else np.zeros(n))
    yield 0, state
    for letters in _letter_blocks(spec):
        for k in letters:
            t += 1
            if spec.chart == "schottky":
                state = step_batch(state, gens, k)
            else:
                p, q, r, s = gens[:, k]
                a, b, c, d = state
                state = reduce_batch((p * a + q * c, p * b + q * d,
                                      r * a + s * c, r * b + s * d))
            yield t, state


def _retained(spec: EnsembleSpec, proxies: np.ndarray, thr: float) -> np.ndarray:
    if spec.chart == "sl2-lattice":
        return proxies >= thr
    return proxies <= thr   # schottky core distance, z-lattice |position|


def run_ensemble(spec: EnsembleSpec) -> RetentionCurve:
    """Evolve the ensemble and report retention fractions with 95% intervals."""
    gens, group = _chart_generators(spec)
    schedule = set(spec.snapshot_schedule)
    rows: list[RetentionRow] = []
    for n, state in _walk(spec, gens):
        if n not in schedule:
            continue
        if spec.chart == "z-lattice":
            proxies = np.abs(state[0]).astype(float)
        elif spec.chart == "sl2-lattice":
            proxies = shortest_lengths(state)
        else:
            proxies = core_distances(group, state)
        # NaN compares False with every threshold: it must not read as escaped
        if not np.isfinite(proxies).all():
            raise NonFiniteProxy(f"a walker's escape proxy is not finite at step {n}")
        for thr in spec.proxy_thresholds:
            k = int(np.count_nonzero(_retained(spec, proxies, thr)))
            rows.append(_row(n, thr, k, spec.n_walkers, spec.master_seed))
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
