import tracemalloc

import numpy as np
import pytest

from massdrift.errors import (BoundednessViolation, NonFiniteProxy,
                              SpecInvalid)
from massdrift.kernel import evolve
from massdrift.measures import GeneratorId, StepLaw
from massdrift.models import build_lattice_model
from massdrift.models.schottky import INVERSE, core_distances
from massdrift.models.sl2 import shortest_lengths
from massdrift.montecarlo import (LETTER_BLOCK, EnsembleSpec,
                                  _chart_generators, _chart_group,
                                  _letter_blocks, _walk, compare_volumes,
                                  philox_uniforms, run_ensemble, split_run,
                                  splitmix64, walker_seed, wilson_interval)
from test_models import (core_stack, schottky_step_stack, shortest_stack,
                         sl2_step_stack)


def z_walk_law():
    return StepLaw(((GeneratorId("+1", "-1"), 0.5),
                    (GeneratorId("-1", "+1"), 0.5)))


def free_law(weights):
    return StepLaw(tuple(
        (GeneratorId(s, INVERSE[s]), w) for s, w in weights.items()))


FREE4 = {"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25}


# -- walker oracles ----------------------------------------------------------
# One numpy Generator per walker, and einsum steps on (n, 2, 2) stacks: the
# library runs every stream as one array program on component arrays.

def letters_oracle(spec: EnsembleSpec) -> np.ndarray:
    """Per-walker letter indices, (n_walkers, n_steps)."""
    cum = np.cumsum([w for _, w in spec.mu.atoms])
    cum[-1] = 1.0
    out = np.empty((spec.n_walkers, spec.n_steps), dtype=np.int64)
    for i in range(spec.n_walkers):
        key = walker_seed(spec.master_seed, spec.walker_offset + i)
        rng = np.random.Generator(np.random.Philox(key=key))
        out[i] = np.searchsorted(cum, rng.random(spec.n_steps), side="right")
    return out


def walk_oracle(spec: EnsembleSpec):
    """Yield (n, stack, proxies) for n = 0..n_steps on an sl2 chart."""
    group = _chart_group(spec)
    ids = [g.id for g in spec.mu.support]
    letters = letters_oracle(spec)
    if spec.chart == "schottky":
        gens = np.stack([group.disk[i] for i in ids])
        mats = np.broadcast_to(np.eye(2, dtype=complex),
                               (spec.n_walkers, 2, 2)).copy()
        yield 0, mats, core_stack(group, mats)
        for t in range(spec.n_steps):
            mats = schottky_step_stack(mats, gens, letters[:, t])
            yield t + 1, mats, core_stack(group, mats)
        return
    gens = np.stack([group.halfplane[i] for i in ids])
    bases = np.broadcast_to(np.eye(2), (spec.n_walkers, 2, 2)).copy()
    yield 0, bases, shortest_stack(bases)
    for t in range(spec.n_steps):
        bases = sl2_step_stack(bases, gens, letters[:, t])
        yield t + 1, bases, shortest_stack(bases)


def streamed_letters(spec: EnsembleSpec) -> np.ndarray:
    """The library's letter blocks joined, (n_walkers, n_steps)."""
    blocks = list(_letter_blocks(spec))
    assert all(len(b) <= LETTER_BLOCK for b in blocks)
    return np.concatenate(blocks).T


class TestSeeding:
    def test_walker_seeds_distinct(self):
        seeds = {walker_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_splitmix_known_value(self):
        # reference value of the standard splitmix64 stream seeded at 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_offset_continues_the_stream(self):
        assert walker_seed(7, 3) == walker_seed(7 + 0, 3)
        assert walker_seed(7, 3) != walker_seed(8, 3)

    def test_array_keys_equal_scalar_keys(self):
        idx = [0, 1, 9630, 2**40 + 7]
        for master in (0, 42, -3, 2**64 - 1):
            keys = walker_seed(master, np.array(idx, dtype=np.uint64))
            assert keys.tolist() == [walker_seed(master, i) for i in idx]


class TestLetters:
    """The vectorised Philox against one numpy Generator per walker."""

    def test_uniforms_bit_equal_to_numpy_philox(self):
        keys = np.array([0, 1, 2**63, 2**64 - 1, walker_seed(42, 5)],
                        dtype=np.uint64)
        for first_block, n_blocks in ((0, 1), (0, 13), (7, 3)):
            u = philox_uniforms(keys, first_block, n_blocks)
            for j, k in enumerate(keys.tolist()):
                ref = np.random.Generator(np.random.Philox(key=k)).random(
                    4 * (first_block + n_blocks))[4 * first_block:]
                assert np.array_equal(u[:, j], ref)

    @pytest.mark.parametrize("n_steps", sorted(
        {1, 3, 4, 5, LETTER_BLOCK - 1, LETTER_BLOCK, LETTER_BLOCK + 1, 200}))
    def test_streamed_letters_equal_oracle(self, n_steps):
        spec = EnsembleSpec(chart="schottky", mu=free_law(
            {"a": 0.1, "A": 0.2, "b": 0.3, "B": 0.4}), n_walkers=37,
            n_steps=n_steps, master_seed=42, walker_offset=1000)
        assert np.array_equal(streamed_letters(spec), letters_oracle(spec))

    @pytest.mark.parametrize("chart, mu, n_walkers, offset", [
        ("sl2-lattice", free_law({"a": 0.5, "A": 0.5}), 1, 0),
        ("sl2-lattice", free_law({"a": 0.5, "A": 0.5}), 1, 9630),
        ("z-lattice", StepLaw(((GeneratorId("+1", "-1"), 0.3),
                               (GeneratorId("-1", "+1"), 0.7))), 50, 17),
        ("sl2-lattice", free_law(FREE4), 1, 2**40),
    ])
    def test_letters_for_any_law_and_offset(self, chart, mu, n_walkers,
                                            offset):
        spec = EnsembleSpec(chart=chart, mu=mu, n_walkers=n_walkers,
                            n_steps=3 * LETTER_BLOCK + 2, master_seed=7,
                            walker_offset=offset)
        assert np.array_equal(streamed_letters(spec), letters_oracle(spec))

    def test_letters_memory_is_one_block(self):
        """A 2000 x 2000 z-lattice run holds letters for one time block, not
        the 32 MB array of every letter."""
        spec = EnsembleSpec(chart="z-lattice", mu=z_walk_law(),
                            n_walkers=2000, n_steps=2000, master_seed=3)
        tracemalloc.start()
        try:
            run_ensemble(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2000 * 2000 / 16


class TestWalkOracle:
    """Every step's component arrays and proxies against einsum on stacks."""

    @pytest.mark.parametrize("spec", [
        EnsembleSpec(chart="sl2-lattice", mu=free_law(FREE4), n_walkers=300,
                     n_steps=60, master_seed=42),
        EnsembleSpec(chart="sl2-lattice", mu=free_law({"a": 0.5, "A": 0.5}),
                     n_walkers=100, n_steps=30, master_seed=1),
        # the one-walker +-1/2 tie (test_models TestSl2Lattice)
        EnsembleSpec(chart="sl2-lattice", mu=free_law(FREE4), n_walkers=1,
                     n_steps=18, master_seed=0, walker_offset=9630),
        EnsembleSpec(chart="schottky", mu=free_law(FREE4), n_walkers=300,
                     n_steps=60, master_seed=42),
        EnsembleSpec(chart="schottky", mu=free_law(
            {"a": 0.4, "A": 0.1, "b": 0.1, "B": 0.4}), n_walkers=50,
            n_steps=40, master_seed=9, walker_offset=123,
            generator_a=((4.0, 0.0), (0.0, 0.25))),
    ], ids=["sl2", "sl2-diagonal", "sl2-tie", "schottky", "schottky-custom"])
    def test_components_bit_equal_every_step(self, spec):
        gens, group = _chart_generators(spec)
        oracle = walk_oracle(spec)
        for (n, state), (m, stack, proxies) in zip(_walk(spec, gens), oracle,
                                                    strict=True):
            assert n == m
            if spec.chart == "schottky":
                expect = (stack[:, 0, 0].real, stack[:, 0, 0].imag,
                          stack[:, 0, 1].real, stack[:, 0, 1].imag)
                got = core_distances(group, state)
            else:
                expect = tuple(stack[:, i, j] for i in (0, 1) for j in (0, 1))
                got = shortest_lengths(state)
            assert all(np.array_equal(x, y) for x, y in zip(state, expect))
            assert np.array_equal(got, proxies)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(0.3, 100)
        assert lo < 0.3 < hi

    def test_clipped_to_unit_interval(self):
        lo, hi = wilson_interval(0.0, 10)
        assert lo == 0.0
        lo, hi = wilson_interval(1.0, 10)
        assert hi == 1.0
        assert lo < 1.0

    def test_shrinks_with_sample_size(self):
        lo1, hi1 = wilson_interval(0.5, 100)
        lo2, hi2 = wilson_interval(0.5, 10_000)
        assert hi2 - lo2 < hi1 - lo1


class TestDeterminism:
    def test_identical_specs_identical_rows(self):
        spec = EnsembleSpec(chart="z-lattice", mu=z_walk_law(),
                            n_walkers=500, n_steps=64, master_seed=11)
        a = run_ensemble(spec)
        b = run_ensemble(spec)
        assert [r.as_tuple() for r in a.rows] == [r.as_tuple() for r in b.rows]

    def test_seed_changes_output(self):
        base = dict(chart="z-lattice", mu=z_walk_law(),
                    n_walkers=500, n_steps=64)
        a = run_ensemble(EnsembleSpec(master_seed=1, **base))
        b = run_ensemble(EnsembleSpec(master_seed=2, **base))
        assert [r.as_tuple() for r in a.rows] != [r.as_tuple() for r in b.rows]

    def test_split_run_merges_exactly(self):
        from massdrift.models import srw_law
        cases = [
            (EnsembleSpec(chart="schottky", mu=free_law(
                {"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25}),
                n_walkers=400, n_steps=40, master_seed=5), 137),
            # rebuilding counts as fraction * n_walkers is off in the last
            # digit here (n=75, threshold 5.0)
            (EnsembleSpec(chart="z-lattice", mu=srw_law(1), n_walkers=8333,
                          n_steps=100, master_seed=4,
                          snapshot_schedule=tuple(range(0, 101, 5)),
                          proxy_thresholds=(1.0, 3.0, 5.0, 10.0)), 5000),
        ]
        for spec, n_first in cases:
            whole = [r.as_tuple() for r in run_ensemble(spec).rows]
            merged = [r.as_tuple() for r in split_run(spec, n_first).rows]
            assert merged == whole


class TestZLatticeOracle:
    def test_retention_matches_exact_kernel(self):
        """Sampled retention must cover the exactly computed window mass."""
        from massdrift.models import srw_law
        n_steps = 100
        schedule = (25, 50, 75, 100)
        thresholds = (10.0, 20.0, 50.0)
        model = build_lattice_model(1, n_steps + 10)
        series = evolve(model, 0, srw_law(1), n_steps,
                        snapshot_schedule=schedule)
        exact = {(n, thr): series.window_mass(n, range(-int(thr), int(thr) + 1))
                 for n in schedule for thr in thresholds}
        hits = total = 0
        for seed in range(20):
            spec = EnsembleSpec(chart="z-lattice", mu=z_walk_law(),
                                n_walkers=2000, n_steps=n_steps,
                                master_seed=seed,
                                snapshot_schedule=schedule,
                                proxy_thresholds=thresholds)
            curve = run_ensemble(spec)
            for r in curve.rows:
                total += 1
                if r.wilson_lo <= exact[(r.n, r.threshold)] <= r.wilson_hi:
                    hits += 1
        assert hits / total >= 0.9


class TestSl2Oracle:
    def test_diagonal_walk_reduces_to_line_walk(self):
        """With only the diagonal generator, the shortest vector length is
        3^(-|S_n|) for a simple random walk S_n, so retention above 0.1 equals
        the exact probability that |S_n| <= 2."""
        from massdrift.models import srw_law
        n_steps = 60
        schedule = (20, 40, 60)
        model = build_lattice_model(1, n_steps + 10)
        series = evolve(model, 0, srw_law(1), n_steps,
                        snapshot_schedule=schedule)
        exact = {n: series.window_mass(n, range(-2, 3)) for n in schedule}
        hits = total = 0
        for seed in range(10):
            spec = EnsembleSpec(chart="sl2-lattice",
                                mu=free_law({"a": 0.5, "A": 0.5}),
                                n_walkers=3000, n_steps=n_steps,
                                master_seed=seed,
                                snapshot_schedule=schedule,
                                proxy_thresholds=(0.1,))
            curve = run_ensemble(spec)
            for r in curve.rows:
                total += 1
                if r.wilson_lo <= exact[r.n] <= r.wilson_hi:
                    hits += 1
        assert hits / total >= 0.9


class TestSpecValidation:
    def test_unknown_chart_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(chart="torus", mu=z_walk_law(),
                         n_walkers=10, n_steps=10, master_seed=0)

    def test_default_thresholds_filled(self):
        spec = EnsembleSpec(chart="schottky", mu=free_law(
            {"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25}),
            n_walkers=10, n_steps=16, master_seed=0)
        assert spec.proxy_thresholds == (2.0, 5.0, 10.0)
        assert spec.snapshot_schedule == (4, 8, 12, 16)

    @pytest.mark.parametrize("chart, law", [
        ("z-lattice", {"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25}),
        ("sl2-lattice", {"+e1": 0.5, "-e1": 0.5}),
        ("schottky", {"0": 0.5, "a": 0.5}),
    ])
    def test_law_the_chart_cannot_map_rejected(self, chart, law):
        mu = StepLaw(tuple((GeneratorId(g, g), w) for g, w in law.items()))
        with pytest.raises(ValueError, match=f"{chart} chart has no generator"):
            EnsembleSpec(chart=chart, mu=mu, n_walkers=10, n_steps=10,
                         master_seed=0)

    def test_generator_determinant_checked_when_built(self):
        with pytest.raises(ValueError, match="determinant 2"):
            EnsembleSpec(chart="schottky", mu=free_law(
                {"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25}),
                n_walkers=10, n_steps=10, master_seed=0,
                generator_a=((2.0, 0.0), (0.0, 1.0)))

    def test_ping_pong_checked_when_built(self):
        # a short translation's isometric disks meet those of the default b
        with pytest.raises(SpecInvalid, match="overlap"):
            EnsembleSpec(chart="sl2-lattice", mu=free_law(
                {"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25}),
                n_walkers=10, n_steps=10, master_seed=0,
                generator_a=((1.2, 0.0), (0.0, 1 / 1.2)))

    @pytest.mark.parametrize("snapshots", [(5, 20), (-1, 5)])
    def test_snapshot_outside_the_run_rejected(self, snapshots):
        with pytest.raises(ValueError, match="outside the run's 0..10"):
            EnsembleSpec(chart="z-lattice", mu=z_walk_law(), n_walkers=10,
                         n_steps=10, master_seed=0,
                         snapshot_schedule=snapshots)

    def test_bounded_generators_rejected(self):
        rot = ((0.0, 1.0), (-1.0, 0.0))
        spec = EnsembleSpec(chart="sl2-lattice",
                            mu=free_law({"a": 0.5, "A": 0.5}),
                            n_walkers=10, n_steps=10, master_seed=0,
                            generator_a=rot, generator_b=rot)
        with pytest.raises(BoundednessViolation):
            run_ensemble(spec)


class TestNonFinite:
    def test_overflowed_walker_raises(self):
        """This walker's matrix entries overflow at step 1434; NaN <= thr is
        False, so it used to count as escaped without a warning."""
        def spec(n):
            return EnsembleSpec(chart="schottky", mu=free_law(
                {"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25}),
                n_walkers=1, n_steps=n, master_seed=1, walker_offset=1765,
                snapshot_schedule=(n,), proxy_thresholds=(1e9,))
        assert run_ensemble(spec(1433)).fraction(1433, 1e9) == 1.0
        with pytest.raises(NonFiniteProxy, match="step 1434"):
            run_ensemble(spec(1434))


class TestContrast:
    def test_mismatched_seeds_rejected(self):
        mu = free_law({"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25})
        f = EnsembleSpec(chart="z-lattice", mu=z_walk_law(),
                         n_walkers=10, n_steps=10, master_seed=0,
                         proxy_thresholds=(5.0,))
        i = EnsembleSpec(chart="schottky", mu=mu,
                         n_walkers=10, n_steps=10, master_seed=1,
                         proxy_thresholds=(5.0,))
        with pytest.raises(ValueError):
            compare_volumes(f, i)

    def test_escape_gap_positive(self):
        """The recurrent line walk retains mass; the free-group walk loses it."""
        mu4 = free_law({"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25})
        mu_line = StepLaw(((GeneratorId("+1", "-1"), 0.25),
                           (GeneratorId("-1", "+1"), 0.25),
                           (GeneratorId("+1b", "-1b"), 0.25),
                           (GeneratorId("-1b", "+1b"), 0.25)))
        f = EnsembleSpec(chart="z-lattice", mu=mu_line,
                         n_walkers=1000, n_steps=100, master_seed=3,
                         proxy_thresholds=(20.0,))
        i = EnsembleSpec(chart="schottky", mu=mu4,
                         n_walkers=1000, n_steps=100, master_seed=3,
                         proxy_thresholds=(20.0,))
        rep = compare_volumes(f, i)
        final = [g for g in rep.gaps if g[0] == 100]
        assert final and all(g[2] > 0.5 for g in final)
