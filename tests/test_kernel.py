import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from massdrift import kernel
from massdrift.errors import (InconclusiveAtTruncation, SymmetryRequired,
                              TruncationOverflow)
from massdrift.kernel import (InvarianceReport, MarkovModel, back_and_forth,
                              cesaro, check_invariant_set,
                              check_invariant_sets, even_return_curve, evolve,
                              verify_reversibility)
from massdrift.measures import (GeneratorId, ReferenceWeights, StateVector,
                                StepLaw)
from massdrift.models import (FunnelChainSpec, build_cycle_model,
                              build_funnel_chain, build_lattice_model,
                              build_two_component_model, cycle_law, srw_law)
from massdrift.verify import SUBSET_CHUNK, subset_sweep
from test_measures import convolve_step


# -- per-state oracles --------------------------------------------------------
# The library hands the kernel index arrays only; these callables, one per
# model kind, give the image of one state under one generator id.

CYCLE_STEPS = {"+1": 1, "-1": -1, "0": 0}


def box_action(d):
    """The unit steps of Z^d on the states of ``build_lattice_model``."""
    if d == 1:
        return lambda gid, x: x + (1 if gid[0] == "+" else -1)

    def act(gid, x):
        p = list(x)
        p[int(gid[2]) - 1] += 1 if gid[0] == "+" else -1
        return tuple(p)
    return act


def cycle_action(k):
    return lambda gid, x: (x + CYCLE_STEPS[gid]) % k


def two_cycle_action(k):
    return lambda gid, x: (x[0], (x[1] + CYCLE_STEPS[gid]) % k)


def line_action(gid, x):
    """Integer translations, on a line of states that ends."""
    return x + int(gid)


def neighbours_from(states, act):
    """Neighbour index arrays of a per-state action, one call per state;
    ``len(states)`` (the sink) where the image is not a state."""
    index = {x: i for i, x in enumerate(states)}
    return lambda gid: np.array([index.get(act(gid, x), len(states))
                                 for x in states], dtype=np.intp)


def interior(model):
    return [x for x, edge in zip(model.states, model.boundary) if not edge]


def harmonic_residual(model, act, psi, mu):
    """sup over interior states of |P psi(x) - psi(x)| on an action model;
    zero iff the dict ``psi`` is harmonic there."""
    worst = 0.0
    for x in interior(model):
        val = 0.0
        for g, w in mu.atoms:
            y = act(g.id, x)
            if y not in model.index:
                raise InconclusiveAtTruncation(
                    f"psi undefined outside truncation at ({g.id!r}, {x!r})")
            val += w * psi[y]
        worst = max(worst, abs(val - psi[x]))
    return worst


def reversibility_oracle(model, mu=None, act=None):
    """Max detailed-balance residual |lam(x)p(x,y) - lam(y)p(y,x)| from a
    per-pair dict loop: the oracle of ``verify_reversibility``."""
    if model.rows is not None:
        p = {(x, y): v for x, row in model.rows.items()
             for y, v in row.items()}
    else:
        p = {}
        for x in model.states:
            for g, w in mu.atoms:
                y = act(g.id, x)
                if y in model.index:
                    p[(x, y)] = p.get((x, y), 0.0) + w
    lam = model.reference
    worst = 0.0
    for (x, y), v in p.items():
        worst = max(worst, abs(lam(x) * v - lam(y) * p.get((y, x), 0.0)))
    return worst


def invariant_set_oracle(model, A, mu=None, tol=1e-10, act=None):
    """The per-state loop of the single-set invariance check: the oracle of
    ``check_invariant_sets``.  ``act`` is the per-state action of an action
    model."""
    A = frozenset(A)
    for a in A:
        if a not in model.index:
            raise ValueError(f"state {a!r} not in model")
    full = A == frozenset(model.states)
    inner = interior(model)
    if A - set(inner) and not full:
        raise InconclusiveAtTruncation("set touches the truncation boundary")

    mat = model.transition_matrix(None if model.rows is not None else mu)
    ind = np.zeros(model.n_states + 1)
    for a in A:
        ind[model.index[a]] = 1.0
    p_ind = mat @ ind
    op_res = 0.0
    for x in inner:
        i = model.index[x]
        op_res = max(op_res, abs(float(p_ind[i]) - ind[i]))

    gen_res = {}
    if act is not None and mu is not None:
        for g in mu.support:
            res = 0.0
            for s in inner:
                pre = act(g.inverse_id, s)
                if pre not in model.index:
                    raise InconclusiveAtTruncation(
                        f"generator {g.id!r} preimage leaves the truncation")
                if (pre in A) != (s in A):
                    res += model.reference(s)
            gen_res[g.id] = res
    elif model.rows is not None:
        flow = 0.0
        for a in A:
            for y, p in model.rows[a].items():
                if y not in A:
                    flow += model.reference(a) * p
        gen_res["flow"] = flow

    lam = sum(model.reference(a) for a in A)
    if model.reference.total_is_infinite and A >= set(inner):
        lam = float("inf")
    ok = op_res <= tol and all(r <= tol for r in gen_res.values())
    return InvarianceReport(lam, op_res, gen_res,
                            "invariant" if ok else "not-invariant")


@pytest.fixture
def z_model():
    return build_lattice_model(1, 30)


@pytest.fixture
def mu_srw():
    return srw_law(1)


class TestEvolve:
    def test_binomial_return_masses(self, z_model, mu_srw):
        s = evolve(z_model, 0, mu_srw, 8)
        assert s.snapshot(2).mass_at(0) == pytest.approx(0.5, abs=1e-15)
        assert s.snapshot(8).mass_at(0) == pytest.approx(70 / 256, abs=1e-15)

    def test_snapshot_zero_is_dirac(self, z_model, mu_srw):
        s = evolve(z_model, 0, mu_srw, 3)
        assert s.snapshot(0).entries == {0: 1.0}

    def test_cycle2_alternation(self):
        m = build_cycle_model(2)
        mu = cycle_law({"+1": 1.0})
        s = evolve(m, 0, mu, 5)
        for n in range(6):
            assert s.snapshot(n).entries == {n % 2: 1.0}

    def test_matches_sparse_convolution(self, z_model, mu_srw):
        s = evolve(z_model, 0, mu_srw, 6)
        nu = StateVector.dirac(0)
        for n in range(1, 7):
            nu = convolve_step(nu, mu_srw, box_action(1), prune_eps=0.0)
            assert s.snapshot(n).sup_distance(nu) < 1e-14

    def test_determinism(self, z_model, mu_srw):
        a = evolve(z_model, 0, mu_srw, 10)
        b = evolve(z_model, 0, mu_srw, 10)
        for n in range(11):
            assert a.snapshot(n).entries == b.snapshot(n).entries

    def test_truncation_overflow(self, mu_srw):
        m = build_lattice_model(1, 3)
        with pytest.raises(TruncationOverflow):
            evolve(m, 0, mu_srw, 50)

    def test_mass_accounting(self, mu_srw):
        m = build_lattice_model(1, 12)
        s = evolve(m, 0, mu_srw, 12, check_overflow=False)
        for n, nu in s.snapshots.items():
            total = nu.total_mass + s.absorbed[n] + nu.pruned_mass
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_truncation_stability(self, mu_srw):
        small = evolve(build_lattice_model(1, 40), 0, mu_srw, 20)
        big = evolve(build_lattice_model(1, 80), 0, mu_srw, 20)
        win = range(-10, 11)
        assert abs(small.window_mass(20, win) - big.window_mass(20, win)) < 1e-6


class TestCesaro:
    def test_n_one_is_dirac(self, z_model, mu_srw):
        s = evolve(z_model, 0, mu_srw, 2)
        assert cesaro(s, 1).entries == {0: 1.0}

    def test_cycle2_exact_half(self):
        m = build_cycle_model(2)
        s = evolve(m, 0, cycle_law({"+1": 1.0}), 8)
        avg = cesaro(s, 8)
        assert avg.mass_at(0) == pytest.approx(0.5, abs=1e-15)
        assert avg.mass_at(1) == pytest.approx(0.5, abs=1e-15)

    def test_sparse_schedule_recompute(self, z_model, mu_srw):
        dense = evolve(z_model, 0, mu_srw, 10)
        sparse = evolve(z_model, 0, mu_srw, 10, snapshot_schedule=[10])
        a, b = cesaro(dense, 10), cesaro(sparse, 10)
        assert a.sup_distance(b) < 1e-14

    def test_mass_is_average_of_snapshot_masses(self, z_model, mu_srw):
        s = evolve(z_model, 0, mu_srw, 6)
        avg = cesaro(s, 6)
        expect = sum(s.snapshot(k).total_mass for k in range(6)) / 6
        assert avg.total_mass == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 10, 56])
    def test_recompute_equals_stored_snapshots(self, n):
        # the tails fall below SNAPSHOT_PRUNE: both paths prune each step's
        # snapshot and never the mean
        box = build_lattice_model(1, 60)
        law = lattice_law((0.7, 0.3))
        stored = cesaro(evolve(box, 5, law, n), n)
        recomputed = cesaro(evolve(box, 5, law, n, snapshot_schedule=[n]), n)
        assert list(recomputed.entries.items()) == \
            list(stored.entries.items())
        assert recomputed.pruned_mass == stored.pruned_mass

    def test_recompute_overflows_like_evolve(self, mu_srw):
        m = build_lattice_model(1, 3)
        with pytest.raises(TruncationOverflow) as direct:
            evolve(m, 0, mu_srw, 200)
        # snapshot 200 lies past n_max, so cesaro steps on by itself
        series = evolve(m, 0, mu_srw, 2, snapshot_schedule=[200])
        with pytest.raises(TruncationOverflow) as recomputed:
            cesaro(series, 200)
        assert str(recomputed.value) == str(direct.value)


def cycle3_matrix(weights):
    """Independent oracle: dense stochastic matrix of a law on Z/3."""
    p = np.zeros((3, 3))
    for step, w in weights.items():
        for x in range(3):
            p[x, (x + step) % 3] += w
    return p


class TestBackAndForth:
    def test_dirac_law_cancels(self):
        m = build_cycle_model(3)
        entries = back_and_forth(m, 0, cycle_law({"+1": 1.0}), 6)
        for nu in entries:
            assert nu.entries == {0: 1.0}

    def test_symmetric_law_equals_even_snapshots(self, z_model, mu_srw):
        entries = back_and_forth(z_model, 0, mu_srw, 5)
        s = evolve(z_model, 0, mu_srw, 10)
        for n in range(6):
            assert entries[n].sup_distance(s.snapshot(2 * n)) < 1e-12

    def test_cycle3_against_matrix_power_oracle(self):
        m = build_cycle_model(3)
        mu = cycle_law({"0": 0.5, "+1": 0.5})
        entries = back_and_forth(m, 0, mu, 20)
        fwd = cycle3_matrix({0: 0.5, 1: 0.5})
        bwd = cycle3_matrix({0: 0.5, -1: 0.5})
        e0 = np.array([1.0, 0.0, 0.0])
        for n in range(21):
            expect = e0 @ np.linalg.matrix_power(bwd, n) @ \
                np.linalg.matrix_power(fwd, n)
            got = np.array([entries[n].mass_at(x) for x in range(3)])
            assert np.max(np.abs(got - expect)) < 1e-12

    def test_cycle3_converges_to_uniform(self):
        m = build_cycle_model(3)
        mu = cycle_law({"0": 0.5, "+1": 0.5})
        entries = back_and_forth(m, 0, mu, 60)
        last = entries[60]
        for x in range(3):
            assert last.mass_at(x) == pytest.approx(1 / 3, abs=1e-8)
        assert entries[60].sup_distance(entries[59]) < 1e-8


class TestInvariantSet:
    def test_full_truncation_invariant(self, z_model, mu_srw):
        rep = check_invariant_set(z_model, list(z_model.states), mu_srw)
        assert rep.verdict == "invariant"
        assert rep.set_measure == float("inf")
        assert rep.operator_residual == 0.0

    def test_singleton_not_invariant(self, z_model, mu_srw):
        rep = check_invariant_set(z_model, [0], mu_srw)
        assert rep.verdict == "not-invariant"
        assert rep.operator_residual == pytest.approx(1.0)
        assert rep.generator_residuals["+e1"] == pytest.approx(2.0)

    def test_component_of_disjoint_union_invariant(self):
        m = build_two_component_model(3)
        mu = cycle_law({"+1": 0.5, "-1": 0.5})
        rep = check_invariant_set(m, [("A", i) for i in range(3)], mu)
        assert rep.verdict == "invariant"
        assert rep.set_measure == 3.0

    def test_boundary_set_inconclusive(self, z_model, mu_srw):
        with pytest.raises(InconclusiveAtTruncation):
            check_invariant_set(z_model, [30], mu_srw)

    def test_exhaustive_equivalence_small(self):
        m = build_two_component_model(3)
        mu = cycle_law({"+1": 0.5, "-1": 0.5})
        states = list(m.states)
        for bits in range(2 ** 6):
            A = [s for i, s in enumerate(states) if bits >> i & 1]
            rep = check_invariant_set(m, A, mu)
            op_ok = rep.operator_residual <= 1e-10
            gen_ok = all(v <= 1e-10 for v in rep.generator_residuals.values())
            assert op_ok == gen_ok


class TestHarmonicResidual:
    def test_constant_is_harmonic(self, z_model, mu_srw):
        psi = {x: 3.7 for x in z_model.states}
        assert harmonic_residual(z_model, box_action(1), psi, mu_srw) == 0.0

    def test_linear_is_harmonic_for_srw(self, z_model, mu_srw):
        psi = {x: float(x) for x in z_model.states}
        assert harmonic_residual(z_model, box_action(1), psi, mu_srw) == 0.0

    def test_indicator_not_harmonic(self, z_model, mu_srw):
        psi = {x: 1.0 if x == 0 else 0.0 for x in z_model.states}
        assert harmonic_residual(z_model, box_action(1), psi, mu_srw) == \
            pytest.approx(1.0)


class TestReversibility:
    def test_asymmetric_chain_fails(self):
        rows = {0: {1: 1.0}, 1: {0: 0.5, 1: 0.5}}
        m = MarkovModel(states=[0, 1], reference=ReferenceWeights(default=1.0),
                        rows=rows)
        rep = verify_reversibility(m)
        assert not rep.passes
        assert rep.max_residual == pytest.approx(0.5)

    def test_birth_death_geometric_weights(self):
        n = 20
        rows = {}
        for i in range(n + 1):
            row = {}
            if i < n:
                row[i + 1] = 2 / 3
            if i > 0:
                row[i - 1] = 1 / 3
            missing = 1.0 - sum(row.values())
            if missing > 0:
                row[i] = row.get(i, 0.0) + missing
            rows[i] = row
        lam = ReferenceWeights({i: 2.0 ** i for i in range(n + 1)})
        m = MarkovModel(states=list(range(n + 1)), reference=lam, rows=rows)
        # interior rows only: the closed endpoints break the 2/3-1/3 pattern
        p = {(x, y): v for x, row in m.rows.items() for y, v in row.items()
             if 0 < x < n and 0 < y < n}
        worst = max(abs(lam(x) * v - lam(y) * m.rows[y][x])
                    for (x, y), v in p.items())
        assert worst < 1e-12

    def test_action_model_with_symmetric_law(self, z_model, mu_srw):
        assert verify_reversibility(z_model, mu_srw).passes

    @pytest.mark.parametrize("case", [
        "z1-box", "z2-box", "cycle", "cycle-2", "two-cycles", "funnel",
        "weighted-rows"])
    def test_equals_per_pair_loop(self, case):
        model, mu, act = {
            "z1-box": (build_lattice_model(1, 7), lattice_law((0.7, 0.3)),
                       box_action(1)),
            "z2-box": (build_lattice_model(2, 4),
                       lattice_law((0.4, 0.1, 0.3, 0.2)), box_action(2)),
            "cycle": (build_cycle_model(7), cycle_law(ASYMMETRIC),
                      cycle_action(7)),
            "cycle-2": (build_cycle_model(2), cycle_law(ASYMMETRIC),
                        cycle_action(2)),
            "two-cycles": (build_two_component_model(5),
                           cycle_law(ASYMMETRIC), two_cycle_action(5)),
            "funnel": (build_funnel_chain(FunnelChainSpec(
                (0.7, 0.2), tail=("geometric", 0.5, 0.5),
                truncation_size=30)), None, None),
            "weighted-rows": (two_class_rows_model(), None, None),
        }[case]
        rep = verify_reversibility(model, mu)
        worst = reversibility_oracle(model, mu, act)
        assert rep.max_residual == worst
        assert rep.passes == (worst <= kernel.DETAILED_BALANCE_TOL)


class TestEvenReturnCurve:
    def test_srw_values(self, z_model, mu_srw):
        curve = even_return_curve(z_model, 0, mu_srw, 4)
        assert curve[0] == 1.0
        assert curve[1] == pytest.approx(0.5, abs=1e-15)
        assert curve[2] == pytest.approx(0.375, abs=1e-15)
        assert curve[4] == pytest.approx(0.2734375, abs=1e-15)

    def test_nonincreasing(self, z_model, mu_srw):
        curve = even_return_curve(z_model, 0, mu_srw, 14)
        assert all(b <= a + 1e-15 for a, b in zip(curve, curve[1:]))

    def test_asymmetric_law_refused(self, z_model):
        mu = StepLaw(((srw_law(1).atoms[0][0], 1.0),))
        with pytest.raises(SymmetryRequired):
            even_return_curve(z_model, 0, mu, 4)


class TestModelValidation:
    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel(states=[0], reference=ReferenceWeights(default=1.0),
                        rows={0: {0: 0.9}})

    def test_needs_exactly_one_of_action_rows(self):
        with pytest.raises(ValueError):
            MarkovModel(states=[0], reference=ReferenceWeights(default=1.0))
        with pytest.raises(ValueError):
            MarkovModel(states=[0], reference=ReferenceWeights(default=1.0),
                        neighbours=lambda g: np.zeros(1, np.intp),
                        rows={0: {0: 1.0}})

    def test_boundary_defaults_to_all_false(self):
        m = build_cycle_model(5)
        assert m.boundary.dtype == bool
        assert m.boundary.tolist() == [False] * 5

    def test_reversible_claim_checked(self):
        with pytest.raises(ValueError):
            MarkovModel(states=[0, 1], reference=ReferenceWeights(default=1.0),
                        rows={0: {1: 1.0}, 1: {0: 0.5, 1: 0.5}},
                        reversible_claim=True)


def funnel(tail, size):
    return build_funnel_chain(FunnelChainSpec(
        (), tail=tail, step_scale=0.25, truncation_size=size))


FUNNELS = [pytest.param(tail, size, id=f"{tail[0]}-{size}")
           for tail in (("constant", 1.0), ("geometric", 0.5, 0.5))
           for size in (400, 800)]
#: a horizon at which the cost model takes the dense path, per truncation
FUNNEL_HORIZON = {400: 10_000, 800: 40_000}
ASYMMETRIC = {"+1": 0.1875, "-1": 0.5, "0": 0.3125}


@pytest.fixture
def both_paths(monkeypatch):
    """Runs a kernel call on the dense block path, asserting that it was
    taken, then again with sparse stepping forced, the reference."""
    def run(call):
        dense_powers = []
        real = kernel._dense_power

        def spy(mat, k):
            dense_powers.append(k)
            return real(mat, k)

        monkeypatch.setattr(kernel, "_dense_power", spy)
        dense = call()
        assert dense_powers, "the cost model chose sparse stepping"
        monkeypatch.setattr(kernel, "DENSE_MAX_STATES", 0)
        sparse = call()
        monkeypatch.undo()
        return dense, sparse
    return run


def assert_series_close(a, b):
    assert sorted(a.snapshots) == sorted(b.snapshots)
    for n in a.snapshots:
        assert a.snapshot(n).sup_distance(b.snapshot(n)) <= 1e-12
        assert abs(a.absorbed[n] - b.absorbed[n]) <= 1e-12
        assert abs(a.snapshot(n).total_mass + a.pruned_mass_log[n]
                   - b.snapshot(n).total_mass - b.pruned_mass_log[n]) <= 1e-12


class TestDensePath:
    """The dense block path against sparse stepping, within 1e-12."""

    @pytest.mark.parametrize("tail, size", FUNNELS)
    def test_evolve_funnel(self, both_paths, tail, size):
        m, h = funnel(tail, size), FUNNEL_HORIZON[size]
        dense, sparse = both_paths(
            lambda: evolve(m, 0, None, h, snapshot_schedule=[0, h]))
        assert_series_close(dense, sparse)
        win = range(11)
        assert abs(dense.window_mass(h, win) - sparse.window_mass(h, win)) <= 1e-12

    @pytest.mark.parametrize("tail, size", FUNNELS)
    def test_evolve_funnel_unchecked(self, both_paths, tail, size):
        m, h = funnel(tail, size), FUNNEL_HORIZON[size]
        # unchecked, the walk halts at the last snapshot, so the jumps end
        # in a partial block of sparse steps
        dense, sparse = both_paths(lambda: evolve(
            m, 0, None, h, snapshot_schedule=[0, h - 5, h + 1],
            check_overflow=False))
        assert sorted(dense.snapshots) == [0, h - 5]
        assert_series_close(dense, sparse)

    @pytest.mark.parametrize("tail, size", FUNNELS)
    def test_even_return_curve_funnel(self, both_paths, tail, size):
        m, n = funnel(tail, size), FUNNEL_HORIZON[size] // 2
        dense, sparse = both_paths(lambda: even_return_curve(m, 0, None, n))
        assert len(dense) == len(sparse) == n + 1
        assert dense[0] == 1.0
        assert np.abs(np.subtract(dense, sparse)).max() <= 1e-12
        assert all(b <= a + 1e-15 for a, b in zip(dense, dense[1:]))

    def test_evolve_cycle_asymmetric_law(self, both_paths):
        m, mu = build_cycle_model(64), cycle_law(ASYMMETRIC)
        dense, sparse = both_paths(lambda: evolve(
            m, 5, mu, 10_000, snapshot_schedule=[0, 333, 5000, 10_000]))
        assert_series_close(dense, sparse)

    def test_even_return_curve_cycle(self, both_paths):
        m, mu = build_cycle_model(64), cycle_law({"+1": 0.3, "-1": 0.3, "0": 0.4})
        dense, sparse = both_paths(lambda: even_return_curve(m, 7, mu, 3000))
        assert np.abs(np.subtract(dense, sparse)).max() <= 1e-12

    def test_back_and_forth_cycle_asymmetric_law(self, both_paths):
        m, mu = build_cycle_model(64), cycle_law(ASYMMETRIC)
        dense, sparse = both_paths(lambda: back_and_forth(m, 54, mu, 300))
        assert len(dense) == len(sparse) == 301
        for a, b in zip(dense, sparse):
            assert a.sup_distance(b) <= 1e-12
            assert abs(a.total_mass - b.total_mass) <= 1e-12

    @pytest.mark.parametrize("schedule", [[5000], list(range(0, 5001, 64))])
    def test_overflow_same_step_and_message(self, both_paths, mu_srw, schedule):
        m = build_lattice_model(1, 60)

        def overflow():
            with pytest.raises(TruncationOverflow) as info:
                evolve(m, 0, mu_srw, 5000, snapshot_schedule=schedule)
            return str(info.value)

        dense, sparse = both_paths(overflow)
        assert dense == sparse
        assert "at step " in dense

    @pytest.mark.parametrize("radius, n_max", [
        (5, 500),       # trips the first block's check, redone sparsely
        (41, 37)])      # trips past the last whole block
    def test_even_return_curve_overflows_like_evolve(self, both_paths, mu_srw,
                                                     radius, n_max):
        m = build_lattice_model(1, radius)

        def overflow():
            with pytest.raises(TruncationOverflow) as info:
                even_return_curve(m, 0, mu_srw, n_max)
            return str(info.value)

        dense, sparse = both_paths(overflow)
        with pytest.raises(TruncationOverflow) as direct:
            evolve(m, 0, mu_srw, 2 * n_max)
        assert dense == sparse == str(direct.value)

    def test_back_and_forth_overflow_same_entry_and_message(self, both_paths):
        m = build_lattice_model(1, 25)
        mu = StepLaw(tuple((g, w) for g, w in zip(
            (a for a, _ in srw_law(1).atoms), (0.75, 0.25))))

        def overflow():
            with pytest.raises(TruncationOverflow) as info:
                back_and_forth(m, 0, mu, 400)
            return str(info.value)

        dense, sparse = both_paths(overflow)
        assert dense == sparse

    def test_large_box_never_goes_dense(self, monkeypatch):
        box = build_lattice_model(2, 20)           # 1681 states
        law = srw_law(2)
        box.transition_matrix(law)
        calls = []
        monkeypatch.setattr(kernel, "_dense_power",
                            lambda *a: calls.append(a) or 1 / 0)
        tracemalloc.start()
        try:
            # at this horizon the cost model alone would pick the dense path
            with pytest.raises(TruncationOverflow):
                evolve(box, (0, 0), law, 10 ** 6, snapshot_schedule=[10 ** 6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 8 * 1682 ** 2 / 16


def lattice_law(weights):
    """A step law on the unit steps of Z^d, weights in +e1, -e1, +e2, -e2
    order."""
    ids = [(f"{s}e{i}", f"{t}e{i}")
           for i in (1, 2) for s, t in (("+", "-"), ("-", "+"))]
    return StepLaw(tuple((GeneratorId(*g), w) for g, w in zip(ids, weights)))


class TestArrayKernel:
    """Neighbour-index assembly and array snapshots against the per-state
    callables and the dict oracle."""

    @staticmethod
    def assert_assembly_equals_callable(model, act, law):
        fast = model.transition_matrix(law)
        slow = MarkovModel(states=model.states, reference=model.reference,
                           neighbours=neighbours_from(model.states, act))
        slow = slow.transition_matrix(law)
        for part in ("indptr", "indices", "data"):
            a, b = getattr(fast, part), getattr(slow, part)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("radius", [2, 3, 17])
    @pytest.mark.parametrize("d, weights", [
        (1, (0.5, 0.5)), (1, (0.7, 0.3)),
        (2, (0.25,) * 4), (2, (0.4, 0.1, 0.3, 0.2))])
    def test_neighbour_assembly_equals_callable(self, d, weights, radius):
        self.assert_assembly_equals_callable(
            build_lattice_model(d, radius), box_action(d), lattice_law(weights))

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("law", [ASYMMETRIC, {"+1": 0.7, "-1": 0.3}])
    def test_cycle_assembly_equals_callable(self, k, law):
        self.assert_assembly_equals_callable(
            build_cycle_model(k), cycle_action(k), cycle_law(law))
        self.assert_assembly_equals_callable(
            build_two_component_model(k), two_cycle_action(k), cycle_law(law))

    @pytest.mark.parametrize("d, radius, weights, start, horizon", [
        (1, 30, (0.5, 0.5), 0, 25),
        (1, 60, (0.7, 0.3), 5, 55),         # tails fall below SNAPSHOT_PRUNE
        (2, 12, (0.25,) * 4, (1, -2), 10)])
    def test_snapshots_match_dict_oracle(self, d, radius, weights, start,
                                         horizon):
        box, law = build_lattice_model(d, radius), lattice_law(weights)
        series = evolve(box, start, law, horizon)
        window = interior(box)[::3] + [99]      # 99 is not a state
        nu, acc = StateVector.dirac(start), {}
        for n in range(horizon + 1):
            if n:
                nu = convolve_step(nu, law, box_action(d), prune_eps=0.0)
            kept = {x: m for x, m in nu.entries.items()
                    if m >= kernel.SNAPSHOT_PRUNE}
            snap = series.snapshot(n)
            assert snap.entries == kept
            assert list(snap.entries) == sorted(kept, key=box.index.get)
            assert abs(snap.pruned_mass
                       - (nu.total_mass - sum(kept.values()))) <= 1e-12
            assert series.pruned_mass_log[n] == snap.pruned_mass
            assert series.window_mass(n, window) == \
                sum(kept.get(x, 0.0) for x in window)
            for x, m in kept.items():
                acc[x] = acc.get(x, 0.0) + m
        avg = cesaro(series, horizon + 1)
        assert avg.entries == {x: m / (horizon + 1) for x, m in acc.items()}
        assert abs(avg.pruned_mass * (horizon + 1)
                   - sum(series.pruned_mass_log.values())) <= 1e-12

    def test_snapshot_storage_is_compact(self):
        box, law = build_lattice_model(2, 40), srw_law(2)     # 81 wide
        horizon = 20
        evolve(box, (0, 0), law, 0)      # assemble outside the measurement
        tracemalloc.start()
        try:
            series = evolve(box, (0, 0), law, horizon)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(series.snapshots) == horizon + 1
        dense = (horizon + 1) * 8 * (box.n_states + 1)
        assert held < dense / 8

    def test_step_matrix_transposed_once_per_law(self, monkeypatch):
        m, mu = build_cycle_model(16), cycle_law(ASYMMETRIC)
        transposes = []
        real = sp.csr_matrix.transpose

        def spy(self, *a, **k):
            transposes.append(self.shape)
            return real(self, *a, **k)

        monkeypatch.setattr(sp.csr_matrix, "transpose", spy)
        for _ in range(2):
            evolve(m, 3, mu, 10)
            cesaro(evolve(m, 3, mu, 10, snapshot_schedule=[10]), 8)
            back_and_forth(m, 3, mu, 4)
        assert len(transposes) == 2          # the law and its inverse
        assert kernel._matrices(m, mu)[1] is kernel._matrices(m, mu)[1]


def subset_masks(n_states, numbers):
    """Bool masks of the subsets ``numbers``: bit i picks state i."""
    return (np.asarray(numbers)[:, None] >> np.arange(n_states) & 1) \
        .astype(bool)


def two_class_rows_model():
    """Kernel rows with two closed classes and non-unit reference weights."""
    rows = {0: {0: 0.3, 1: 0.7}, 1: {0: 0.2, 1: 0.1, 2: 0.7},
            2: {1: 0.45, 2: 0.55}, 3: {4: 1.0}, 4: {3: 0.35, 5: 0.65},
            5: {4: 0.9, 5: 0.1}}
    weights = {i: 0.1 + 0.07 * i for i in rows}
    return MarkovModel(states=list(rows),
                       reference=ReferenceWeights(weight=weights), rows=rows)


class TestInvariantSetBatch:
    """``check_invariant_sets`` against the per-state oracle, set by set."""

    @staticmethod
    def assert_matches_oracle(model, masks, mu=None, tol=1e-10, act=None):
        batch = check_invariant_sets(model, masks, mu, tol)
        raised = []
        for row, mask in enumerate(masks):
            A = [x for x, inside in zip(model.states, mask) if inside]
            try:
                rep = invariant_set_oracle(model, A, mu, tol, act)
            except InconclusiveAtTruncation:
                raised.append(row)
                continue
            assert batch.invariant[row] == (rep.verdict == "invariant")
            assert abs(batch.operator_residual[row]
                       - rep.operator_residual) <= 1e-15
            assert batch.generator_residuals.keys() == \
                rep.generator_residuals.keys()
            for g, res in rep.generator_residuals.items():
                assert abs(batch.generator_residuals[g][row] - res) <= 1e-15
            if math.isinf(rep.set_measure):
                assert batch.set_measure[row] == rep.set_measure
            else:
                assert abs(batch.set_measure[row] - rep.set_measure) <= 1e-15
        assert np.flatnonzero(batch.inconclusive).tolist() == raised
        assert not batch.invariant[raised].any()
        return batch

    @pytest.mark.parametrize("law", [{"+1": 0.5, "-1": 0.5}, ASYMMETRIC,
                                     {"+1": 0.3, "-1": 0.3, "0": 0.4}])
    def test_cycles_every_subset(self, law):
        for model, act in ((build_cycle_model(8), cycle_action(8)),
                           (build_two_component_model(4), two_cycle_action(4))):
            batch = self.assert_matches_oracle(
                model, subset_masks(8, range(256)), cycle_law(law), act=act)
            assert batch.invariant.sum() == (2 if model.name == "cycle-8"
                                             else 4)

    def test_two_cycle_of_two_states(self):
        # a 2-cycle: +1 and -1 are the same bijection
        self.assert_matches_oracle(build_cycle_model(2),
                                   subset_masks(2, range(4)),
                                   cycle_law({"+1": 0.5, "-1": 0.5}),
                                   act=cycle_action(2))

    @pytest.mark.parametrize("tail", [("constant", 1.0),
                                      ("geometric", 0.5, 0.5),
                                      ("constant", 1e-12)])
    def test_funnels_at_zero_tolerance(self, tail):
        model = build_funnel_chain(FunnelChainSpec((), tail=tail,
                                                   truncation_size=8))
        batch = self.assert_matches_oracle(model, subset_masks(9, range(512)),
                                           tol=0.0)
        assert batch.invariant.tolist() == [True] + [False] * 510 + [True]

    @pytest.mark.parametrize("d, radius", [(1, 6), (2, 2)])
    def test_boxes_inconclusive_where_oracle_raises(self, d, radius):
        model = build_lattice_model(d, radius)
        n = model.n_states
        rng = np.random.default_rng(7)
        inner = ~model.boundary
        masks = np.concatenate([
            rng.random((150, n)) < 0.5,
            (rng.random((150, n)) < 0.5) & inner,        # avoid the edge
            [np.ones(n, bool), inner, np.zeros(n, bool)]])
        batch = self.assert_matches_oracle(model, masks, srw_law(d),
                                           act=box_action(d))
        assert batch.inconclusive[:150].sum() > 100
        assert not batch.inconclusive[150:].any()
        assert batch.set_measure[-3:].tolist() == [math.inf, math.inf, 0.0]

    def test_corner_with_zero_residuals_stays_inconclusive(self):
        # no interior state of the plane box neighbours a corner, so both
        # sides read 0, but the set touches the boundary
        model = build_lattice_model(2, 2)
        corner = np.array([[x == (2, 2) for x in model.states]])
        batch = self.assert_matches_oracle(model, corner, srw_law(2),
                                           act=box_action(2))
        assert batch.operator_residual[0] == 0.0
        assert all(r[0] == 0.0 for r in batch.generator_residuals.values())
        assert batch.inconclusive[0] and not batch.invariant[0]

    def test_rows_model_with_reference_weights(self):
        model = two_class_rows_model()
        batch = self.assert_matches_oracle(model, subset_masks(6, range(64)))
        assert np.flatnonzero(batch.invariant).tolist() == [0, 7, 56, 63]
        assert batch.set_measure[7] == pytest.approx(0.1 + 0.17 + 0.24)

    def test_preimage_leaving_raises_like_oracle(self):
        line = MarkovModel(states=list(range(5)),
                           reference=ReferenceWeights(default=1.0),
                           neighbours=neighbours_from(range(5), line_action))
        mu = StepLaw(((GeneratorId("1", "-1"), 0.5),
                      (GeneratorId("-1", "1"), 0.5)))
        for check in (lambda: invariant_set_oracle(line, [2], mu,
                                                   act=line_action),
                      lambda: check_invariant_set(line, [2], mu),
                      lambda: check_invariant_sets(line, np.ones((3, 5), bool),
                                                   mu)):
            with pytest.raises(InconclusiveAtTruncation,
                               match="generator '1' preimage leaves"):
                check()

    def test_foreign_state_and_mask_shape_rejected(self, z_model, mu_srw):
        with pytest.raises(ValueError, match="not in model"):
            check_invariant_set(z_model, [0, 99], mu_srw)
        with pytest.raises(ValueError, match="masks must have shape"):
            check_invariant_sets(z_model, np.ones((2, 5), bool), mu_srw)

    def test_chunked_sweep_memory(self):
        model = build_funnel_chain(FunnelChainSpec((), tail=("constant", 1.0),
                                                   truncation_size=12))
        model.transition_matrix()       # assemble outside the measurement
        stop = 2 ** model.n_states - 1
        tracemalloc.start()
        try:
            batches = list(b.invariant.sum() for b in
                           subset_sweep(model, 1, stop, tol=0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batches) == -(-(stop - 1) // SUBSET_CHUNK)
        assert sum(batches) == 0
        assert peak < 2 ** 20
