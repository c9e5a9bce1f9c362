import math

import pytest
from hypothesis import given, strategies as st

from massdrift.errors import MassdriftError
from massdrift.measures import (GeneratorId, Observable, StateVector, StepLaw,
                                invert_law, is_symmetric, pair)

PLUS = GeneratorId("+1", "-1")
MINUS = GeneratorId("-1", "+1")
IDENT = GeneratorId("e", "e")


class ActionUndefined(MassdriftError):
    """A generator/state pair has no defined image."""


def z_action(gid, x):
    if gid == "+1":
        return x + 1
    if gid == "-1":
        return x - 1
    if gid == "e":
        return x
    raise KeyError(gid)


def srw():
    return StepLaw(((PLUS, 0.5), (MINUS, 0.5)))


def sup_norm(f: Observable) -> float:
    """Largest |f(x)| over the observable's stored values."""
    return max((abs(v) for v in f.values.values()), default=0.0)


def convolve_step(nu, mu, act, prune_eps=1e-15):
    """One step of the walk on dicts, the oracle of ``kernel.evolve``: push
    ``nu`` forward through every generator of ``mu``.

    result(y) = sum over (g, x) with g.x = y of mu(g) * nu(x).  Atoms below
    ``prune_eps`` are dropped; their total is recorded in ``pruned_mass``.
    """
    out = {}
    for g, w in mu.atoms:
        for x, m in nu.entries.items():
            try:
                y = act(g.id, x)
            except KeyError as exc:
                raise ActionUndefined(f"action undefined on ({g.id!r}, {x!r})") from exc
            if y is None:
                raise ActionUndefined(f"action undefined on ({g.id!r}, {x!r})")
            out[y] = out.get(y, 0.0) + w * m
    pruned = nu.pruned_mass
    if prune_eps > 0:
        kept = {}
        for y, m in out.items():
            if m < prune_eps:
                pruned += m
            else:
                kept[y] = m
        out = kept
    return StateVector(out, pruned)


class TestStepLaw:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StepLaw(((PLUS, 0.5), (MINUS, 0.4)))

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ValueError):
            StepLaw(((PLUS, 0.5), (PLUS, 0.5)))

    def test_inverse_involution(self):
        mu = StepLaw(((PLUS, 0.7), (MINUS, 0.3)))
        assert set(invert_law(invert_law(mu)).atoms) == set(mu.atoms)

    def test_invert_dirac(self):
        mu = StepLaw(((PLUS, 1.0),))
        assert invert_law(mu).atoms == ((MINUS, 1.0),)

    def test_invert_symmetric_law_is_same_atom_set(self):
        assert set(invert_law(srw()).atoms) == set(srw().atoms)

    def test_invert_skewed(self):
        mu = StepLaw(((PLUS, 0.7), (MINUS, 0.3)))
        assert dict((g.id, w) for g, w in invert_law(mu).atoms) == \
            {"-1": 0.7, "+1": 0.3}


class TestSymmetry:
    def test_srw_symmetric(self):
        assert is_symmetric(srw())

    def test_dirac_not_symmetric(self):
        assert not is_symmetric(StepLaw(((PLUS, 1.0),)))

    def test_tolerance_edge(self):
        a = GeneratorId("a", "A")
        A = GeneratorId("A", "a")
        mu = StepLaw(((a, 0.5 + 1e-13), (A, 0.5 - 1e-13)))
        assert is_symmetric(mu, tol=1e-12)
        assert not is_symmetric(mu, tol=1e-14)


class TestConvolveStep:
    def test_one_step_from_dirac(self):
        nu = convolve_step(StateVector.dirac(0), srw(), z_action)
        assert nu.entries == {-1: 0.5, 1: 0.5}

    def test_identity_generator(self):
        mu = StepLaw(((IDENT, 1.0),))
        nu = convolve_step(StateVector.dirac(0), mu, z_action)
        assert nu.entries == {0: 1.0}

    def test_two_steps_binomial(self):
        nu = StateVector.dirac(0)
        for _ in range(2):
            nu = convolve_step(nu, srw(), z_action)
        assert nu.entries == {-2: 0.25, 0: 0.5, 2: 0.25}

    def test_undefined_action_raises(self):
        def partial(gid, x):
            raise KeyError(gid)
        with pytest.raises(ActionUndefined):
            convolve_step(StateVector.dirac(0), srw(), partial)

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
           st.integers(0, 12))
    def test_mass_conserved(self, raw, steps):
        total = sum(raw)
        mu = StepLaw(((PLUS, sum(raw[::2]) / total),
                      (MINUS, sum(raw[1::2]) / total))
                     if len(raw) > 1 else ((PLUS, 1.0),))
        nu = StateVector.dirac(0)
        for _ in range(steps % 4):
            nu = convolve_step(nu, mu, z_action, prune_eps=0.0)
        assert math.isclose(nu.total_mass, 1.0, abs_tol=1e-12)


class TestPairing:
    def test_dirac_indicator(self):
        assert pair(StateVector.dirac(0), Observable.indicator([0])) == 1.0

    def test_disjoint_support(self):
        nu = StateVector({-1: 0.5, 1: 0.5})
        assert pair(nu, Observable.indicator([0])) == 0.0

    def test_window_indicator_full(self):
        nu = StateVector({-2: 0.25, 0: 0.5, 2: 0.25})
        assert pair(nu, Observable.indicator(range(-2, 3))) == 1.0

    def test_bound_by_mass_times_norm(self):
        nu = StateVector({0: 0.3, 5: 0.2})
        f = Observable({0: -2.0, 5: 1.5})
        assert abs(pair(nu, f)) <= nu.total_mass * sup_norm(f) + 1e-15

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_linearity(self, a, b):
        n1 = StateVector({0: 0.5, 1: 0.5})
        n2 = StateVector({1: 0.25, 2: 0.75})
        f = Observable({0: 1.0, 1: -3.0, 2: 2.0})
        combo = StateVector({x: a / 2 * n1.mass_at(x) + b / 2 * n2.mass_at(x)
                             for x in (0, 1, 2)})
        assert math.isclose(pair(combo, f),
                            (a / 2) * pair(n1, f) + (b / 2) * pair(n2, f),
                            abs_tol=1e-12)


class TestStateVector:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            StateVector({0: -0.1})

    def test_mass_above_one_rejected(self):
        with pytest.raises(ValueError):
            StateVector({0: 0.8, 1: 0.5})

    def test_pruning_accounted(self):
        nu = StateVector({0: 1.0 - 1e-16, 1: 1e-16})
        out = convolve_step(nu, StepLaw(((IDENT, 1.0),)), z_action)
        assert out.pruned_mass > 0
        assert math.isclose(out.total_mass + out.pruned_mass, 1.0,
                            abs_tol=1e-12)
