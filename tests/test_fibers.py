import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import massdrift
from massdrift.errors import SpecInvalid

from massdrift.fibers import (FiberWord, FiniteFiberModel, GroupTable,
                              backforth_identity, cyclic_group,
                              klein_four_group, law_on_group,
                              martingale_cauchy, phi_direct, phi_formula,
                              support_words)
from massdrift.measures import GeneratorId, Observable, StepLaw


def make_word(m: FiniteFiberModel, letters) -> FiberWord:
    """A word with its product weight under the model's step law."""
    w = 1.0
    for b in letters:
        w *= m.mu.weight_of(b)
    return FiberWord(tuple(letters), w)


def z2_uniform():
    g = cyclic_group(2)
    return FiniteFiberModel.translation(g, law_on_group(g, {0: 0.5, 1: 0.5}))


def z3_skewed():
    g = cyclic_group(3)
    return FiniteFiberModel.translation(
        g, law_on_group(g, {0: 0.2, 1: 0.5, 2: 0.3}))


def indicator_at(m, point):
    return Observable({x: 1.0 if x == point else 0.0 for x in m.space})


class TestGroupTables:
    def test_cyclic_axioms(self):
        for k in (2, 3, 5):
            cyclic_group(k).validate()

    def test_klein_axioms(self):
        klein_four_group().validate()

    def test_word_product(self):
        g = cyclic_group(5)
        assert g.product([1, 1, 1]) == 3
        assert g.product([]) == 0

    def test_translation_model_validates(self):
        z2_uniform().validate()
        z3_skewed().validate()

    def test_validation_runs_under_optimize(self):
        """validate() raises, not asserts, so `python -O` still checks."""
        code = (
            "from massdrift.errors import SpecInvalid\n"
            "from massdrift.fibers import GroupTable, cyclic_group\n"
            "g = cyclic_group(3)\n"
            "bad = GroupTable(g.elements, g.identity, {**g.mult, (1, 1): 0},"
            " g.inv)\n"
            "try:\n"
            "    bad.validate()\n"
            "except SpecInvalid:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
        src = str(Path(massdrift.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_mismatched_law_rejected(self):
        g = cyclic_group(3)
        m = FiniteFiberModel.translation(g, law_on_group(g, {1: 1.0}))
        m.mu = StepLaw(((GeneratorId(1, 1), 1.0),))    # inverse of 1 is 2
        with pytest.raises(SpecInvalid):
            m.validate()


class TestPhiFormula:
    def test_n_zero_is_pointwise(self):
        m = z2_uniform()
        f = indicator_at(m, 0)
        b = make_word(m, (1, 0))
        assert phi_formula(m, 0, b, 0, f) == 1.0
        assert phi_formula(m, 0, b, 1, f) == 0.0

    def test_uniform_one_step_averages(self):
        m = z2_uniform()
        f = indicator_at(m, 0)
        for letters in ((0,), (1,)):
            b = make_word(m, letters)
            for x in m.space:
                assert phi_formula(m, 1, b, x, f) == pytest.approx(0.5)

    def test_constant_observable_fixed(self):
        m = z3_skewed()
        f = Observable({x: 2.5 for x in m.space})
        b = make_word(m, (1, 2, 0))
        for n in range(4):
            assert phi_formula(m, n, b, 1, f) == pytest.approx(2.5, abs=1e-12)

    def test_dirac_law_is_deterministic_shift(self):
        g = cyclic_group(4)
        m = FiniteFiberModel.translation(g, law_on_group(g, {1: 1.0}))
        f = indicator_at(m, 2)
        b = make_word(m, (1, 1))
        # two inverse letters pull x back by 2, two forward letters restore it
        for x in m.space:
            assert phi_formula(m, 2, b, x, f) == (1.0 if x == 2 else 0.0)

    def test_matches_brute_force_oracle(self):
        for m in (z2_uniform(), z3_skewed()):
            f = indicator_at(m, m.space[0])
            for n in range(3):
                for letters, _ in support_words(m, 3):
                    b = make_word(m, letters)
                    for x in m.space:
                        assert phi_formula(m, n, b, x, f) == pytest.approx(
                            phi_direct(m, n, b, x, f), abs=1e-12)

    def test_word_too_short_rejected(self):
        m = z2_uniform()
        b = make_word(m, (0,))
        with pytest.raises(ValueError):
            phi_formula(m, 2, b, 0, indicator_at(m, 0))


class TestSupNormContraction:
    def test_phi_bounded_by_sup_norm(self):
        m = z3_skewed()
        f = Observable({0: -1.0, 1: 0.5, 2: 2.0})
        for letters, _ in support_words(m, 2):
            b = make_word(m, letters)
            for n in range(3):
                for x in m.space:
                    assert abs(phi_formula(m, n, b, x, f)) <= f.sup_norm + 1e-12


class TestBackForthIdentity:
    def test_small_cases_agree(self):
        for m in (z2_uniform(), z3_skewed()):
            f = indicator_at(m, m.space[-1])
            for n in range(4):
                lhs, rhs = backforth_identity(m, n, m.space[0], f)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_klein_group_agrees(self):
        g = klein_four_group()
        m = FiniteFiberModel.translation(
            g, law_on_group(g, {(0, 0): 0.1, (0, 1): 0.4, (1, 0): 0.5}))
        f = Observable({x: float(i) for i, x in enumerate(m.space)})
        for n in range(4):
            lhs, rhs = backforth_identity(m, n, (0, 0), f)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_n_zero_is_evaluation(self):
        m = z2_uniform()
        f = indicator_at(m, 1)
        lhs, rhs = backforth_identity(m, 0, 1, f)
        assert lhs == rhs == 1.0


class TestMartingaleCauchy:
    def test_differences_vanish_for_mixing_law(self):
        g = cyclic_group(3)
        m = FiniteFiberModel.translation(
            g, law_on_group(g, {0: 0.5, 1: 0.5}))
        d = martingale_cauchy(m, indicator_at(m, 0), 40)
        assert d[39] < 1e-6

    def test_constant_observable_gives_zero(self):
        m = z3_skewed()
        f = Observable({x: 1.0 for x in m.space})
        assert all(v < 1e-12 for v in martingale_cauchy(m, f, 10))

    def test_matches_direct_two_step_difference(self):
        m = z2_uniform()
        f = indicator_at(m, 0)
        d = martingale_cauchy(m, f, 3)
        # oracle: enumerate moved points and compare phi_{n+1} with phi_n
        worst = 0.0
        for letters, _ in support_words(m, 4):
            b = make_word(m, letters)
            for x in m.space:
                for n in range(1):
                    worst = max(worst, abs(phi_formula(m, n + 1, b, x, f) -
                                           phi_formula(m, n, b, x, f)))
        assert d[0] == pytest.approx(worst, abs=1e-12)
