import itertools
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import massdrift
from massdrift.errors import SpecInvalid

from massdrift.fibers import (FiniteFiberModel, GroupTable,
                              backforth_identity, cyclic_group,
                              klein_four_group, law_on_group, phi_direct,
                              phi_formula, word_table)
from massdrift.kernel import back_and_forth
from massdrift.measures import (GeneratorId, Observable, StepLaw, invert_law,
                                pair)
from massdrift.verify import finite_model_family
from test_measures import sup_norm


# -- scalar oracles: one word and one point at a time ------------------------

@dataclass(frozen=True)
class FiberWord:
    """A finite word of group letters with its product weight under the step law."""
    letters: tuple
    weight: float


def support_words(m: FiniteFiberModel, n: int):
    """All length-n words with positive weight, paired with their weights."""
    sup = [(g.id, w) for g, w in m.mu.atoms]
    for combo in itertools.product(sup, repeat=n):
        letters = tuple(g for g, _ in combo)
        w = 1.0
        for _, p in combo:
            w *= p
        yield letters, w


def group_product(group, word):
    out = group.identity
    for g in word:
        out = group.mult[(out, g)]
    return out


def word_inverse_prefix(m, letters, n):
    """Product b_n^-1 ... b_1^-1 (leftmost letter is the inverse of b_n)."""
    return group_product(m.group, [m.group.inv[b] for b in reversed(letters[:n])])


def skew_iterate(m, letters, x, n):
    """Apply the fibred shift n times: drop n letters, move the point by their inverses."""
    y = x
    for i in range(n):
        y = m.action(m.group.inv[letters[i]], y)
    return tuple(letters[n:]), y


def phi_formula_oracle(m, n, b, x, f):
    """Fiber-average formula: integrate f(a_1...a_n b_n^-1...b_1^-1 x) over words a."""
    if n > len(b.letters):
        raise ValueError("word shorter than n")
    y = m.action(word_inverse_prefix(m, b.letters, n), x)
    total = 0.0
    for a, w in support_words(m, n):
        total += w * f(m.action(group_product(m.group, a), y))
    return total


def phi_direct_oracle(m, n, b, x, f):
    """Conditional expectation from the definition: enumerate every candidate
    point, keep those whose n-th skew iterate matches that of (b, x)."""
    if n > len(b.letters):
        raise ValueError("word shorter than n")
    target = skew_iterate(m, b.letters, x, n)
    num = 0.0
    den = 0.0
    for letters, w_word in support_words(m, len(b.letters)):
        for x2 in m.space:
            if skew_iterate(m, letters, x2, n) == target:
                w = w_word * m.lam(x2)
                num += w * f(x2)
                den += w
    if den == 0.0:
        raise ValueError("empty fiber: word outside the law's support")
    return num / den


def backforth_identity_oracle(m, n, x, f):
    """Word-average of phi over length-n words, and the back-and-forth entry n."""
    weight_by_point: dict = {}
    for letters, w in support_words(m, n):
        y = m.action(word_inverse_prefix(m, letters, n), x)
        weight_by_point[y] = weight_by_point.get(y, 0.0) + w
    lhs = 0.0
    for y, w in weight_by_point.items():
        mean = sum(wa * f(m.action(group_product(m.group, a), y))
                   for a, wa in support_words(m, n))
        lhs += w * mean
    rhs = pair(back_and_forth(m.markov_model, x, m.mu, n)[n], f)
    return lhs, rhs


def martingale_cauchy(m, f, n_max):
    """Successive sup-differences d_n = max |phi_{n+1} - phi_n| over the support.

    phi_n(b, x) depends on the word only through the moved point
    y = b_n^-1...b_1^-1 x, and the word-average over a equals the n-fold
    convolution power of the law on the group, so maximizing over reachable
    moved points covers the full support.
    """
    group = m.group
    conv = {group.identity: 1.0}
    powers = [dict(conv)]
    sup = [(g.id, w) for g, w in m.mu.atoms]
    for _ in range(n_max + 1):
        nxt: dict = {}
        for g, wg in conv.items():
            for h, wh in sup:
                gh = group.mult[(g, h)]
                nxt[gh] = nxt.get(gh, 0.0) + wg * wh
        conv = nxt
        powers.append(dict(conv))

    def mean_f(n, y):
        return sum(w * f(m.action(g, y)) for g, w in powers[n].items())

    inv_sup = [group.inv[g] for g, _ in sup]
    reachable = set(m.space)
    out = []
    for n in range(n_max):
        d = 0.0
        for y in reachable:
            fn = mean_f(n, y)
            for c in inv_sup:
                d = max(d, abs(mean_f(n + 1, m.action(c, y)) - fn))
        out.append(d)
        reachable = {m.action(c, y) for y in reachable for c in inv_sup}
    return out


def oracle_table(m, n, f, length, oracle, key):
    """(word, point) table of a scalar oracle, rows in ``support_words``
    order; ``key(letters, x)`` is what the oracle's value depends on, so
    each distinct key is evaluated once."""
    cache, rows = {}, []
    for letters, w in support_words(m, length):
        row = []
        for x in m.space:
            k = key(letters, x)
            if k not in cache:
                cache[k] = oracle(m, n, FiberWord(letters, w), x, f)
            row.append(cache[k])
        rows.append(row)
    return np.array(rows)


def make_word(m: FiniteFiberModel, letters) -> FiberWord:
    """A word with its product weight under the model's step law."""
    w = 1.0
    for b in letters:
        w *= m.mu.weight_of(b)
    return FiberWord(tuple(letters), w)


def row_of(m, letters) -> int:
    """Row of ``letters`` in the tables of words of its length."""
    pos = [m.group.elements.index(b) for b in letters]
    table = word_table(m, len(letters))[0]
    return int(np.flatnonzero((table == pos).all(axis=1))[0])


def symmetric_group_3():
    """S3 as permutation tuples, (p*q)(i) = p(q(i)): the smallest group that
    is not abelian."""
    elems = tuple(itertools.permutations(range(3)))
    return GroupTable(
        elements=elems, identity=(0, 1, 2),
        mult={(p, q): tuple(p[q[i]] for i in range(3))
              for p in elems for q in elems},
        inv={p: tuple(sorted(range(3), key=p.__getitem__)) for p in elems})


def s3_skewed():
    g = symmetric_group_3()
    return FiniteFiberModel.translation(g, law_on_group(
        g, {(1, 0, 2): 0.5, (1, 2, 0): 0.3, (0, 2, 1): 0.2}))


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
        assert g.products(np.array([[1, 1, 1], [4, 2, 3]])).tolist() == [3, 4]
        assert g.products(np.zeros((1, 0), dtype=int)).tolist() == [0]
        k = klein_four_group()
        for word in itertools.product(k.elements, repeat=3):
            pos = [[k.elements.index(b) for b in word]]
            assert k.elements[k.products(np.array(pos))[0]] == \
                group_product(k, word)

    def test_translation_model_validates(self):
        z2_uniform().validate()
        z3_skewed().validate()
        s3_skewed().validate()

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
        row = phi_formula(m, 0, f, length=2)[row_of(m, (1, 0))]
        assert row.tolist() == [1.0, 0.0]

    def test_uniform_one_step_averages(self):
        m = z2_uniform()
        table = phi_formula(m, 1, indicator_at(m, 0))
        assert table.shape == (2, 2)
        assert table == pytest.approx(np.full((2, 2), 0.5))

    def test_constant_observable_fixed(self):
        m = z3_skewed()
        f = Observable({x: 2.5 for x in m.space})
        row = row_of(m, (1, 2, 0))
        for n in range(4):
            assert phi_formula(m, n, f, length=3)[row, 1] == \
                pytest.approx(2.5, abs=1e-12)

    def test_dirac_law_is_deterministic_shift(self):
        g = cyclic_group(4)
        m = FiniteFiberModel.translation(g, law_on_group(g, {1: 1.0}))
        f = indicator_at(m, 2)
        # two inverse letters pull x back by 2, two forward letters restore it
        assert phi_formula(m, 2, f).tolist() == [[0.0, 0.0, 1.0, 0.0]]

    def test_matches_brute_force_oracle(self):
        for m in (z2_uniform(), z3_skewed()):
            f = indicator_at(m, m.space[0])
            for n in range(3):
                assert phi_formula(m, n, f, length=3) == pytest.approx(
                    phi_direct(m, n, f, length=3), abs=1e-12)

    def test_word_too_short_rejected(self):
        m = z2_uniform()
        for phi in (phi_formula, phi_direct):
            with pytest.raises(ValueError, match="word shorter than n"):
                phi(m, 2, indicator_at(m, 0), length=1)


class TestSupNormContraction:
    def test_phi_bounded_by_sup_norm(self):
        m = z3_skewed()
        f = Observable({0: -1.0, 1: 0.5, 2: 2.0})
        for n in range(3):
            table = phi_formula(m, n, f, length=2)
            assert np.abs(table).max() <= sup_norm(f) + 1e-12


class TestBackForthIdentity:
    def test_small_cases_agree(self):
        for m in (z2_uniform(), z3_skewed()):
            f = indicator_at(m, m.space[-1])
            for n in range(4):
                lhs, rhs = backforth_identity(m, n, f)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_klein_group_agrees(self):
        g = klein_four_group()
        m = FiniteFiberModel.translation(
            g, law_on_group(g, {(0, 0): 0.1, (0, 1): 0.4, (1, 0): 0.5}))
        f = Observable({x: float(i) for i, x in enumerate(m.space)})
        for n in range(4):
            lhs, rhs = backforth_identity(m, n, f)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_n_zero_is_evaluation(self):
        m = z2_uniform()
        f = indicator_at(m, 1)
        lhs, rhs = backforth_identity(m, 0, f)
        assert lhs.tolist() == rhs.tolist() == [0.0, 1.0]

    def test_markov_model_built_once(self):
        m = z3_skewed()
        for n in range(3):
            backforth_identity(m, n, indicator_at(m, 0))
        assert m.markov_model is m.markov_model
        assert set(m.markov_model._step_cache) == {m.mu, invert_law(m.mu)}


#: the verify suites' models, and one group that is not abelian, where the
#: order of the inverse prefix b_n^-1...b_1^-1 matters
FAMILY = list(finite_model_family()) + [("S3-skewed", s3_skewed())]
OBSERVABLES = {
    "indicator": lambda m: Observable.indicator([m.space[0]]),
    "graded": lambda m: Observable({x: (i + 1) / 7 - 0.3
                                    for i, x in enumerate(m.space)}),
}


@pytest.mark.parametrize("m", [m for _, m in FAMILY],
                         ids=[name for name, _ in FAMILY])
def test_markov_model_matrix_from_action(m):
    """The kernel's matrix, read off ``action_table``, equals the one built
    from the action callable, P[x, g.x] += mu(g), for the law and its
    inverse."""
    for law in (m.mu, invert_law(m.mu)):
        expect = np.zeros((len(m.space) + 1,) * 2)
        expect[-1, -1] = 1.0
        for g, w in law.atoms:
            for i, x in enumerate(m.space):
                expect[i, m.space.index(m.action(g.id, x))] += w
        got = m.markov_model.transition_matrix(law).toarray()
        assert got.tolist() == expect.tolist()


@pytest.mark.parametrize("f_name", sorted(OBSERVABLES))
@pytest.mark.parametrize("m", [m for _, m in FAMILY],
                         ids=[name for name, _ in FAMILY])
class TestTablesMatchScalarOracles:
    """Every entry of the fiber tables is bit-equal to the scalar oracles,
    for every finite model of the verify suites and S3, n <= 3, words of
    length n and n + 1."""

    def test_phi_formula(self, m, f_name):
        f = OBSERVABLES[f_name](m)
        for n in range(4):
            for length in (n, n + 1):
                expect = oracle_table(
                    m, n, f, length, phi_formula_oracle,
                    lambda b, x: m.action(word_inverse_prefix(m, b, n), x))
                assert phi_formula(m, n, f, length).tolist() == \
                    expect.tolist()

    def test_phi_direct(self, m, f_name):
        f = OBSERVABLES[f_name](m)
        for n in range(4):
            for length in (n, n + 1):
                expect = oracle_table(
                    m, n, f, length, phi_direct_oracle,
                    lambda b, x: skew_iterate(m, b, x, n))
                assert phi_direct(m, n, f, length).tolist() == \
                    expect.tolist()

    def test_backforth_identity(self, m, f_name):
        f = OBSERVABLES[f_name](m)
        for n in range(6):
            lhs, rhs = backforth_identity(m, n, f)
            expect = [backforth_identity_oracle(m, n, x, f) for x in m.space]
            assert list(zip(lhs.tolist(), rhs.tolist())) == expect

    def test_word_table(self, m, f_name):
        for length in range(4):
            letters, weights = word_table(m, length)
            words = list(support_words(m, length))
            assert [tuple(m.group.elements[i] for i in row)
                    for row in letters.tolist()] == [w for w, _ in words]
            assert weights.tolist() == [p for _, p in words]


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
        # oracle: enumerate moved points and compare phi_1 with phi_0
        gap = phi_formula(m, 1, f, length=4) - phi_formula(m, 0, f, length=4)
        assert d[0] == pytest.approx(np.abs(gap).max(), abs=1e-12)
