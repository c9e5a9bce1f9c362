"""Exhaustive verification of the fiber conditional-expectation machinery.

Everything here runs on fully enumerable models: a finite group with an
explicit multiplication table acting on a finite space carrying an invariant
weight.  The word space is truncated to finite length, so "almost every"
statements become "for every word in the support".
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from .errors import SpecInvalid
from .kernel import MarkovModel, back_and_forth
from .measures import (GeneratorId, Observable, ReferenceWeights, StateId,
                       StepLaw, pair)

GroupElem = Hashable


def _require(ok: bool, message: str) -> None:
    """A check that, unlike ``assert``, still runs under ``python -O``."""
    if not ok:
        raise SpecInvalid(message)


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its full multiplication table."""
    elements: tuple
    identity: GroupElem
    mult: Mapping[tuple, GroupElem]
    inv: Mapping[GroupElem, GroupElem]

    def validate(self) -> None:
        """Check the group axioms exhaustively; raises SpecInvalid."""
        for g in self.elements:
            _require(self.mult[(self.identity, g)] == g, f"e*{g!r} != {g!r}")
            _require(self.mult[(g, self.identity)] == g, f"{g!r}*e != {g!r}")
            _require(self.mult[(g, self.inv[g])] == self.identity,
                     f"inv[{g!r}] is not an inverse")
        for g, h, k in itertools.product(self.elements, repeat=3):
            _require(self.mult[(self.mult[(g, h)], k)] ==
                     self.mult[(g, self.mult[(h, k)])],
                     f"({g!r}, {h!r}, {k!r}) breaks associativity")

    def product(self, word: Sequence[GroupElem]) -> GroupElem:
        out = self.identity
        for g in word:
            out = self.mult[(out, g)]
        return out


def cyclic_group(k: int) -> GroupTable:
    """Z/k with elements 0..k-1 under addition."""
    elems = tuple(range(k))
    return GroupTable(
        elements=elems,
        identity=0,
        mult={(a, b): (a + b) % k for a in elems for b in elems},
        inv={a: (-a) % k for a in elems},
    )


def klein_four_group() -> GroupTable:
    """Z/2 x Z/2 with elements as bit pairs."""
    elems = tuple(itertools.product((0, 1), repeat=2))
    return GroupTable(
        elements=elems,
        identity=(0, 0),
        mult={(a, b): (a[0] ^ b[0], a[1] ^ b[1]) for a in elems for b in elems},
        inv={a: a for a in elems},
    )


@dataclass
class FiniteFiberModel:
    """Finite group acting on a finite space with an invariant reference weight."""
    group: GroupTable
    space: tuple
    action: Callable[[GroupElem, StateId], StateId]
    lam: ReferenceWeights
    mu: StepLaw

    @classmethod
    def translation(cls, group: GroupTable, mu: StepLaw) -> "FiniteFiberModel":
        """Left-translation action of the group on itself, uniform weight."""
        return cls(group=group,
                   space=group.elements,
                   action=lambda g, x: group.mult[(g, x)],
                   lam=ReferenceWeights(default=1.0),
                   mu=mu)

    def validate(self) -> None:
        """Check group, action, invariance of lam and the law; raises SpecInvalid."""
        g = self.group
        g.validate()
        for x in self.space:
            _require(self.action(g.identity, x) == x, f"e moves {x!r}")
        for a, b in itertools.product(g.elements, repeat=2):
            for x in self.space:
                _require(self.action(g.mult[(a, b)], x) ==
                         self.action(a, self.action(b, x)),
                         f"({a!r}, {b!r}) do not act compatibly at {x!r}")
        # invariance on singletons suffices by additivity
        for a in g.elements:
            for x in self.space:
                _require(abs(self.lam(self.action(a, x)) - self.lam(x)) < 1e-12,
                         f"{a!r} does not preserve lam at {x!r}")
        for gen, _ in self.mu.atoms:
            _require(gen.id in g.elements and g.inv[gen.id] == gen.inverse_id,
                     f"law atom {gen.id!r} does not match the group")

    def word_inverse_prefix(self, letters: Sequence[GroupElem], n: int) -> GroupElem:
        """Product b_n^-1 ... b_1^-1 (leftmost letter is the inverse of b_n)."""
        return self.group.product([self.group.inv[b] for b in reversed(letters[:n])])

    def skew_iterate(self, letters: Sequence[GroupElem], x: StateId,
                     n: int) -> tuple[tuple, StateId]:
        """Apply the fibred shift n times: drop n letters, move the point by their inverses."""
        y = x
        for i in range(n):
            y = self.action(self.group.inv[letters[i]], y)
        return tuple(letters[n:]), y

    def to_markov_model(self) -> MarkovModel:
        return MarkovModel(states=list(self.space), reference=self.lam,
                           action=self.action, name="finite-fiber")

    def step_law_support(self) -> list[tuple[GroupElem, float]]:
        return [(g.id, w) for g, w in self.mu.atoms]


def law_on_group(group: GroupTable, weights: Mapping[GroupElem, float]) -> StepLaw:
    """Build a StepLaw on group elements, wiring inverse symbols from the table."""
    return StepLaw(tuple(
        (GeneratorId(g, group.inv[g]), w) for g, w in weights.items()))


@dataclass(frozen=True)
class FiberWord:
    """A finite word of group letters with its product weight under the step law."""
    letters: tuple
    weight: float


def support_words(m: FiniteFiberModel, n: int):
    """All length-n words with positive weight, paired with their weights."""
    sup = m.step_law_support()
    for combo in itertools.product(sup, repeat=n):
        letters = tuple(g for g, _ in combo)
        w = 1.0
        for _, p in combo:
            w *= p
        yield letters, w


def phi_formula(m: FiniteFiberModel, n: int, b: FiberWord, x: StateId,
                f: Observable) -> float:
    """Fiber-average formula: integrate f(a_1...a_n b_n^-1...b_1^-1 x) over words a."""
    if n > len(b.letters):
        raise ValueError("word shorter than n")
    y = m.action(m.word_inverse_prefix(b.letters, n), x)
    total = 0.0
    for a, w in support_words(m, n):
        total += w * f(m.action(m.group.product(a), y))
    return total


def phi_direct(m: FiniteFiberModel, n: int, b: FiberWord, x: StateId,
               f: Observable) -> float:
    """Conditional expectation computed from the definition, by brute force.

    Enumerates every candidate point of the truncated word-times-space system,
    keeps those whose n-th skew iterate matches that of (b, x), and averages f
    with the product-times-reference weights.  Independent of phi_formula: fiber
    membership is decided by iterating the map, never by the algebraic chart.
    """
    if n > len(b.letters):
        raise ValueError("word shorter than n")
    target = m.skew_iterate(b.letters, x, n)
    num = 0.0
    den = 0.0
    n_total = len(b.letters)
    for letters, w_word in support_words(m, n_total):
        for x2 in m.space:
            if m.skew_iterate(letters, x2, n) == target:
                w = w_word * m.lam(x2)
                num += w * f(x2)
                den += w
    if den == 0.0:
        raise ValueError("empty fiber: word outside the law's support")
    return num / den


def backforth_identity(m: FiniteFiberModel, n: int, x: StateId,
                       f: Observable) -> tuple[float, float]:
    """Both sides of the averaging identity linking fiber means to back-and-forths.

    Left: average of phi over length-n words with their product weights.
    Right: the alternating-sequence entry n evaluated against f, computed by
    the kernel engine (independent code path).
    """
    # phi depends on the word only through the moved point; group weights by it
    weight_by_point: dict = {}
    for letters, w in support_words(m, n):
        y = m.action(m.word_inverse_prefix(letters, n), x)
        weight_by_point[y] = weight_by_point.get(y, 0.0) + w
    lhs = 0.0
    for y, w in weight_by_point.items():
        mean = sum(wa * f(m.action(m.group.product(a), y))
                   for a, wa in support_words(m, n))
        lhs += w * mean
    model = m.to_markov_model()
    rhs = pair(back_and_forth(model, x, m.mu, n)[n], f)
    return lhs, rhs


def martingale_cauchy(m: FiniteFiberModel, f: Observable,
                      n_max: int) -> list[float]:
    """Successive sup-differences d_n = max |phi_{n+1} - phi_n| over the support.

    Exact: phi_n(b, x) depends on the word only through the moved point
    y = b_n^-1...b_1^-1 x, and the word-average over a equals the n-fold
    convolution power of the law on the group.  Maximizing over reachable
    moved points therefore covers the full support without enumeration of
    words, at cost linear in n_max.
    """
    group = m.group
    # n-fold convolution powers of the law on the group
    conv = {group.identity: 1.0}
    powers = [dict(conv)]
    sup = m.step_law_support()
    for _ in range(n_max + 1):
        nxt: dict = {}
        for g, wg in conv.items():
            for h, wh in sup:
                gh = group.mult[(g, h)]
                nxt[gh] = nxt.get(gh, 0.0) + wg * wh
        conv = nxt
        powers.append(dict(conv))

    def mean_f(n: int, y: StateId) -> float:
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
