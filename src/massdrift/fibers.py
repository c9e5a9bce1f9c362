"""Exhaustive verification of the fiber conditional-expectation machinery.

Everything here runs on fully enumerable models: a finite group with an
explicit multiplication table acting on a finite space carrying an invariant
weight.  The word space is truncated to finite length, so "almost every"
statements become "for every word in the support".  Group elements, points
and words are integer positions in index tables, so each function computes
its quantity for every word and point of one (model, n) at once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Mapping

import numpy as np

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

    @cached_property
    def index_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``mult`` and ``inv`` over positions in ``elements``: mult[i, j] is
        the position of elements[i] * elements[j], inv[i] that of the inverse
        of elements[i]."""
        pos = {g: i for i, g in enumerate(self.elements)}
        mult = np.array([[pos[self.mult[(g, h)]] for h in self.elements]
                         for g in self.elements], dtype=np.intp)
        inv = np.array([pos[self.inv[g]] for g in self.elements], dtype=np.intp)
        return mult, inv

    def products(self, letters: np.ndarray) -> np.ndarray:
        """Position of the product of each row of ``letters`` (element
        positions), multiplied left to right from the identity."""
        mult = self.index_tables[0]
        out = np.full(len(letters), self.elements.index(self.identity))
        for j in range(letters.shape[1]):
            out = mult[out, letters[:, j]]
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

    @cached_property
    def action_table(self) -> np.ndarray:
        """act[g, x]: position in ``space`` of group element g (a position in
        ``group.elements``) acting on space[x]."""
        pos = {x: i for i, x in enumerate(self.space)}
        return np.array([[pos[self.action(g, x)] for x in self.space]
                         for g in self.group.elements], dtype=np.intp)

    @cached_property
    def markov_model(self) -> MarkovModel:
        """The walk as a kernel model, built once; its transition matrices
        are cached per law.  A generator's neighbours are its row of
        ``action_table``."""
        pos = {g: i for i, g in enumerate(self.group.elements)}
        return MarkovModel(states=list(self.space), reference=self.lam,
                           neighbours=lambda g: self.action_table[pos[g]],
                           name="finite-fiber")

    def values(self, f: Observable | ReferenceWeights) -> np.ndarray:
        """f at every point of ``space``."""
        return np.array([f(x) for x in self.space], dtype=float)


def law_on_group(group: GroupTable, weights: Mapping[GroupElem, float]) -> StepLaw:
    """Build a StepLaw on group elements, wiring inverse symbols from the table."""
    return StepLaw(tuple(
        (GeneratorId(g, group.inv[g]), w) for g, w in weights.items()))


def word_table(m: FiniteFiberModel, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Every word of ``length`` letters from the law's support, in the order
    ``itertools.product`` gives over the law's atoms: a (words x length)
    array of element positions, and each word's weight, the product of its
    letters' weights taken left to right."""
    pos = {g: i for i, g in enumerate(m.group.elements)}
    atoms = np.array([pos[g.id] for g, _ in m.mu.atoms], dtype=np.intp)
    probs = np.array([w for _, w in m.mu.atoms])
    k = len(atoms)
    # word c has atom (c // k**(length-1-j)) % k at letter j: the first
    # letter varies slowest
    digits = (np.arange(k ** length)[:, None]
              // k ** np.arange(length - 1, -1, -1) % k)
    weights = np.ones(len(digits))
    for j in range(length):
        weights = weights * probs[digits[:, j]]
    return atoms[digits], weights


def _word_length(n: int, length: int | None) -> int:
    length = n if length is None else length
    if n > length:
        raise ValueError("word shorter than n")
    return length


def _word_means(m: FiniteFiberModel, n: int, f: Observable) -> np.ndarray:
    """For every point y, the sum of w_a * f(a_1...a_n y) over the length-n
    support words a, added in word order."""
    letters, weights = word_table(m, n)
    landed = m.action_table[m.group.products(letters)]      # (words, points)
    terms = weights[:, None] * m.values(f)[landed]
    return np.add.accumulate(terms, axis=0)[-1]


def _inverse_prefix_moves(m: FiniteFiberModel, letters: np.ndarray,
                          n: int) -> np.ndarray:
    """(words, points): position of b_n^-1 ... b_1^-1 x for every word b
    and point x, the inverse-prefix product multiplied left to right."""
    inv = m.group.index_tables[1]
    return m.action_table[m.group.products(inv[letters[:, :n][:, ::-1]])]


def phi_formula(m: FiniteFiberModel, n: int, f: Observable,
                length: int | None = None) -> np.ndarray:
    """Fiber-average formula: the integral of f(a_1...a_n b_n^-1...b_1^-1 x)
    over words a, for every support word b of ``length`` letters (default n)
    and every point x.  Rows follow ``word_table(m, length)``, columns
    ``m.space``."""
    letters, _ = word_table(m, _word_length(n, length))
    return _word_means(m, n, f)[_inverse_prefix_moves(m, letters, n)]


def phi_direct(m: FiniteFiberModel, n: int, f: Observable,
               length: int | None = None) -> np.ndarray:
    """Conditional expectation computed from the definition, by brute force,
    for every support word b of ``length`` letters (default n) and every
    point x, laid out as ``phi_formula``'s table.

    Every candidate (word, point) of the truncated word-times-space system
    takes n steps of the skew map: drop a letter, move the point by its
    inverse.  Candidates that land on the same (remaining letters, point)
    form one fiber; f is averaged over it with the product-times-reference
    weights, added in candidate order.  Independent of phi_formula: fiber
    membership is decided by iterating the map, never by the algebraic chart.
    """
    length = _word_length(n, length)
    letters, weights = word_table(m, length)
    inv = m.group.index_tables[1]
    n_points = len(m.space)
    point = np.broadcast_to(np.arange(n_points), (len(letters), n_points))
    for i in range(n):
        point = m.action_table[inv[letters[:, i]][:, None], point]
    # in word_table's order the last length-n letters of word c are
    # numbered c % k**(length-n), k the number of atoms
    rest = np.arange(len(letters)) % len(m.mu.atoms) ** (length - n)
    fiber = (rest[:, None] * n_points + point).ravel()
    w = weights[:, None] * m.values(m.lam)
    # bincount adds in input order: words outer, points inner
    num = np.bincount(fiber, weights=(w * m.values(f)).ravel())
    den = np.bincount(fiber, weights=w.ravel())
    return (num[fiber] / den[fiber]).reshape(len(letters), n_points)


def backforth_identity(m: FiniteFiberModel, n: int,
                       f: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the averaging identity linking fiber means to
    back-and-forths, at every point x of ``m.space``.

    Left: average of phi over length-n words with their product weights.
    Right: the alternating-sequence entry n evaluated against f, computed by
    the kernel engine (independent code path).
    """
    letters, weights = word_table(m, n)
    n_words, n_points = len(letters), len(m.space)
    moved = _inverse_prefix_moves(m, letters, n).T           # (points, words)
    # phi depends on the word only through the moved point y: total the
    # word weights by (x, y) in word order, then add the terms of each x at
    # the words where their point y first appears
    xs = np.arange(n_points)[:, None]
    by_point = np.bincount((xs * n_points + moved).ravel(),
                           weights=np.tile(weights, n_points),
                           minlength=n_points * n_points)
    terms = by_point.reshape(n_points, n_points) * _word_means(m, n, f)
    first = np.full((n_points, n_points), n_words)
    np.minimum.at(first, (xs, moved), np.arange(n_words))
    seq = np.where(first[xs, moved] == np.arange(n_words), terms[xs, moved],
                   0.0)
    lhs = np.add.accumulate(seq, axis=1)[:, -1]
    rhs = np.array([pair(back_and_forth(m.markov_model, x, m.mu, n)[n], f)
                    for x in m.space])
    return lhs, rhs
