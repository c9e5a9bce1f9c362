"""Measure algebra for finitely supported step laws and sparse state measures.

A step law is a finitely supported probability measure on generator symbols;
a state vector is a sparse nonnegative measure on opaque state ids with total
mass at most one.  Evolution (``massdrift.kernel``) pushes state vectors
through a group action supplied by the model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

StateId = Hashable

MASS_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorId:
    """A generator symbol together with the symbol of its inverse.

    ``inverse_id`` may equal ``id`` for involutions (e.g. the flip on Z/2).
    """
    id: Hashable
    inverse_id: Hashable

    def inverse(self) -> "GeneratorId":
        return GeneratorId(self.inverse_id, self.id)


@dataclass(frozen=True)
class StepLaw:
    """Finitely supported probability measure on generators.

    ``atoms`` maps a GeneratorId to its weight; weights are in (0, 1] and sum
    to one within 1e-12.
    """
    atoms: tuple[tuple[GeneratorId, float], ...]

    def __post_init__(self):
        seen = set()
        total = 0.0
        for g, w in self.atoms:
            if g.id in seen:
                raise ValueError(f"duplicate generator {g.id!r} in step law")
            seen.add(g.id)
            if not (0.0 < w <= 1.0):
                raise ValueError(f"weight {w} for {g.id!r} outside (0, 1]")
            total += w
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"step law weights sum to {total}, not 1")

    def weight_of(self, gen_id: Hashable) -> float:
        for g, w in self.atoms:
            if g.id == gen_id:
                return w
        return 0.0

    @property
    def support(self) -> tuple[GeneratorId, ...]:
        return tuple(g for g, _ in self.atoms)


def invert_law(mu: StepLaw) -> StepLaw:
    """Image of the law under inversion: each atom (g, w) becomes (g^-1, w)."""
    return StepLaw(tuple((g.inverse(), w) for g, w in mu.atoms))


def is_symmetric(mu: StepLaw, tol: float = MASS_TOL) -> bool:
    """True iff every atom's inverse carries the same weight within ``tol``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return all(abs(mu.weight_of(g.inverse_id) - w) <= tol for g, w in mu.atoms)


@dataclass(frozen=True)
class StateVector:
    """Sparse nonnegative measure on state ids, total mass <= 1.

    ``pruned_mass`` accounts for atoms dropped below the pruning threshold so
    that mass-conservation checks remain honest over long evolutions.
    """
    entries: Mapping[StateId, float]
    pruned_mass: float = 0.0

    def __post_init__(self):
        total = 0.0
        for x, m in self.entries.items():
            if m < 0:
                raise ValueError(f"negative mass {m} at state {x!r}")
            total += m
        if total > 1.0 + 1e-9:
            raise ValueError(f"total mass {total} exceeds 1")

    @classmethod
    def dirac(cls, x: StateId) -> "StateVector":
        return cls({x: 1.0})

    @property
    def total_mass(self) -> float:
        return sum(self.entries.values())

    def mass_at(self, x: StateId) -> float:
        return self.entries.get(x, 0.0)

    def sup_distance(self, other: "StateVector") -> float:
        keys = set(self.entries) | set(other.entries)
        return max((abs(self.mass_at(x) - other.mass_at(x)) for x in keys),
                   default=0.0)


@dataclass(frozen=True)
class Observable:
    """Finite-support real-valued test function on state ids."""
    values: Mapping[StateId, float]

    @classmethod
    def indicator(cls, states: Iterable[StateId]) -> "Observable":
        return cls({x: 1.0 for x in states})

    def __call__(self, x: StateId) -> float:
        return self.values.get(x, 0.0)


@dataclass(frozen=True)
class ReferenceWeights:
    """Reference measure weights (the invariant measure), possibly of infinite total."""
    weight: Mapping[StateId, float] = field(default_factory=dict)
    default: float | None = None
    total_is_infinite: bool = False

    def __post_init__(self):
        for x, w in self.weight.items():
            if w <= 0:
                raise ValueError(f"nonpositive reference weight {w} at {x!r}")
        if self.default is not None and self.default <= 0:
            raise ValueError("default reference weight must be positive")

    def __call__(self, x: StateId) -> float:
        w = self.weight.get(x, self.default)
        if w is None:
            raise KeyError(f"no reference weight for state {x!r}")
        return w


def pair(nu: StateVector, f: Observable) -> float:
    """Integrate the observable against the measure: sum of nu(x) f(x)."""
    if len(f.values) < len(nu.entries):
        return sum(v * nu.mass_at(x) for x, v in f.values.items())
    return sum(m * f(x) for x, m in nu.entries.items())
