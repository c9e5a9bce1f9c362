"""Countable chain models: lattice boxes, funnel-surface surrogate chains, cycles.

Lattice boxes are the simplest infinite-reference-measure instances; the funnel
chain is a reversible birth-death surrogate for a surface built from blocks
glued along necks, with crossing probability proportional to the neck length.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import SpecInvalid
from ..kernel import MarkovModel
from ..measures import GeneratorId, ReferenceWeights, StepLaw


def srw_law(d: int = 1) -> StepLaw:
    """Symmetric simple-random-walk law on the 2d unit steps of Z^d."""
    w = 1.0 / (2 * d)
    atoms = []
    for i in range(d):
        atoms.append((GeneratorId(f"+e{i + 1}", f"-e{i + 1}"), w))
        atoms.append((GeneratorId(f"-e{i + 1}", f"+e{i + 1}"), w))
    return StepLaw(tuple(atoms))


def build_lattice_model(d: int, radius: int) -> MarkovModel:
    """Z^d truncated to the centered box of the given radius, counting measure.

    Generators are the 2d unit steps; boundary states are those on the box
    edge, absorbed-and-flagged by default when mass steps outside.  States
    are the box in row-major order, so a state's index is its shifted
    coordinates read in base 2*radius+1.
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if radius < 2:
        raise ValueError("radius must be >= 2")
    width = 2 * radius + 1
    shape = (width,) * d
    rng = range(-radius, radius + 1)

    def neighbours(gid):
        axis = 0 if d == 1 else int(gid[2]) - 1
        coords = np.indices(shape).reshape(d, -1)
        coords[axis] += 1 if gid[0] == "+" else -1
        out = (coords[axis] < 0) | (coords[axis] >= width)
        images = np.ravel_multi_index(coords, shape, mode="clip")
        images[out] = width ** d
        return images

    grid = np.indices(shape).reshape(d, -1)
    states = list(rng) if d == 1 else list(itertools.product(rng, repeat=2))
    return MarkovModel(
        states=states,
        reference=ReferenceWeights(default=1.0, total_is_infinite=True),
        neighbours=neighbours,
        boundary=((grid == 0) | (grid == width - 1)).any(axis=0),
        reversible_claim=True,
        name=f"z{d}-lattice-r{radius}",
    )


#: cycle generator id -> its translation
_CYCLE_STEPS = {"+1": 1, "-1": -1, "0": 0}


def build_cycle_model(k: int) -> MarkovModel:
    """Z/k with the +-1 translation generators and uniform reference weight."""
    def neighbours(gid):
        return (np.arange(k) + _CYCLE_STEPS[gid]) % k

    return MarkovModel(states=list(range(k)),
                       reference=ReferenceWeights(default=1.0),
                       neighbours=neighbours, name=f"cycle-{k}")


def cycle_law(weights_by_step: dict) -> StepLaw:
    """Law on cycle generators from a {"+1": w, "-1": w, "0": w} mapping."""
    inv = {"+1": "-1", "-1": "+1", "0": "0"}
    return StepLaw(tuple(
        (GeneratorId(g, inv[g]), w) for g, w in weights_by_step.items()))


def build_two_component_model(k: int) -> MarkovModel:
    """Disjoint union of two Z/k cycles; the components are the invariant sets."""
    states = [("A", i) for i in range(k)] + [("B", i) for i in range(k)]

    def neighbours(gid):
        component, i = np.divmod(np.arange(2 * k), k)
        return component * k + (i + _CYCLE_STEPS[gid]) % k

    return MarkovModel(states=states, reference=ReferenceWeights(default=1.0),
                       neighbours=neighbours, name=f"two-cycles-{k}")


@dataclass(frozen=True)
class FunnelChainSpec:
    """Neck lengths of the funnel surface surrogate plus its discretization.

    ``neck_prefix`` gives the first neck lengths explicitly; ``tail`` extends
    them: ("constant", c) repeats c, ("geometric", a, r) continues a*r^j.
    """
    neck_prefix: tuple[float, ...]
    tail: tuple | None = None
    step_scale: float = 0.25
    truncation_size: int = 100

    def neck(self, i: int) -> float:
        """Neck length between block i-1 and block i (i >= 1)."""
        if i < 1:
            raise ValueError("necks are indexed from 1")
        if i <= len(self.neck_prefix):
            return self.neck_prefix[i - 1]
        if self.tail is None:
            raise SpecInvalid(f"no tail rule and neck {i} beyond prefix")
        if self.tail[0] == "constant":
            return self.tail[1]
        if self.tail[0] == "geometric":
            _, a, r = self.tail
            return a * r ** (i - 1)
        raise SpecInvalid(f"unknown tail rule {self.tail[0]!r}")

    def validate(self) -> None:
        if not (0.0 < self.step_scale <= 0.25):
            raise SpecInvalid("step_scale must be in (0, 1/4]")
        if self.truncation_size < 2:
            raise SpecInvalid("truncation_size must be >= 2")
        for i in range(1, self.truncation_size + 1):
            if self.neck(i) <= 0:
                raise SpecInvalid(f"neck length {i} is nonpositive")


def build_funnel_chain(spec: FunnelChainSpec) -> MarkovModel:
    """Birth-death chain on blocks 0..M with crossing rate eps*min(neck, 1).

    Off-diagonal entries are symmetric and the reference weight is constant,
    so detailed balance holds by construction; all necks positive makes the
    chain irreducible.
    """
    spec.validate()
    m = spec.truncation_size
    eps = spec.step_scale
    cross = [eps * min(spec.neck(i), 1.0) for i in range(1, m + 1)]
    rows: dict = {}
    for i in range(m + 1):
        row: dict = {}
        off = 0.0
        if i < m:
            row[i + 1] = cross[i]
            off += cross[i]
        if i > 0:
            row[i - 1] = cross[i - 1]
            off += cross[i - 1]
        if off > 1.0:
            raise SpecInvalid(f"off-diagonal mass {off} > 1 in row {i}")
        if off < 1.0:
            row[i] = 1.0 - off
        rows[i] = row
    return MarkovModel(states=list(range(m + 1)),
                       reference=ReferenceWeights(default=1.0,
                                                  total_is_infinite=True),
                       rows=rows, reversible_claim=True,
                       name=f"funnel-M{m}")
