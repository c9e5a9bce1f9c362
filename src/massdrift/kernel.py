"""Markov-operator engine on countable (truncated) models.

Exact evolution of n-step distributions, Cesaro averages, back-and-forth
sequences, invariant-set checking and reversibility verification.  Models
are either action-driven (per-generator neighbour index arrays plus a step
law) or explicit sparse kernel rows.  Action models move mass that leaves the
truncation to an absorbing sink; kernel rows never send mass there.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (InconclusiveAtTruncation, SymmetryRequired,
                     TruncationOverflow)
from .measures import (ReferenceWeights, StateId, StateVector, StepLaw,
                       invert_law, is_symmetric)

SNAPSHOT_PRUNE = 1e-15
OVERFLOW_MASS = 1e-6
DETAILED_BALANCE_TOL = 1e-10
#: the dense block path agrees with sparse stepping within this
DENSE_TOL = 1e-12
#: models with more states than this (sink included) always step sparsely
DENSE_MAX_STATES = 1024


@dataclass
class MarkovModel:
    """A truncated countable state space with its walk structure.

    Exactly one of ``neighbours`` / ``rows`` is set.  ``neighbours`` is the
    action of one generator on every state at once: for a generator id, the
    index of each state's image, ``n_states`` (the sink) where the image
    leaves the truncation.  Mass sent there stays in an absorbing sink and is
    reported.  ``rows`` are explicit kernel rows; each sums to 1 over the
    stored states, so a rows model never sends mass to the sink (a funnel's
    last block reflects).  ``boundary`` is a bool array over ``states``, True
    at the truncation edge; all False unless given.
    """
    states: Sequence[StateId]
    reference: ReferenceWeights
    neighbours: Callable[[Hashable], np.ndarray] | None = None
    rows: Mapping[StateId, Mapping[StateId, float]] | None = None
    boundary: np.ndarray | None = None
    reversible_claim: bool = False
    name: str = ""
    index: dict = field(init=False, repr=False)
    _mat_cache: dict = field(init=False, repr=False, default_factory=dict)
    #: transposes of the cached transition matrices, by law
    _step_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if (self.neighbours is None) == (self.rows is None):
            raise ValueError("exactly one of neighbours/rows must be given")
        self.index = {x: i for i, x in enumerate(self.states)}
        self.boundary = np.zeros(self.n_states, dtype=bool) \
            if self.boundary is None else np.asarray(self.boundary, dtype=bool)
        if self.rows is not None:
            for x, row in self.rows.items():
                s = sum(row.values())
                if abs(s - 1.0) > 1e-12:
                    raise ValueError(f"kernel row at {x!r} sums to {s}, not 1")
            if self.reversible_claim:
                rep = verify_reversibility(self)
                if not rep.passes:
                    raise ValueError(
                        f"reversible_claim violated, residual {rep.max_residual}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def transition_matrix(self, mu: StepLaw | None = None) -> sp.csr_matrix:
        """Sparse (n+1)x(n+1) stochastic matrix; last index is the absorbing sink."""
        cached = self._mat_cache.get(mu)
        if cached is not None:
            return cached
        n = self.n_states
        if self.rows is not None:
            data, ri, ci = [], [], []
            for x, row in self.rows.items():
                i = self.index[x]
                for y, p in row.items():
                    ri.append(i)
                    ci.append(self.index[y])
                    data.append(p)
        else:
            if mu is None:
                raise ValueError("action model needs a step law")
            # row i holds one entry per atom, in law order
            images = np.stack([self.neighbours(g.id) for g, _ in mu.atoms], 1)
            ci = np.ravel(images)
            ri = np.repeat(np.arange(n), len(mu.atoms))
            data = np.tile([w for _, w in mu.atoms], n)
        ri = np.append(ri, n)
        ci = np.append(ci, n)
        data = np.append(data, 1.0)
        mat = sp.csr_matrix((data, (ri, ci)), shape=(n + 1, n + 1))
        mat.sum_duplicates()
        self._mat_cache[mu] = mat
        return mat

    def to_vector(self, nu: StateVector) -> np.ndarray:
        v = np.zeros(self.n_states + 1)
        for x, m in nu.entries.items():
            v[self.index[x]] = m
        return v

    def to_state_vector(self, v: np.ndarray) -> StateVector:
        return _state_vector(self, *_nonzero(v))


def _state_vector(model: MarkovModel, idx: np.ndarray,
                  mass: np.ndarray) -> StateVector:
    """The StateVector of the nonzero masses ``mass`` at the ascending state
    indices ``idx``; masses below SNAPSHOT_PRUNE go to pruned_mass."""
    kept = ~(mass < SNAPSHOT_PRUNE)      # a NaN mass is kept, not pruned
    states = model.states
    return StateVector(
        {states[i]: m for i, m in zip(idx[kept].tolist(), mass[kept].tolist())},
        _pruned_mass(mass))


def _nonzero(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 indices and float64 masses of the nonzero states of a vector
    (the sink excluded)."""
    # nonzero of a boolean mask is several times faster than of floats
    idx = np.flatnonzero(v[:-1] != 0).astype(np.int32)
    return idx, v[idx]


def _pruned_mass(mass: np.ndarray) -> float:
    """Total of the masses below SNAPSHOT_PRUNE, added one at a time in index
    order as a loop would (accumulate is sequential; np.sum adds pairwise)."""
    small = mass[mass < SNAPSHOT_PRUNE]
    return float(np.add.accumulate(small)[-1]) if small.size else 0.0


class Snapshots(Mapping):
    """Step -> StateVector of an evolution, stored compactly.

    Each snapshot is kept as the unpruned nonzero entries of the distribution
    (int32 state indices, float64 masses); a StateVector is built on every
    access and not cached.
    """

    def __init__(self, model: MarkovModel):
        self.model = model
        self.arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __getitem__(self, n: int) -> StateVector:
        return _state_vector(self.model, *self.arrays[n])

    def __contains__(self, n) -> bool:
        return n in self.arrays

    def __iter__(self):
        return iter(self.arrays)

    def __len__(self) -> int:
        return len(self.arrays)

    def kept(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and masses of snapshot ``n`` with pruned masses set to 0."""
        idx, mass = self.arrays[n]
        return idx, np.where(mass < SNAPSHOT_PRUNE, 0.0, mass)


@dataclass
class EvolutionSeries:
    """Snapshots of the n-step distributions of a walk from a Dirac start."""
    model: MarkovModel
    start: StateId
    law: StepLaw | None
    snapshots: Snapshots
    absorbed: dict[int, float]
    pruned_mass_log: dict[int, float]

    def snapshot(self, n: int) -> StateVector:
        return self.snapshots[n]

    def window_mass(self, n: int, window: Iterable[StateId]) -> float:
        idx, mass = self.snapshots.kept(n)
        dense = np.zeros(self.model.n_states + 1)
        dense[idx] = mass
        # states outside the model read the sink slot, which stays 0
        index = self.model.index
        return sum(dense[[index.get(x, -1) for x in window]].tolist())


@dataclass
class InvarianceReport:
    set_measure: float          # lambda(A); math.inf when flagged infinite
    operator_residual: float
    generator_residuals: dict
    #: "invariant" | "not-invariant"; a set that touches the truncation
    #: boundary raises InconclusiveAtTruncation instead
    verdict: str


@dataclass
class InvarianceBatch:
    """Per-set arrays of ``check_invariant_sets``, one entry per mask row."""
    set_measure: np.ndarray         # lambda(A); inf when flagged infinite
    operator_residual: np.ndarray
    generator_residuals: dict       # generator id, or "flow" -> array
    inconclusive: np.ndarray        # touches the boundary, not the full set
    invariant: np.ndarray           # the verdict; False where inconclusive


@dataclass
class ReversibilityReport:
    max_residual: float
    passes: bool


def _weights(model: MarkovModel) -> np.ndarray:
    """The reference weight of every state, in ``model.states`` order."""
    return np.fromiter((model.reference(x) for x in model.states),
                       dtype=float, count=model.n_states)


def _transition(model: MarkovModel, mu: StepLaw | None) -> sp.csr_matrix:
    """P; kernel-row models ignore the law."""
    return model.transition_matrix(None if model.rows is not None else mu)


def _matrices(model: MarkovModel,
              mu: StepLaw | None) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """P and its transpose P^T, which pushes a distribution one step.  P^T is
    built once per (model, law) and cached beside P."""
    mat = _transition(model, mu)
    key = None if model.rows is not None else mu
    step = model._step_cache.get(key)
    if step is None:
        step = model._step_cache[key] = mat.T.tocsr()
    return mat, step


def _costs(mat: sp.csr_matrix) -> tuple[float, float, float] | None:
    """Rough nanosecond costs (sparse step, dense vector-matrix product, dense
    matrix product) for a transition matrix; None when it is too big to hold
    dense.  Measured on a 2-vCPU Xeon with OpenBLAS on one thread; they only
    pick the path, both of which give the same numbers within DENSE_TOL."""
    n = mat.shape[0]
    if n > DENSE_MAX_STATES:
        return None
    return 7e3 + mat.nnz, _vecmat_ns(n, n), 2e3 + 0.04 * n ** 3


def _vecmat_ns(n: int, m: int) -> float:
    return 2e3 + 0.3 * n * m


def _dense_power(mat: sp.csr_matrix, k: int) -> np.ndarray:
    """mat ** (2 ** k) as a dense array, by repeated squaring."""
    power = mat.toarray()
    for _ in range(k):
        power = power @ power
    return power


def _steps(step: sp.csr_matrix, v: np.ndarray, n: int, count: int,
           check_overflow: bool) -> np.ndarray:
    """Steps n+1..n+count, one sparse matvec each, checking the sink after each."""
    for k in range(n + 1, n + count + 1):
        v = step @ v
        if check_overflow and v[-1] >= OVERFLOW_MASS:
            raise TruncationOverflow(
                f"absorbed mass {v[-1]:.3g} at step {k}; enlarge the truncation")
    return v


def _evolve_block(mat: sp.csr_matrix, stops: list[int]) -> int:
    """k such that jumping 2**k steps at a time between ``stops`` is cheapest,
    or 0 to step sparsely throughout."""
    costs = _costs(mat)
    if costs is None or not stops:
        return 0
    step, vecmat, matmul = costs
    best, best_k = stops[-1] * step, 0
    if best <= matmul:
        return 0
    gaps = np.diff(stops, prepend=0)
    for k in range(1, int(gaps.max()).bit_length()):
        jumps, rest = np.divmod(gaps, 1 << k)
        cost = vecmat + k * matmul + jumps.sum() * vecmat + rest.sum() * step
        if cost < best:
            best, best_k = cost, k
    return best_k


def evolve(model: MarkovModel, x: StateId, mu: StepLaw | None, n_max: int,
           snapshot_schedule: Iterable[int] | None = None,
           check_overflow: bool = True) -> EvolutionSeries:
    """Exact n-step distributions of the walk started at ``x``.

    Raises TruncationOverflow when at least 1e-6 of mass has been absorbed at
    the truncation boundary (the window is too small for this horizon).

    Small models whose snapshots lie far apart jump 2**k steps at a time
    with a dense matrix power and step sparsely the rest of the way.  The
    sink is absorbing, so its mass never falls and one check per jump is
    enough; when a check trips, the jump is redone sparsely, so the overflow
    is reported at the same step either way.
    """
    if x not in model.index:
        raise ValueError(f"start state {x!r} not in model")
    schedule = set(range(n_max + 1)) if snapshot_schedule is None \
        else {n for n in snapshot_schedule if n <= n_max}
    # the loop halts at every snapshot, and runs to n_max while checking
    stops = sorted(n for n in schedule if n > 0)
    if check_overflow and n_max > 0 and (not stops or stops[-1] < n_max):
        stops.append(n_max)
    mat, step = _matrices(model, mu)
    k = _evolve_block(mat, stops)
    block, power = 1 << k, _dense_power(mat, k) if k else None
    v = model.to_vector(StateVector.dirac(x))
    snapshots, absorbed, pruned_log = Snapshots(model), {}, {}

    def record(n: int) -> None:
        idx, mass = _nonzero(v)
        snapshots.arrays[n] = idx, mass
        absorbed[n] = float(v[-1])
        pruned_log[n] = _pruned_mass(mass)

    if 0 in schedule:
        record(0)
    n = 0
    for stop in stops:
        while power is not None and stop - n >= block:
            w = v @ power
            if check_overflow and w[-1] >= OVERFLOW_MASS - DENSE_TOL:
                w = _steps(step, v, n, block, check_overflow)
            v, n = w, n + block
        v, n = _steps(step, v, n, stop - n, check_overflow), stop
        if n in schedule:
            record(n)
    return EvolutionSeries(model, x, mu, snapshots, absorbed, pruned_log)


def cesaro(series: EvolutionSeries, n: int) -> StateVector:
    """Average of the first ``n`` snapshots, (1/n) * sum_{k<n} snapshot_k.

    The pruned snapshots are added in step order, and so are their pruned
    masses; the average is not pruned again.  When a snapshot below ``n`` is
    not stored, the evolution is recomputed by sparse steps, raising
    TruncationOverflow at the step ``evolve`` would.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    model = series.model
    total, pruned = np.zeros(model.n_states), 0.0
    for idx, mass in _snapshot_arrays(series, n):
        total[idx] += np.where(mass < SNAPSHOT_PRUNE, 0.0, mass)
        pruned += _pruned_mass(mass)
    idx = np.flatnonzero(total)
    states = model.states
    return StateVector(
        {states[i]: m for i, m in zip(idx.tolist(), (total[idx] / n).tolist())},
        pruned / n)


def _snapshot_arrays(series: EvolutionSeries, n: int):
    """Unpruned nonzero entries of snapshots 0..n-1: the stored ones when
    every one of them is stored, otherwise recomputed."""
    if all(k in series.snapshots for k in range(n)):
        yield from (series.snapshots.arrays[k] for k in range(n))
        return
    step = _matrices(series.model, series.law)[1]
    v = series.model.to_vector(StateVector.dirac(series.start))
    for k in range(n):
        if k:
            v = _steps(step, v, k - 1, 1, True)
        yield _nonzero(v)


def back_and_forth(model: MarkovModel, x: StateId, mu: StepLaw,
                   n_max: int) -> list[StateVector]:
    """Entries of the alternating sequence: n inverse-law steps, then n forward steps.

    Entry 0 is the Dirac at ``x``; entry n applies n steps of the inverted law
    first, then n steps of the law itself.  Small models keep the dense
    forward power F^n up to date, one matrix product per entry, instead of
    taking n fresh sparse steps.
    """
    if model.neighbours is None:
        raise ValueError("back_and_forth needs an action model")
    fwd_mat, fwd = _matrices(model, mu)
    bwd = _matrices(model, invert_law(mu))[1]
    costs = _costs(fwd_mat)
    power = dense_fwd = None
    if costs is not None:
        step, vecmat, matmul = costs
        if n_max * (matmul + vecmat) + vecmat < n_max * (n_max + 1) // 2 * step:
            dense_fwd = _dense_power(fwd_mat, 0)
            power = np.eye(fwd_mat.shape[0])
    out = []
    v_back = model.to_vector(StateVector.dirac(x))
    for n in range(n_max + 1):
        if n > 0:
            v_back = bwd @ v_back
        if power is None:
            v = _steps(fwd, v_back, 0, n, False)
        else:
            if n > 0:
                power = power @ dense_fwd
            v = v_back @ power
            if v[-1] >= OVERFLOW_MASS - DENSE_TOL:
                v = _steps(fwd, v_back, 0, n, False)
        if v[-1] >= OVERFLOW_MASS:
            raise TruncationOverflow(
                f"absorbed mass {v[-1]:.3g} in back-and-forth entry {n}")
        out.append(model.to_state_vector(v))
    return out


def _inconclusive(masks: np.ndarray, on_edge: np.ndarray) -> np.ndarray:
    """Sets that touch the truncation boundary and are not the full set."""
    return (masks & on_edge).any(axis=1) & ~masks.all(axis=1)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums added one column at a time, left to right, as a loop over
    the states would (accumulate is sequential; np.sum adds pairwise)."""
    if terms.shape[1] == 0:
        return np.zeros(terms.shape[0])
    return np.add.accumulate(terms, axis=1)[:, -1]


def check_invariant_sets(model: MarkovModel, masks: np.ndarray,
                         mu: StepLaw | None = None,
                         tol: float = 1e-10) -> InvarianceBatch:
    """Both sides of the invariance equivalence for every row of ``masks``,
    a (sets x states) bool array over ``model.states``.

    Operator side: sup_x |P 1_A(x) - 1_A(x)| over interior states, from one
    product of P with the masks.  Generator side: reference measure of the
    symmetric difference g.A vs A over the interior, per generator, read
    through preimage index arrays (s is in g.A iff g^-1 s is in A); for
    kernel-row models, the probability flow out of A weighted by the
    reference measure, through the sparse P.  A set that touches the
    boundary and is not the full set is flagged ``inconclusive`` and is
    never invariant.  Raises InconclusiveAtTruncation when an interior
    state's preimage leaves the truncation.
    """
    masks = np.asarray(masks, dtype=bool)
    n = model.n_states
    if masks.ndim != 2 or masks.shape[1] != n:
        raise ValueError(f"masks must have shape (sets, {n}), not {masks.shape}")
    mat = _transition(model, mu)
    interior = np.flatnonzero(~model.boundary)
    ref = _weights(model)

    ind = np.zeros((n + 1, len(masks)))       # the sink row stays 0
    ind[:n] = masks.T
    gap = (mat @ ind)[interior] - ind[interior]
    op_res = np.abs(gap).max(axis=0, initial=0.0)

    gen_res: dict = {}
    if model.neighbours is not None and mu is not None:
        inside = masks[:, interior]
        for g in mu.support:
            pre = model.neighbours(g.inverse_id)[interior]
            if (pre == n).any():
                raise InconclusiveAtTruncation(
                    f"generator {g.id!r} preimage leaves the truncation")
            moved = masks[:, pre] != inside
            gen_res[g.id] = _row_sums(np.where(moved, ref[interior], 0.0))
    elif model.rows is not None:
        # (masks . lambda) P, through the sparse P; the sink row is 0
        out_flow = (mat.T @ (ind * np.append(ref, 0.0)[:, None]))[:n].T
        gen_res["flow"] = _row_sums(np.where(masks, 0.0, out_flow))

    lam = _row_sums(np.where(masks, ref, 0.0))
    if model.reference.total_is_infinite:
        lam[masks[:, interior].all(axis=1)] = np.inf
    inconclusive = _inconclusive(masks, model.boundary)
    ok = op_res <= tol
    for res in gen_res.values():
        ok &= res <= tol
    return InvarianceBatch(lam, op_res, gen_res, inconclusive,
                           ok & ~inconclusive)


def check_invariant_set(model: MarkovModel, A: Iterable[StateId],
                        mu: StepLaw | None = None,
                        tol: float = 1e-10) -> InvarianceReport:
    """Check both sides of the invariance equivalence for the set ``A``: one
    row of ``check_invariant_sets``.

    Raises ValueError for a state outside the model and
    InconclusiveAtTruncation for a set that touches the boundary and is not
    the full set.
    """
    mask = np.zeros((1, model.n_states), dtype=bool)
    for a in A:
        i = model.index.get(a)
        if i is None:
            raise ValueError(f"state {a!r} not in model")
        mask[0, i] = True
    if _inconclusive(mask, model.boundary)[0]:
        raise InconclusiveAtTruncation("set touches the truncation boundary")
    batch = check_invariant_sets(model, mask, mu, tol)
    return InvarianceReport(
        float(batch.set_measure[0]), float(batch.operator_residual[0]),
        {g: float(r[0]) for g, r in batch.generator_residuals.items()},
        "invariant" if batch.invariant[0] else "not-invariant")


def verify_reversibility(model: MarkovModel, mu: StepLaw | None = None,
                         tol: float = DETAILED_BALANCE_TOL) -> ReversibilityReport:
    """Max detailed-balance residual |lam(x)p(x,y) - lam(y)p(y,x)| over the
    stored states: the largest entry of |F - F^T| for the flow F = diag(lam) P."""
    n = model.n_states
    flow = _transition(model, mu)[:n, :n].multiply(_weights(model)[:, None])
    worst = float(abs(flow - flow.T).max())
    return ReversibilityReport(worst, worst <= tol)


def _curve_block(mat: sp.csr_matrix, n_max: int) -> int:
    """k such that reading the even-return curve in blocks of 2**k entries
    is cheapest, or 0 to step sparsely throughout."""
    costs = _costs(mat)
    if costs is None:
        return 0
    step, vecmat, matmul = costs
    best, best_k = 2 * n_max * step, 0
    if best <= matmul:
        return 0
    for k in range(1, n_max.bit_length()):
        block = 1 << k
        cost = (2 * block * step + (k + 1) * matmul
                + (n_max // block + 1) * (vecmat + _vecmat_ns(mat.shape[0], block)))
        if cost < best:
            best, best_k = cost, k
    return best_k


def even_return_curve(model: MarkovModel, x: StateId, mu: StepLaw | None,
                      n_max: int) -> list[float]:
    """Return masses ((2n)-step distribution at the start) for n = 0..n_max.

    Nonincreasing whenever the walk is reversible (spectral consequence of
    self-adjointness); requires a symmetric law / verified detailed balance.
    Raises TruncationOverflow at the step ``evolve`` would.  The block path
    checks the sink once per block and redoes a block that trips it by sparse
    steps; the steps past the last whole block are checked by sparse steps.
    """
    if model.rows is not None:
        if not verify_reversibility(model).passes:
            raise SymmetryRequired("kernel rows fail detailed balance")
    else:
        if mu is None or not is_symmetric(mu, 1e-12):
            raise SymmetryRequired("even_return_curve needs a symmetric law")
    mat, step = _matrices(model, mu)
    i0 = model.index[x]
    # no state sends mass to the sink when its column holds only its own loop
    check = np.count_nonzero(mat.indices == model.n_states) > 1
    k = _curve_block(mat, n_max)
    if k == 0:
        v = model.to_vector(StateVector.dirac(x))
        curve = [1.0]
        for n in range(n_max):
            v = _steps(step, v, 2 * n, 2, check)
            curve.append(float(v[i0]))
        return curve
    # blocks of K = 2**k entries: curve[m + j] = v_m @ C[:, j] with
    # C = [e, S e, ..., S^(K-1) e], S = P^2, and v_(m+K) = v_m @ S^K
    block = 1 << k
    cols = np.empty((mat.shape[0], block))
    v = c = model.to_vector(StateVector.dirac(x))
    for j in range(block):
        cols[:, j] = c
        c = mat @ (mat @ c)
    jump = _dense_power(mat, k + 1)
    curve = []
    for m in range(0, n_max + 1, block):
        curve.extend((v @ cols[:, :n_max + 1 - m]).tolist())
        if m + block <= n_max:
            w = v @ jump
            if check and w[-1] >= OVERFLOW_MASS - DENSE_TOL:
                w = _steps(step, v, 2 * m, 2 * block, check)
            v = w
        elif check:
            _steps(step, v, 2 * m, 2 * (n_max - m), check)
    return curve

