"""Markov-operator engine on countable (truncated) models.

Exact evolution of n-step distributions, Cesaro averages, back-and-forth
sequences, invariant-set checking, harmonic residuals and reversibility
verification.  Models are either action-driven (a family of per-generator
bijections plus a step law) or explicit sparse kernel rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (InconclusiveAtTruncation, SymmetryRequired,
                     TruncationOverflow)
from .measures import (ActionOracle, Observable, ReferenceWeights, StateId,
                       StateVector, StepLaw, invert_law, is_symmetric)

SNAPSHOT_PRUNE = 1e-15
OVERFLOW_MASS = 1e-6
DETAILED_BALANCE_TOL = 1e-10


@dataclass
class MarkovModel:
    """A truncated countable state space with its walk structure.

    Exactly one of ``action`` / ``rows`` is set.  ``boundary`` lists the states
    at the truncation edge; any mass pushed outside the stored states is moved
    to an absorbing sink and reported.
    """
    states: Sequence[StateId]
    reference: ReferenceWeights
    action: ActionOracle | None = None
    rows: Mapping[StateId, Mapping[StateId, float]] | None = None
    boundary: frozenset = frozenset()
    reversible_claim: bool = False
    name: str = ""
    index: dict = field(init=False, repr=False)
    _mat_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if (self.action is None) == (self.rows is None):
            raise ValueError("exactly one of action/rows must be given")
        self.index = {x: i for i, x in enumerate(self.states)}
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

    @property
    def interior(self) -> list:
        return [x for x in self.states if x not in self.boundary]

    def apply(self, gen_id: Hashable, x: StateId) -> StateId | None:
        """Image of a state under one generator; None if it leaves the truncation."""
        y = self.action(gen_id, x)
        return y if y in self.index else None

    def transition_matrix(self, mu: StepLaw | None = None) -> sp.csr_matrix:
        """Sparse (n+1)x(n+1) stochastic matrix; last index is the absorbing sink."""
        cached = self._mat_cache.get(mu)
        if cached is not None:
            return cached
        n = self.n_states
        data, ri, ci = [], [], []
        if self.rows is not None:
            for x, row in self.rows.items():
                i = self.index[x]
                for y, p in row.items():
                    ri.append(i)
                    ci.append(self.index[y])
                    data.append(p)
        else:
            if mu is None:
                raise ValueError("action model needs a step law")
            for x in self.states:
                i = self.index[x]
                for g, w in mu.atoms:
                    y = self.action(g.id, x)
                    ri.append(i)
                    ci.append(self.index.get(y, n))
                    data.append(w)
        ri.append(n)
        ci.append(n)
        data.append(1.0)
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
        entries = {}
        pruned = 0.0
        for i in np.nonzero(v[:-1])[0]:
            m = float(v[i])
            if m < SNAPSHOT_PRUNE:
                pruned += m
            else:
                entries[self.states[i]] = m
        return StateVector(entries, pruned)


@dataclass
class EvolutionSeries:
    """Snapshots of the n-step distributions of a walk from a Dirac start."""
    model: MarkovModel
    start: StateId
    law: StepLaw | None
    snapshots: dict[int, StateVector]
    absorbed: dict[int, float]
    pruned_mass_log: dict[int, float]

    def snapshot(self, n: int) -> StateVector:
        return self.snapshots[n]

    def window_mass(self, n: int, window: Iterable[StateId]) -> float:
        nu = self.snapshots[n]
        return sum(nu.mass_at(x) for x in window)


@dataclass
class InvarianceReport:
    set_measure: float          # lambda(A); math.inf when flagged infinite
    operator_residual: float
    generator_residuals: dict
    verdict: str                # "invariant" | "not-invariant" | "inconclusive-at-truncation"


@dataclass
class ReversibilityReport:
    max_residual: float
    passes: bool


def _step_matrix(model: MarkovModel, mu: StepLaw | None) -> sp.csr_matrix:
    if model.rows is not None:
        return model.transition_matrix()
    return model.transition_matrix(mu)


def evolve(model: MarkovModel, x: StateId, mu: StepLaw | None, n_max: int,
           snapshot_schedule: Iterable[int] | None = None,
           check_overflow: bool = True) -> EvolutionSeries:
    """Exact n-step distributions of the walk started at ``x``.

    Raises TruncationOverflow when at least 1e-6 of mass has been absorbed at
    the truncation boundary (the window is too small for this horizon).
    """
    if x not in model.index:
        raise ValueError(f"start state {x!r} not in model")
    schedule = set(range(n_max + 1)) if snapshot_schedule is None \
        else {n for n in snapshot_schedule if n <= n_max}
    mat = _step_matrix(model, mu).T.tocsr()
    v = model.to_vector(StateVector.dirac(x))
    snapshots, absorbed, pruned_log = {}, {}, {}
    for n in range(n_max + 1):
        if n > 0:
            v = mat @ v
        if check_overflow and v[-1] >= OVERFLOW_MASS:
            raise TruncationOverflow(
                f"absorbed mass {v[-1]:.3g} at step {n}; enlarge the truncation")
        if n in schedule:
            nu = model.to_state_vector(v)
            snapshots[n] = nu
            absorbed[n] = float(v[-1])
            pruned_log[n] = nu.pruned_mass
    return EvolutionSeries(model, x, mu, snapshots, absorbed, pruned_log)


def cesaro(series: EvolutionSeries, n: int) -> StateVector:
    """Average of the first ``n`` snapshots, (1/n) * sum_{k<n} snapshot_k.

    Recomputes the evolution when the stored schedule is sparse.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if all(k in series.snapshots for k in range(n)):
        vecs = [series.snapshots[k] for k in range(n)]
        acc = {}
        for nu in vecs:
            for s, m in nu.entries.items():
                acc[s] = acc.get(s, 0.0) + m
        return StateVector({s: m / n for s, m in acc.items()},
                           sum(nu.pruned_mass for nu in vecs) / n)
    model = series.model
    mat = _step_matrix(model, series.law).T.tocsr()
    v = model.to_vector(StateVector.dirac(series.start))
    total = v.copy()
    for _ in range(n - 1):
        v = mat @ v
        total += v
    return model.to_state_vector(total / n)


def back_and_forth(model: MarkovModel, x: StateId, mu: StepLaw,
                   n_max: int) -> list[StateVector]:
    """Entries of the alternating sequence: n inverse-law steps, then n forward steps.

    Entry 0 is the Dirac at ``x``; entry n applies n steps of the inverted law
    first, then n steps of the law itself.
    """
    if model.action is None:
        raise ValueError("back_and_forth needs an action model")
    fwd = model.transition_matrix(mu).T.tocsr()
    bwd = model.transition_matrix(invert_law(mu)).T.tocsr()
    out = []
    v_back = model.to_vector(StateVector.dirac(x))
    for n in range(n_max + 1):
        if n > 0:
            v_back = bwd @ v_back
        v = v_back.copy()
        for _ in range(n):
            v = fwd @ v
        if v[-1] >= OVERFLOW_MASS:
            raise TruncationOverflow(
                f"absorbed mass {v[-1]:.3g} in back-and-forth entry {n}")
        out.append(model.to_state_vector(v))
    return out


def _operator_indicator(model: MarkovModel, A: frozenset,
                        mu: StepLaw | None) -> float:
    """sup over interior states of |P 1_A(x) - 1_A(x)|."""
    mat = _step_matrix(model, mu)
    ind = np.zeros(model.n_states + 1)
    for a in A:
        ind[model.index[a]] = 1.0
    p_ind = mat @ ind
    worst = 0.0
    for x in model.interior:
        i = model.index[x]
        worst = max(worst, abs(float(p_ind[i]) - ind[i]))
    return worst


def check_invariant_set(model: MarkovModel, A: Iterable[StateId],
                        mu: StepLaw | None = None,
                        tol: float = 1e-10) -> InvarianceReport:
    """Check both sides of the invariance equivalence for the set ``A``.

    Operator side: sup_x |P 1_A(x) - 1_A(x)| over interior states.  Generator
    side: reference measure of the symmetric difference g.A vs A, per
    generator (for kernel-row models, the probability flow out of A weighted
    by the reference measure).
    """
    A = frozenset(A)
    for a in A:
        if a not in model.index:
            raise ValueError(f"state {a!r} not in model")
    full = A == frozenset(model.states)
    if A & model.boundary and not full:
        raise InconclusiveAtTruncation("set touches the truncation boundary")

    op_res = _operator_indicator(model, A, mu)

    gen_res: dict = {}
    if model.action is not None and mu is not None:
        # reference measure of (g.A symmetric-difference A), evaluated on the
        # interior through preimages: s is in g.A iff g^-1 s is in A
        for g in mu.support:
            res = 0.0
            for s in model.interior:
                pre = model.apply(g.inverse_id, s)
                if pre is None:
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
    interior = set(model.interior)
    if model.reference.total_is_infinite and A >= interior:
        lam = float("inf")

    ok = op_res <= tol and all(r <= tol for r in gen_res.values())
    return InvarianceReport(lam, op_res, gen_res,
                            "invariant" if ok else "not-invariant")


def harmonic_residual(model: MarkovModel, psi: Mapping[StateId, float] | Observable,
                      mu: StepLaw | None = None) -> float:
    """sup over interior states of |P psi(x) - psi(x)|; zero iff psi is harmonic there."""
    get = psi.__call__ if isinstance(psi, Observable) else \
        (lambda x: psi[x])
    worst = 0.0
    if model.rows is not None:
        for x in model.interior:
            val = sum(p * get(y) for y, p in model.rows[x].items())
            worst = max(worst, abs(val - get(x)))
        return worst
    if mu is None:
        raise ValueError("action model needs a step law")
    for x in model.interior:
        val = 0.0
        for g, w in mu.atoms:
            y = model.action(g.id, x)
            if y not in model.index:
                raise InconclusiveAtTruncation(
                    f"psi undefined outside truncation at ({g.id!r}, {x!r})")
            val += w * get(y)
        worst = max(worst, abs(val - get(x)))
    return worst


def verify_reversibility(model: MarkovModel, mu: StepLaw | None = None,
                         tol: float = DETAILED_BALANCE_TOL) -> ReversibilityReport:
    """Max detailed-balance residual |lam(x)p(x,y) - lam(y)p(y,x)| over stored pairs."""
    if model.rows is not None:
        p = {(x, y): v for x, row in model.rows.items() for y, v in row.items()}
    else:
        if mu is None:
            raise ValueError("action model needs a step law")
        p = {}
        for x in model.states:
            for g, w in mu.atoms:
                y = model.apply(g.id, x)
                if y is not None:
                    p[(x, y)] = p.get((x, y), 0.0) + w
    lam = model.reference
    worst = 0.0
    for (x, y), v in p.items():
        worst = max(worst, abs(lam(x) * v - lam(y) * p.get((y, x), 0.0)))
    return ReversibilityReport(worst, worst <= tol)


def even_return_curve(model: MarkovModel, x: StateId, mu: StepLaw | None,
                      n_max: int) -> list[float]:
    """Return masses ((2n)-step distribution at the start) for n = 0..n_max.

    Nonincreasing whenever the walk is reversible (spectral consequence of
    self-adjointness); requires a symmetric law / verified detailed balance.
    """
    if model.rows is not None:
        if not verify_reversibility(model).passes:
            raise SymmetryRequired("kernel rows fail detailed balance")
    else:
        if mu is None or not is_symmetric(mu, 1e-12):
            raise SymmetryRequired("even_return_curve needs a symmetric law")
    mat = _step_matrix(model, mu).T.tocsr()
    i0 = model.index[x]
    v = model.to_vector(StateVector.dirac(x))
    curve = [1.0]
    for _ in range(n_max):
        v = mat @ (mat @ v)
        curve.append(float(v[i0]))
    return curve
