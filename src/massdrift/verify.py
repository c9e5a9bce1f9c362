"""Verification suites: exhaustive oracle checks packaged for reuse.

Each suite returns a report dict with per-instance maximum residuals and a
boolean verdict, suitable for JSON emission.  The CLI exposes them through
``massdrift verify``; the acceptance tests call them directly.
"""
from __future__ import annotations

import numpy as np

from . import fibers as fb
from .kernel import MarkovModel, check_invariant_sets
from .measures import Observable, StepLaw
from .models import build_cycle_model, build_two_component_model, cycle_law

FIBER_EQ_TOL = 1e-12
#: subsets per ``check_invariant_sets`` call; bounds the suites' memory
SUBSET_CHUNK = 512


def finite_model_family():
    """Every finite model with group size <= 4 and three laws per group.

    Groups: Z/2, Z/3, Z/4 and the Klein four-group, each acting on itself by
    translation.  Laws: uniform, skewed toward one generator, and a Dirac.
    """
    groups = {
        "Z2": fb.cyclic_group(2),
        "Z3": fb.cyclic_group(3),
        "Z4": fb.cyclic_group(4),
        "K4": fb.klein_four_group(),
    }
    for gname, g in groups.items():
        elems = g.elements
        non_id = [e for e in elems if e != g.identity]
        k = len(elems)
        laws = {
            "uniform": {e: 1.0 / k for e in elems},
            "skewed": {g.identity: 0.5, non_id[0]: 0.3,
                       **{e: 0.2 / (k - 2) for e in non_id[1:]}} if k > 2
                      else {g.identity: 0.7, non_id[0]: 0.3},
            "dirac": {non_id[0]: 1.0},
        }
        for lname, weights in laws.items():
            mu = fb.law_on_group(g, weights)
            model = fb.FiniteFiberModel.translation(g, mu)
            yield f"{gname}-{lname}", model


def fiber_formula_suite(n_max: int = 3) -> dict:
    """Formula vs enumeration equality, exhaustive over words, points, n <= n_max."""
    instances = {}
    for name, m in finite_model_family():
        m.validate()
        f = Observable.indicator([m.space[0]])
        worst = 0.0
        for n in range(n_max + 1):
            gap = fb.phi_formula(m, n, f) - fb.phi_direct(m, n, f)
            worst = max(worst, float(np.abs(gap).max()))
        instances[name] = worst
    worst_all = max(instances.values())
    return {"suite": "fiber-formula", "max_residual": worst_all,
            "per_instance": instances, "tolerance": FIBER_EQ_TOL,
            "pass": worst_all < FIBER_EQ_TOL}


def backforth_identity_suite(n_max: int = 5) -> dict:
    """Word-average vs kernel back-and-forth, independent sides, n <= n_max."""
    instances = {}
    for name, m in finite_model_family():
        f = Observable.indicator([m.space[0]])
        worst = 0.0
        for n in range(n_max + 1):
            lhs, rhs = fb.backforth_identity(m, n, f)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        instances[name] = worst
    worst_all = max(instances.values())
    return {"suite": "backforth-identity", "max_residual": worst_all,
            "per_instance": instances, "tolerance": FIBER_EQ_TOL,
            "pass": worst_all < FIBER_EQ_TOL}


def subset_sweep(model: MarkovModel, first: int, stop: int,
                 mu: StepLaw | None = None, tol: float = 1e-10):
    """``check_invariant_sets`` over the subsets first..stop-1 of the model's
    states, at most SUBSET_CHUNK at a time; bit i of a subset's number
    picks state i.  Yields one InvarianceBatch per chunk."""
    bit = np.arange(model.n_states)
    for lo in range(first, stop, SUBSET_CHUNK):
        numbers = np.arange(lo, min(lo + SUBSET_CHUNK, stop))
        masks = (numbers[:, None] >> bit & 1).astype(bool)
        yield check_invariant_sets(model, masks, mu, tol)


def invariance_equivalence_suite(n_states: int = 12) -> dict:
    """Operator verdict vs generator verdict over every subset, exhaustively.

    One reducible model (two disjoint cycles) and one irreducible cycle of the
    same size; both sides of the equivalence must agree on all 2^n subsets.
    """
    half = n_states // 2
    mu = cycle_law({"+1": 0.5, "-1": 0.5})
    cases = {
        "reducible": build_two_component_model(half),
        "irreducible": build_cycle_model(n_states),
    }
    results = {}
    disagreements = 0
    for name, model in cases.items():
        n_subsets = 2 ** model.n_states
        n_inv = 0
        for batch in subset_sweep(model, 0, n_subsets, mu, tol=1e-10):
            op_ok = batch.operator_residual <= 1e-10
            gen_ok = np.all([r <= 1e-10 for r in
                             batch.generator_residuals.values()], axis=0)
            disagreements += int(np.count_nonzero(op_ok != gen_ok))
            n_inv += int(np.count_nonzero(batch.invariant))
        results[name] = {"subsets": n_subsets, "invariant_count": n_inv}
    return {"suite": "invariance-equivalence", "cases": results,
            "disagreements": disagreements, "pass": disagreements == 0}


def funnel_no_finite_invariant_suite(m_max: int = 12) -> dict:
    """No proper nonempty subset of a small funnel truncation is invariant."""
    from .models import FunnelChainSpec, build_funnel_chain
    offenders = 0
    checked = 0
    for tail in (("constant", 1.0), ("geometric", 0.5, 0.5),
                 ("constant", 1e-12)):
        model = build_funnel_chain(FunnelChainSpec((), tail=tail,
                                                   truncation_size=m_max))
        # exact-zero tolerance: degenerate necks have flows below any fixed
        # positive tolerance, but never exactly zero
        for batch in subset_sweep(model, 1, 2 ** model.n_states - 1, tol=0.0):
            checked += int(np.count_nonzero(~batch.inconclusive))
            offenders += int(np.count_nonzero(batch.invariant))
    return {"suite": "funnel-no-finite-invariant", "checked": checked,
            "offenders": offenders, "pass": offenders == 0}


def run_suite(name: str) -> list[dict]:
    suites = {
        "fibers": [fiber_formula_suite, backforth_identity_suite],
        "invariance": [invariance_equivalence_suite,
                       funnel_no_finite_invariant_suite],
    }
    if name == "all":
        picked = suites["fibers"] + suites["invariance"]
    elif name in suites:
        picked = suites[name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [fn() for fn in picked]
