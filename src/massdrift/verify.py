"""Verification suites: exhaustive oracle checks packaged for reuse.

Each suite returns a report dict with per-instance maximum residuals and a
boolean verdict, suitable for JSON emission.  The CLI exposes them through
``massdrift verify``; the acceptance tests call them directly.
"""
from __future__ import annotations

from . import fibers as fb
from .errors import InconclusiveAtTruncation
from .kernel import check_invariant_set
from .measures import Observable
from .models import build_cycle_model, build_two_component_model, cycle_law

FIBER_EQ_TOL = 1e-12


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
            for letters, w in fb.support_words(m, n):
                b = fb.FiberWord(letters, w)
                for x in m.space:
                    worst = max(worst, abs(
                        fb.phi_formula(m, n, b, x, f) -
                        fb.phi_direct(m, n, b, x, f)))
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
            for x in m.space:
                lhs, rhs = fb.backforth_identity(m, n, x, f)
                worst = max(worst, abs(lhs - rhs))
        instances[name] = worst
    worst_all = max(instances.values())
    return {"suite": "backforth-identity", "max_residual": worst_all,
            "per_instance": instances, "tolerance": FIBER_EQ_TOL,
            "pass": worst_all < FIBER_EQ_TOL}


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
        states = list(model.states)
        n_inv = 0
        for bits in range(2 ** len(states)):
            A = [s for i, s in enumerate(states) if bits >> i & 1]
            rep = check_invariant_set(model, A, mu, tol=1e-10)
            op_ok = rep.operator_residual <= 1e-10
            gen_ok = all(r <= 1e-10 for r in rep.generator_residuals.values())
            if op_ok != gen_ok:
                disagreements += 1
            if rep.verdict == "invariant":
                n_inv += 1
        results[name] = {"subsets": 2 ** len(states), "invariant_count": n_inv}
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
        states = list(model.states)
        for bits in range(1, 2 ** len(states) - 1):
            A = [s for i, s in enumerate(states) if bits >> i & 1]
            try:
                # exact-zero tolerance: degenerate necks have flows below any
                # fixed positive tolerance, but never exactly zero
                rep = check_invariant_set(model, A, tol=0.0)
            except InconclusiveAtTruncation:
                continue
            checked += 1
            if rep.verdict == "invariant":
                offenders += 1
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
