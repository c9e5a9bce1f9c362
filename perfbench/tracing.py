"""Spans and counters recorded from outside massdrift.

The tracer replaces public functions at the module attributes their callers
look up (``cli`` imports ``evolve`` by name, so both ``massdrift.kernel.evolve``
and ``massdrift.cli.evolve`` are replaced).  Each call records a span: name,
start, end and parent span.  Spans stay in memory until the run ends.  A hook
whose definition site no longer exists is reported as absent and left out of
the result; the run goes on.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
import weakref
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One public function and every module attribute callers reach it by.

    ``sites[0]`` is where the function is defined; a missing secondary site
    only means that caller changed how it imports the function.  ``count``,
    if given, is called as ``count(tracer, result, *args, **kwargs)`` after
    each call.
    """

    @property
    def metrics(self) -> tuple[str, ...]:
        return (self.span + "_s",) + self.counters

    span: str
    sites: tuple[str, ...]
    count: Callable | None = None
    counters: tuple[str, ...] = ()      # metrics that ``count`` adds to


# -- counters: computed from arguments and return values only ------------

class ByIdentity:
    """Values keyed by object identity (models and matrices are unhashable);
    an entry stops matching once its key object is gone."""

    def __init__(self):
        self._items: dict[int, tuple] = {}

    def get(self, obj):
        hit = self._items.get(id(obj))
        return hit[1] if hit is not None and hit[0]() is obj else None

    def set(self, obj, value) -> None:
        self._items[id(obj)] = (weakref.ref(obj), value)


def _matrix_nnz(tracer, model):
    nnz = tracer.nnz.get(model)
    if nnz is None:
        raise KeyError("no transition matrix seen for this model")
    return nnz, model.n_states + 1


def _count_assemble(tracer, mat, model, mu=None):
    tracer.nnz.set(model, mat.nnz)
    if tracer.assembled.get(mat) is not None:
        return      # served from the model's cache
    tracer.assembled.set(mat, True)
    if model.rows is not None:
        entries = sum(len(row) for row in model.rows.values())
    else:
        entries = model.n_states * len(mu.atoms)
    tracer.add("kernel.assemble_entries", entries)
    tracer.add("kernel.nnz", mat.nnz)


def _count_matvecs(tracer, model, matvecs):
    nnz, n = _matrix_nnz(tracer, model)
    tracer.add("kernel.steps", matvecs)
    # one CSR matvec reads 8-byte data and 4-byte indices per nonzero and
    # reads and writes one float64 vector of length n
    tracer.add("kernel.bytes_moved", matvecs * (12 * nnz + 16 * n))


def _count_evolve(tracer, series, model, x, mu, n_max, *a, **k):
    _count_matvecs(tracer, model, n_max)
    tracer.add("kernel.snapshots", len(series.snapshots))
    tracer.add("kernel.snapshot_entries",
               sum(len(nu.entries) for nu in series.snapshots.values()))


def _count_cesaro(tracer, out, series, n):
    if not all(k in series.snapshots for k in range(n)):
        _count_matvecs(tracer, series.model, n - 1)


def _count_return_curve(tracer, curve, model, x, mu, n_max):
    _count_matvecs(tracer, model, 2 * n_max)


def _count_back_and_forth(tracer, out, model, x, mu, n_max):
    tracer.add("kernel.back_and_forth_calls", 1)
    _count_matvecs(tracer, model, n_max + n_max * (n_max + 1) // 2)


def _count_calls(metric):
    def count(tracer, *_a, **_k):
        tracer.add(metric, 1)
    return count


def _count_boole(tracer, report, spec, *a, **k):
    tracer.add("models.boole.orbit_steps",
               spec.horizon * len(spec.start_points))


def _count_ensemble(tracer, curve, spec):
    steps = spec.n_walkers * spec.n_steps
    tracer.add("montecarlo.walker_steps", steps)
    # the letter array is materialized as int64
    tracer.add("montecarlo.letters_bytes", 8 * steps)


def _count_run_config(tracer, rc, config, out_dir=None):
    for path in config["out"].values():
        if out_dir:
            path = os.path.join(out_dir, os.path.basename(path))
        tracer.add("cli.output_bytes", os.path.getsize(path))


_CHAINS = ("massdrift.models.chains", "massdrift.models", "massdrift.cli")
_CHAINS_VERIFY = _CHAINS + ("massdrift.verify",)


def _sites(name: str, modules: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{m}:{name}" for m in modules)


_MATVECS = ("kernel.steps", "kernel.bytes_moved")

HOOKS: tuple[Hook, ...] = (
    Hook("models.chains.build", _sites("build_lattice_model", _CHAINS)),
    Hook("models.chains.build", _sites("build_funnel_chain", _CHAINS)),
    Hook("models.chains.build", _sites("build_cycle_model", _CHAINS_VERIFY)),
    Hook("models.chains.build",
         _sites("build_two_component_model", _CHAINS_VERIFY)),
    Hook("kernel.assemble",
         ("massdrift.kernel:MarkovModel.transition_matrix",), _count_assemble,
         ("kernel.assemble_entries", "kernel.nnz")),
    Hook("kernel.evolve", _sites("evolve", ("massdrift.kernel", "massdrift.cli")),
         _count_evolve,
         _MATVECS + ("kernel.snapshots", "kernel.snapshot_entries")),
    Hook("kernel.cesaro", ("massdrift.kernel:cesaro",), _count_cesaro,
         _MATVECS),
    Hook("kernel.even_return_curve",
         _sites("even_return_curve", ("massdrift.kernel", "massdrift.cli")),
         _count_return_curve, _MATVECS),
    Hook("kernel.back_and_forth",
         _sites("back_and_forth", ("massdrift.kernel", "massdrift.cli",
                                   "massdrift.fibers")),
         _count_back_and_forth, ("kernel.back_and_forth_calls",) + _MATVECS),
    Hook("kernel.check_invariant_set",
         _sites("check_invariant_set", ("massdrift.kernel", "massdrift.cli",
                                        "massdrift.verify")),
         _count_calls("kernel.check_invariant_set_calls"),
         ("kernel.check_invariant_set_calls",)),
    Hook("models.boole.orbit",
         _sites("boole_orbit", ("massdrift.models.boole", "massdrift.models",
                                "massdrift.cli")),
         _count_boole, ("models.boole.orbit_steps",)),
    Hook("montecarlo.run_ensemble",
         _sites("run_ensemble", ("massdrift.montecarlo", "massdrift.cli")),
         _count_ensemble, ("montecarlo.walker_steps", "montecarlo.letters_bytes")),
    Hook("montecarlo.compare_volumes",
         _sites("compare_volumes", ("massdrift.montecarlo", "massdrift.cli"))),
    Hook("montecarlo.split_run", ("massdrift.montecarlo:split_run",)),
    Hook("models.sl2.reduce_batch",
         _sites("reduce_batch", ("massdrift.models.sl2", "massdrift.montecarlo")),
         _count_calls("models.sl2.reduce_batch_calls"),
         ("models.sl2.reduce_batch_calls",)),
    Hook("models.sl2.shortest_lengths",
         _sites("shortest_lengths",
                ("massdrift.models.sl2", "massdrift.montecarlo"))),
    Hook("models.schottky.step_batch",
         _sites("step_batch", ("massdrift.models.schottky",
                               "massdrift.montecarlo")),
         _count_calls("models.schottky.step_batch_calls"),
         ("models.schottky.step_batch_calls",)),
    Hook("models.schottky.core_distances",
         _sites("core_distances", ("massdrift.models.schottky",
                                   "massdrift.montecarlo"))),
    Hook("fibers.phi_formula", ("massdrift.fibers:phi_formula",),
         _count_calls("fibers.phi_formula_calls"), ("fibers.phi_formula_calls",)),
    Hook("fibers.phi_direct", ("massdrift.fibers:phi_direct",),
         _count_calls("fibers.phi_direct_calls"), ("fibers.phi_direct_calls",)),
    Hook("fibers.backforth_identity", ("massdrift.fibers:backforth_identity",),
         _count_calls("fibers.backforth_identity_calls"),
         ("fibers.backforth_identity_calls",)),
    Hook("verify.fiber_formula_suite", ("massdrift.verify:fiber_formula_suite",)),
    Hook("verify.backforth_identity_suite",
         ("massdrift.verify:backforth_identity_suite",)),
    Hook("verify.invariance_equivalence_suite",
         ("massdrift.verify:invariance_equivalence_suite",)),
    Hook("verify.funnel_no_finite_invariant_suite",
         ("massdrift.verify:funnel_no_finite_invariant_suite",)),
    Hook("cli.run_config", ("massdrift.cli:run_config",), _count_run_config,
         ("cli.output_bytes",)),
)

#: written by the traced run itself, not by a hook
TRACE_METRICS = ("trace.unattributed_s", "trace.overhead_s")


def metric_names(hooks: tuple[Hook, ...] = HOOKS) -> list[str]:
    """Every per-layer metric, in report order."""
    return list(dict.fromkeys(m for h in hooks for m in h.metrics)) \
        + list(TRACE_METRICS)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric in ("kernel.bytes_moved", "montecarlo.letters_bytes"):
        return "bytes-computed"
    return "bytes" if metric.endswith("_bytes") else "count"


def result_metrics(tracer: "Tracer", values: dict[str, float]) -> dict:
    """The per-layer metrics of the result line, each with its unit.

    A metric of a resolved hook that was not called reads 0.  An absent
    metric is left out rather than zeroed, so that a renamed function does
    not read as a 100 % saving.
    """
    return {name: {"value": values.get(name, 0), "unit": unit(name)}
            for name in metric_names(tracer.hooks) if name not in tracer.absent}


def resolve_site(site: str):
    """(owner, attribute name, current value) for "module:attr.attr"."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory spans plus counters, with install/uninstall of the hooks."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        # span rows: [id, parent id or -1, name, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.nnz = ByIdentity()          # model -> nnz of its step matrix
        self.assembled = ByIdentity()    # matrices already counted
        self._stack: list[int] = []
        self._patches: list[tuple] = []      # (owner, attr, wrapper, original)
        self._find_sites()

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def add(self, metric: str, value: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value

    # -- hooks -----------------------------------------------------------
    def _find_sites(self) -> None:
        live: set[str] = set()
        missing: dict[str, str] = {}
        for hook in self.hooks:
            try:
                first = resolve_site(hook.sites[0])
            except (ImportError, AttributeError) as e:
                for metric in hook.metrics:
                    missing.setdefault(metric, f"{hook.sites[0]} missing ({e})")
                continue
            live.update(hook.metrics)
            wrappers = {}
            for i, site in enumerate(hook.sites):
                try:
                    owner, attr, fn = first if i == 0 else resolve_site(site)
                except (ImportError, AttributeError):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, hook)
                self._patches.append((owner, attr, wrappers[id(fn)], fn))
        # metric -> reason; absent only when no hook feeding it resolved
        self.absent = {m: r for m, r in missing.items() if m not in live}

    def _wrap(self, fn, hook: Hook):
        tracer, name, count = self, hook.span, hook.count
        counters = hook.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if count is not None:
                try:
                    count(tracer, out, *args, **kwargs)
                except (AttributeError, TypeError, KeyError, OSError) as e:
                    for metric in counters:
                        tracer.absent.setdefault(
                            metric, f"counter failed: {type(e).__name__}: {e}")
            return out

        return traced

    def install(self) -> None:
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, _, original in reversed(self._patches):
            setattr(owner, attr, original)

    def write(self, path: str, extra: dict) -> None:
        """Write every span (and ``extra``) as one JSON document."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra, names=names, fields=["id", "parent", "name",
                                               "start", "end"],
                   spans=[[s[0], s[1], index[s[2]], s[3], s[4]]
                          for s in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum of self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for sid, _, name, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def subtrees(spans: list[list], roots: list[int]) -> list[list]:
    """The spans that descend from (or are) one of ``roots``."""
    keep = set(roots)
    out = []
    for span in spans:       # parents are always recorded before children
        if span[0] in keep or span[1] in keep:
            keep.add(span[0])
            out.append(span)
    return out
