"""Experiment runner: JSON config in, CSV series and JSON summaries out.

One table, ``EXPERIMENTS``, maps each experiment to the schema fragment of the
keys it takes and to its runner; validation, dispatch and ``massdrift schema``
all read it.  ``build`` turns a valid config into the objects the runner takes,
so every config error is reported before anything runs.  Flags only override
the seed, the output directory, and the step count.  Exit codes: 0 success,
1 usage/config error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from . import kernel, verify
from .errors import MassdriftError, SpecInvalid
from .kernel import (MarkovModel, back_and_forth, check_invariant_set,
                     even_return_curve, evolve)
from .measures import GeneratorId, StepLaw
from .models import (BooleOrbitSpec, FunnelChainSpec, boole_orbit,
                     build_cycle_model, build_funnel_chain,
                     build_lattice_model, build_two_component_model)
from .montecarlo import (CSV_HEADER, EnsembleSpec, compare_volumes,
                         run_ensemble)


def _closed(required: list, properties: dict) -> dict:
    """An object that takes exactly ``properties`` and needs ``required``."""
    return {"type": "object", "additionalProperties": False,
            "required": required, "properties": properties}


def _when(key: str, value: str, then: dict) -> dict:
    return {"if": {"required": [key], "properties": {key: {"const": value}}}, "then": then}


_AT_LEAST_2 = {"type": "integer", "minimum": 2}
_COUNT = {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NUMBERS = {"type": "array", "items": {"type": "number"}}
_PAIR = {"type": "array", "minItems": 2, "maxItems": 2}
#: an integer, or a list for a tuple state such as [0, 0] on Z^2
_STATE = {"type": ["integer", "array"]}

#: model type -> (keys it needs, keys it takes besides "type")
_MODEL_TYPES = {
    "z-lattice": (["radius"], {"d": {"enum": [1, 2]}, "radius": _AT_LEAST_2}),
    "cycle": (["k"], {"k": _AT_LEAST_2}),
    "two-cycles": (["k"], {"k": _AT_LEAST_2}),
    "funnel": ([], {
        "neck_prefix": _NUMBERS,
        "tail": {"oneOf": [  # ["constant", c] or ["geometric", a, r]
            {"type": "array", "minItems": 1 + n, "items": False,
             "prefixItems": [{"const": rule}] + [{"type": "number"}] * n}
            for rule, n in (("constant", 1), ("geometric", 2))]},
        "step_scale": {**_POSITIVE, "maximum": 0.25},
        "truncation_size": _AT_LEAST_2}),
}


def _model_schema(*types: str) -> dict:
    """A model of one of ``types``, with only the keys its type takes."""
    return {"type": "object", "required": ["type"],
            "properties": {"type": {"enum": list(types)}},
            "allOf": [_when("type", t, _closed(["type", *needs], {"type": {}, **keys}))
                      for t, (needs, keys) in _MODEL_TYPES.items() if t in types]}


_ENSEMBLE = _closed(["chart", "n_walkers", "n_steps"], {
    "chart": {"enum": ["sl2-lattice", "schottky", "z-lattice"]},
    "n_walkers": {"type": "integer", "minimum": 1},
    "n_steps": _COUNT,
    "thresholds": _NUMBERS,
    "snapshots": {"type": "array", "items": _COUNT},
    **dict.fromkeys(("generator_a", "generator_b"),     # row-major 2x2
                    {**_PAIR, "items": {**_PAIR, "items": {"type": "number"}}})})

#: the schema of every config key; each experiment takes some of them
_KEYS = {
    "experiment": {},
    "out": _closed(["csv", "json"], {"csv": {"type": "string"}, "json": {"type": "string"}}),
    "seed": _COUNT,
    "schedule": _closed([], {"n_steps": _COUNT,
                             "snapshots": {"type": "array", "items": _COUNT}}),
    "model": _model_schema(*_MODEL_TYPES),
    "law": _closed(["atoms"], {"atoms": {
        "type": "array", "minItems": 1,
        "items": _closed(["id", "inverse", "weight"], {
            "id": {"type": "string"}, "inverse": {"type": "string"},
            "weight": {**_POSITIVE, "maximum": 1}})}}),
    "start": _STATE,
    "set": {"type": "array", "items": _STATE},
    #: the box [lo, hi]^k, k the number of coordinates of the model's states
    "window": {**_PAIR, "items": {"type": "integer"}},
    "n_max": _COUNT,
    "starts": _NUMBERS,
    "window_halfwidth": _POSITIVE,
    "revisit_radius": _POSITIVE,
    **dict.fromkeys(("ensemble", "ensemble_finite", "ensemble_infinite"), _ENSEMBLE),
}


def _needs(required: list, optional: list = (), **narrowed) -> dict:
    """Schema fragment of one experiment: the keys it needs, the others it
    takes, and the keys whose schema it narrows (such as the model types).
    Every experiment takes "seed" and "schedule", which the flags set."""
    keys = ["experiment", "out", "seed", "schedule", *required, *optional]
    return _closed(["experiment", "out", *required],
                   {**{k: _KEYS[k] for k in keys}, **narrowed})


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fnv1a_64(data: str) -> str:
    """64-bit FNV-1a of the canonical JSON text, as fixed-width hex."""
    h = 0xCBF29CE484222325
    for byte in data.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


class ConfigError(Exception):
    pass


def validate_config(config: dict) -> None:
    errors = jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(config)
    e = min(errors, key=lambda e: list(e.path), default=None)
    if e is not None:
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ConfigError(f"config invalid at {pointer}: {e.message}")


@dataclass
class Setup:
    """The objects a config names, built and checked before anything runs."""
    n_steps: int
    n_max: int                                      # back-and-forth entries
    snapshots: list | None
    window_label: str
    model: MarkovModel | None = None
    law: StepLaw | None = None
    start: object = None
    window: list = field(default_factory=list)
    states: list = field(default_factory=list)      # the invariance "set"
    orbits: BooleOrbitSpec | None = None
    ensembles: list = field(default_factory=list)   # in config-key order


def _state(value):
    """JSON lists become tuples: multi-coordinate states, 2x2 matrices."""
    return tuple(map(_state, value)) if isinstance(value, list) else value


def _model_from_config(cfg: dict) -> MarkovModel:
    t = cfg["type"]
    if t == "z-lattice":
        return build_lattice_model(cfg.get("d", 1), cfg["radius"])
    if t == "cycle":
        return build_cycle_model(cfg["k"])
    if t == "two-cycles":
        return build_two_component_model(cfg["k"])
    spec = FunnelChainSpec(tuple(cfg.get("neck_prefix", ())),
                           tail=tuple(cfg["tail"]) if "tail" in cfg else None,
                           step_scale=cfg.get("step_scale", 0.25),
                           truncation_size=cfg.get("truncation_size", 100))
    return build_funnel_chain(spec)


def _window_states(model: MarkovModel, lo: int, hi: int) -> list:
    """Model states in the box [lo, hi]^k, in row-major order."""
    first = model.states[0]
    if not isinstance(first, tuple):
        return [s for s in range(lo, hi + 1) if s in model.index]
    box = itertools.product(range(lo, hi + 1), repeat=len(first))
    return [s for s in box if s in model.index]


#: experiments whose walk stops at n_steps, so a later snapshot would be
#: silently missing; cesaro steps on to its snapshots by itself
_STOP_AT_HORIZON = ("evolve", "funnel")


def build(config: dict) -> Setup:
    """Build the model, law, start, window and specs of a schema-valid config.

    What the schema cannot check (a start outside the model, a neck that is
    not positive, an action model without a law) raises ConfigError here.
    """
    schedule = config.get("schedule", {})
    lo, hi = config.get("window", (0, 0))
    n_steps = schedule.get("n_steps", 0)
    s = Setup(n_steps, config.get("n_max", n_steps), schedule.get("snapshots"), f"{lo}..{hi}")
    try:
        if config["experiment"] in _STOP_AT_HORIZON:
            for n in s.snapshots or ():
                if n > n_steps:
                    raise ValueError(
                        f"snapshot step {n} is outside the run's 0..{n_steps}")
        if "law" in config:
            s.law = StepLaw(tuple((GeneratorId(a["id"], a["inverse"]), a["weight"])
                                  for a in config["law"]["atoms"]))
        if "model" in config:
            s.model = _model_from_config(config["model"])
            if s.model.neighbours is not None and s.law is None:
                raise ValueError(f"a {config['model']['type']} model needs a law")
            s.start = _state(config.get("start", s.model.states[0]))
            s.states = [_state(x) for x in config.get("set", ())]
            for x in (s.start, *s.states):
                if x not in s.model.index:
                    raise ValueError(f"state {x!r} is not in {s.model.name}")
            s.window = _window_states(s.model, lo, hi)
        if "starts" in config:
            s.orbits = BooleOrbitSpec(tuple(config["starts"]), horizon=n_steps,
                                      window_halfwidth=config.get("window_halfwidth", 10.0),
                                      revisit_radius=config.get("revisit_radius", 1.0))
            s.orbits.validate()
        for ens in (config[k] for k in ("ensemble", "ensemble_finite", "ensemble_infinite")
                    if k in config):
            s.ensembles.append(EnsembleSpec(
                chart=ens["chart"], mu=s.law, n_walkers=ens["n_walkers"],
                n_steps=ens["n_steps"], master_seed=config.get("seed", 0),
                snapshot_schedule=tuple(ens.get("snapshots", ())),
                proxy_thresholds=tuple(ens.get("thresholds", ())),
                generator_a=_state(ens.get("generator_a")),
                generator_b=_state(ens.get("generator_b"))))
    except (ValueError, TypeError, KeyError, SpecInvalid) as e:
        raise ConfigError(str(e)) from e
    return s


# Runners take the Setup and return (csv header, csv rows, verdicts, residuals).

def _run_evolve(s: Setup):
    series = evolve(s.model, s.start, s.law, s.n_steps, snapshot_schedule=s.snapshots)
    rows = [(n, s.window_label, series.window_mass(n, s.window))
            for n in sorted(series.snapshots)]
    return ("n", "window", "mass"), rows, [], {}


def _run_cesaro(s: Setup):
    series = evolve(s.model, s.start, s.law, s.n_steps,
                    snapshot_schedule=s.snapshots or range(s.n_steps))
    rows = []
    for n in sorted(n for n in (s.snapshots or [s.n_steps]) if n >= 1):
        avg = kernel.cesaro(series, n)
        rows.append((n, s.window_label, sum(avg.mass_at(x) for x in s.window)))
    return ("n", "window", "mass"), rows, [], {}


def _run_backforth(s: Setup):
    entries = back_and_forth(s.model, s.start, s.law, s.n_max)
    rows = [(n, nu.total_mass, nu.sup_distance(entries[n - 1]) if n else 0.0)
            for n, nu in enumerate(entries)]
    return ("n", "total_mass", "sup_diff_prev"), rows, [], {}


def _run_invariance(s: Setup):
    rep = check_invariant_set(s.model, s.states, s.law)
    rows = [(str(g), r) for g, r in sorted(rep.generator_residuals.items(),
                                           key=lambda kv: str(kv[0]))]
    verdicts = [{"name": "invariance", "verdict": rep.verdict}]
    residuals = {"operator": rep.operator_residual,
                 **{f"generator:{g}": r for g, r in rows}}
    return ("generator", "residual"), rows, verdicts, residuals


def _run_fiber_verify(s: Setup):
    reports = verify.run_suite("fibers")
    rows = [(r["suite"], name, res)
            for r in reports for name, res in r["per_instance"].items()]
    verdicts = [{"name": r["suite"], "verdict": "pass" if r["pass"] else "fail"}
                for r in reports]
    residuals = {r["suite"]: r["max_residual"] for r in reports}
    return ("suite", "instance", "max_residual"), rows, verdicts, residuals


def _run_funnel(s: Setup):
    curve = even_return_curve(s.model, 0, None, s.n_steps // 2)
    series = evolve(s.model, 0, None, s.n_steps,
                    snapshot_schedule=s.snapshots or [s.n_steps])
    rows = [("return", 2 * i, v) for i, v in enumerate(curve)]
    rows += [("window", n, series.window_mass(n, s.window))
             for n in sorted(series.snapshots)]
    noninc = all(b <= a + 1e-15 for a, b in zip(curve, curve[1:]))
    verdicts = [{"name": "return-curve-nonincreasing",
                 "verdict": "pass" if noninc else "fail"}]
    return ("kind", "step", "value"), rows, verdicts, {}


def _run_boole(s: Setup):
    rows = [(o.start, n, frac, len(o.revisit_times), o.drift_bound)
            for o in boole_orbit(s.orbits).orbits for n, frac in o.occupation_curve]
    return ("start", "n", "occupation_fraction", "n_revisits", "drift_bound"), rows, [], {}


def _run_ensemble(s: Setup):
    curve = run_ensemble(*s.ensembles)
    return CSV_HEADER, [r.as_tuple() for r in curve.rows], [], {}


def _run_contrast(s: Setup):
    report = compare_volumes(*s.ensembles)
    rows = [("finite",) + r.as_tuple() for r in report.finite.rows]
    rows += [("infinite",) + r.as_tuple() for r in report.infinite.rows]
    rows += [("gap", n, j, g, "", "", "", "") for n, j, g in report.gaps]
    return ("chart",) + CSV_HEADER, rows, [], {}


_WALK = _needs(["model"], ["law", "start", "window"])
_ENSEMBLE_RUN = _needs(["law", "ensemble"])

#: experiment -> (schema fragment, runner)
EXPERIMENTS = {
    "evolve": (_WALK, _run_evolve),
    "cesaro": (_WALK, _run_cesaro),
    "backforth": (_needs(["model", "law"], ["start", "n_max"],   # action models only
                         model=_model_schema("z-lattice", "cycle", "two-cycles")),
                  _run_backforth),
    "invariance": (_needs(["model", "set"], ["law"]), _run_invariance),
    "fiber-verify": (_needs([]), _run_fiber_verify),
    "funnel": (_needs(["model"], ["window"], model=_model_schema("funnel")), _run_funnel),
    "boole": (_needs(["starts"], ["window_halfwidth", "revisit_radius"]), _run_boole),
    "sl2": (_ENSEMBLE_RUN, _run_ensemble),
    "schottky": (_ENSEMBLE_RUN, _run_ensemble),
    "contrast": (_needs(["law", "ensemble_finite", "ensemble_infinite"]), _run_contrast),
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "massdrift experiment config",
    "type": "object",
    "required": ["experiment"],
    "properties": {"experiment": {"enum": list(EXPERIMENTS)}},
    "allOf": [_when("experiment", name, fragment)
              for name, (fragment, _) in EXPERIMENTS.items()],
}


#: verdicts that exit 0; every other verdict exits 2
PASSING = ("pass", "invariant")


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def write_csv(path: str, header: tuple, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_config(config: dict, out_dir: str | None = None) -> int:
    validate_config(config)
    setup = build(config)
    params_hash = fnv1a_64(canonical_json(config))
    out = dict(config["out"])
    if out_dir:
        out = {k: str(Path(out_dir) / Path(v).name) for k, v in out.items()}
    for p in out.values():
        Path(p).parent.mkdir(parents=True, exist_ok=True)
    header, rows, verdicts, residuals = EXPERIMENTS[config["experiment"]][1](setup)
    write_csv(out["csv"], header, rows)
    write_summary(out["json"], {"experiment": config["experiment"], "params_hash": params_hash,
                                "verdicts": verdicts, "max_residuals": residuals})
    return 2 if any(v["verdict"] not in PASSING for v in verdicts) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="massdrift",
        description="escape-of-mass experiments on measured spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to JSON config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--n-steps", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=["fibers", "invariance", "all"])
    p_verify.add_argument("--json", dest="json_out", default=None)

    sub.add_parser("schema", help="print the config schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print(json.dumps(CONFIG_SCHEMA, sort_keys=True, indent=2))
        return 0

    if args.command == "verify":
        reports = verify.run_suite(args.suite)
        for r in reports:
            print(f"{r['suite']}: {'pass' if r['pass'] else 'FAIL'}")
        if args.json_out:
            write_summary(args.json_out, {"suites": reports})
        return 0 if all(r["pass"] for r in reports) else 2

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1
    if args.seed is not None:
        config["seed"] = args.seed
    if args.n_steps is not None:
        config.setdefault("schedule", {})["n_steps"] = args.n_steps
    try:
        return run_config(config, out_dir=args.out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MassdriftError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
