"""The four benchmark workloads: inputs from the seed, timed jobs, output checks.

Each workload is a closed loop: its jobs run one after another in one process
on one thread.  ``make_inputs`` is a pure function of (workload, seed) that
returns plain JSON data.  ``Workload.prepare`` is the set-up a user
pays before the first call (model and spec construction); it runs again before
every iteration so that every iteration pays transition-matrix assembly, as a
fresh ``massdrift run`` does.  Every check is independent of the code path it
checks: closed forms, dense matrix-power oracles, recorded digests, or a
second library entry point.  The one exception, the Boole reference recount,
checks the written output only (see ``boole_occupation``).
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from massdrift import cli, kernel, models, montecarlo
from massdrift.measures import GeneratorId, StepLaw

WORKLOADS = ("exact-wide", "long-horizon", "walkers", "suites")
DEFAULT_SEED = 42
#: the sl2/Schottky contrast and its split run use this master seed whatever
#: the workload seed is (see README.md, "Left out on purpose")
CONTRAST_SEED = 42
TOL = 1e-12
DIGESTS = Path(__file__).with_name("digests.json")

# exact-wide
BOX_RADIUS = 200
WIDE_STEPS = 2000
# fixed, because snapshot size (and so time and memory) grows with the step
WIDE_SNAPSHOTS = [500, 1000, WIDE_STEPS]
ALL_SNAPSHOT_STEPS = 150
# long-horizon
FUNNEL_M = 400
FUNNEL_STEPS = 100_000
FUNNEL_WINDOW = (0, 10)
CYCLE_K = 64
BACKFORTH_N = 300
BOOLE_ORBITS = 10
BOOLE_STEPS = 100_000
# walkers
WALKERS = 10_000
CONTRAST_STEPS = 200
LINE_STEPS = 400
SPLIT_AT = WALKERS // 2


def make_inputs(workload: str, seed: int) -> dict:
    """Every seeded input of a workload, as plain JSON data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"massdrift-bench/{workload}/{seed}")
    if workload == "exact-wide":
        return {"start": [rng.randint(-10, 10), rng.randint(-10, 10)]}
    if workload == "long-horizon":
        w = [rng.randint(1, 9) for _ in range(3)]
        return {"cycle_start": rng.randrange(CYCLE_K),
                "cycle_weights": {"+1": w[0] / sum(w), "-1": w[1] / sum(w),
                                  "0": w[2] / sum(w)},
                "boole_starts": [rng.uniform(0.4, 3.5)
                                 for _ in range(BOOLE_ORBITS)]}
    if workload == "walkers":
        return {"line_seed": seed, "contrast_seed": CONTRAST_SEED}
    return {}   # suites: exhaustive, nothing to draw


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    #: output -> list of (check name, passed)
    check: Callable[[Any], list[tuple[str, bool]]]


@dataclass
class Checker:
    """Oracles and first-iteration outputs, computed once per process."""
    cache: dict = field(default_factory=dict)

    def once(self, key: str, make: Callable[[], Any]):
        if key not in self.cache:
            self.cache[key] = make()
        return self.cache[key]

    def same_as_first(self, key: str, value) -> bool:
        return self.once("first:" + key, lambda: value) == value


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def _law_config(weights: dict) -> dict:
    inverse = {"+1": "-1", "-1": "+1", "0": "0", "a": "A", "A": "a",
               "b": "B", "B": "b"}
    return {"atoms": [{"id": g, "inverse": inverse[g], "weight": w}
                      for g, w in weights.items()]}


FREE_LAW = _law_config({"a": 0.25, "A": 0.25, "b": 0.25, "B": 0.25})


def _out(name: str) -> dict:
    # bare file names keep the summary's params_hash free of the output
    # directory; run_config places them under out_dir
    return {"csv": f"{name}.csv", "json": f"{name}.json"}


# -- exact-wide ------------------------------------------------------------

def srw2_return_mass(n: int) -> float:
    """Return probability of the planar simple random walk after n steps."""
    if n % 2:
        return 0.0
    k = n // 2
    c = math.comb(2 * k, k) / 4 ** k
    return c * c


def _ledger_ok(series) -> bool:
    return all(abs(series.snapshots[n].total_mass + series.absorbed[n]
                   + series.pruned_mass_log[n] - 1.0) <= TOL
               for n in series.snapshots)


def _returns_ok(series, start) -> bool:
    return all(abs(nu.mass_at(start) - srw2_return_mass(n)) <= TOL
               for n, nu in series.snapshots.items())


def exact_wide_jobs(inputs: dict, out_dir: str, checker: Checker) -> list[Job]:
    model = models.build_lattice_model(2, BOX_RADIUS)
    law = models.srw_law(2)
    start = tuple(inputs["start"])
    outputs: dict = {}

    def wide():
        return kernel.evolve(model, start, law, WIDE_STEPS,
                             snapshot_schedule=WIDE_SNAPSHOTS)

    def every():
        outputs["every"] = kernel.evolve(model, start, law, ALL_SNAPSHOT_STEPS)
        return outputs["every"]

    def average():
        return kernel.cesaro(outputs["every"], ALL_SNAPSHOT_STEPS)

    def check_series(series, schedule):
        return [("snapshot schedule", sorted(series.snapshots) == schedule),
                ("return mass = planar closed form", _returns_ok(series, start)),
                ("mass ledger sums to 1", _ledger_ok(series))]

    def check_average(avg):
        expect = sum(srw2_return_mass(k)
                     for k in range(ALL_SNAPSHOT_STEPS)) / ALL_SNAPSHOT_STEPS
        return [("cesaro return mass = closed form",
                 abs(avg.mass_at(start) - expect) <= TOL),
                ("cesaro mass sums to 1",
                 abs(avg.total_mass + avg.pruned_mass - 1.0) <= TOL)]

    return [
        Job("evolve-2000", wide, lambda s: check_series(s, WIDE_SNAPSHOTS)),
        Job("evolve-150-every", every,
            lambda s: check_series(s, list(range(ALL_SNAPSHOT_STEPS + 1)))),
        Job("cesaro-150", average, check_average),
    ]


# -- long-horizon ----------------------------------------------------------

def funnel_matrix() -> np.ndarray:
    """Dense birth-death matrix of the funnel chain, necks 2^-i, built from
    the crossing rule eps*min(neck, 1) rather than from the model."""
    p = np.zeros((FUNNEL_M + 1, FUNNEL_M + 1))
    for i in range(1, FUNNEL_M + 1):
        c = 0.25 * min(0.5 * 0.5 ** (i - 1), 1.0)
        p[i - 1, i] = p[i, i - 1] = c
    p[np.diag_indices_from(p)] = 1.0 - p.sum(axis=1)
    return p


def funnel_oracle() -> dict:
    row = np.linalg.matrix_power(funnel_matrix(), FUNNEL_STEPS)[0]
    lo, hi = FUNNEL_WINDOW
    return {"window": float(row[lo:hi + 1].sum()), "return": float(row[0])}


def backforth_oracle(start: int, weights: dict) -> list[tuple[float, float]]:
    """(total mass, sup distance to the previous entry) for entries 0..n_max,
    from dense powers: entry n = delta_x B^n F^n with B the inverted law."""
    fwd = np.zeros((CYCLE_K, CYCLE_K))
    for x in range(CYCLE_K):
        fwd[x, (x + 1) % CYCLE_K] += weights["+1"]
        fwd[x, (x - 1) % CYCLE_K] += weights["-1"]
        fwd[x, x] += weights["0"]
    bwd = fwd.T.copy()
    back = np.zeros(CYCLE_K)
    back[start] = 1.0
    power = np.eye(CYCLE_K)
    out, prev = [], None
    for n in range(BACKFORTH_N + 1):
        if n:
            back = back @ bwd
            power = power @ fwd
        entry = back @ power
        diff = 0.0 if prev is None else float(np.abs(entry - prev).max())
        out.append((float(entry.sum()), diff))
        prev = entry
    return out


def boole_occupation(start: float) -> float:
    """Fraction of the first BOOLE_STEPS iterates within |x| <= 10.

    A reference copy of the library's loop, in the same extended precision:
    the orbit is chaotic, so any other arithmetic gives another orbit.  It
    checks that the CSV reports the orbit the library computed, not the
    arithmetic itself; ``occupation_counts_consistent`` checks what the
    arithmetic cannot share.
    """
    x = np.longdouble(start)
    inside = 0
    for _ in range(BOOLE_STEPS):
        x = x - 1 / x
        inside += abs(float(x)) <= 10.0
    return inside / BOOLE_STEPS


def occupation_counts_consistent(rows: list[list[str]]) -> bool:
    """Each occupation fraction at step n is k/n for a whole count k of
    window visits, and k never falls and grows by at most the steps taken."""
    last: dict[str, tuple[int, int]] = {}
    for start, n, frac, *_ in rows:
        n = int(n)
        k = float(frac) * n
        if abs(k - round(k)) > 1e-6:
            return False
        n0, k0 = last.get(start, (0, 0))
        if not (n > n0 and 0 <= round(k) - k0 <= n - n0):
            return False
        last[start] = (n, round(k))
    return True


def long_horizon_jobs(inputs: dict, out_dir: str, checker: Checker) -> list[Job]:
    funnel = {
        "experiment": "funnel",
        "model": {"type": "funnel", "tail": ["geometric", 0.5, 0.5],
                  "step_scale": 0.25, "truncation_size": FUNNEL_M},
        "schedule": {"n_steps": FUNNEL_STEPS},
        "window": list(FUNNEL_WINDOW),
        "out": _out("funnel"),
    }
    backforth = {
        "experiment": "backforth",
        "model": {"type": "cycle", "k": CYCLE_K},
        "law": _law_config(inputs["cycle_weights"]),
        "start": inputs["cycle_start"], "n_max": BACKFORTH_N,
        "out": _out("backforth"),
    }
    boole = {
        "experiment": "boole", "starts": inputs["boole_starts"],
        "schedule": {"n_steps": BOOLE_STEPS}, "out": _out("boole"),
    }

    def check_funnel(rc):
        oracle = checker.once("funnel", funnel_oracle)
        rows = read_csv(Path(out_dir, "funnel.csv"))[1:]
        curve = [float(v) for kind, _, v in rows if kind == "return"]
        window = {int(n): float(v) for kind, n, v in rows if kind == "window"}
        summary = json.loads(Path(out_dir, "funnel.json").read_text())
        return [
            ("exit code 0", rc == 0),
            ("verdicts pass", all(v["verdict"] == "pass"
                                  for v in summary["verdicts"])),
            ("window mass = dense matrix power",
             abs(window.get(FUNNEL_STEPS, math.nan) - oracle["window"]) <= TOL),
            ("return mass = dense matrix power",
             len(curve) == FUNNEL_STEPS // 2 + 1
             and abs(curve[-1] - oracle["return"]) <= TOL),
            ("even-return curve nonincreasing",
             all(b <= a + 1e-15 for a, b in zip(curve, curve[1:]))),
        ]

    def check_backforth(rc):
        oracle = checker.once("backforth", lambda: backforth_oracle(
            inputs["cycle_start"], inputs["cycle_weights"]))
        rows = [(float(m), float(d))
                for _, m, d in read_csv(Path(out_dir, "backforth.csv"))[1:]]
        return [
            ("exit code 0", rc == 0),
            ("entries = dense matrix powers",
             len(rows) == len(oracle)
             and all(abs(m - om) <= TOL and abs(d - od) <= TOL
                     for (m, d), (om, od) in zip(rows, oracle))),
        ]

    def check_boole(rc):
        starts = inputs["boole_starts"]
        rows = read_csv(Path(out_dir, "boole.csv"))[1:]
        final = {float(r[0]): float(r[2]) for r in rows
                 if int(r[1]) == BOOLE_STEPS}
        recount = checker.once("boole", lambda: boole_occupation(starts[0]))
        return [
            ("exit code 0", rc == 0),
            ("preimage jacobian sum = 1",
             all(abs(models.preimage_jacobian_sum(x) - 1.0) <= TOL
                 for x in starts)),
            ("occupation fractions in [0, 1]",
             all(0.0 <= float(r[2]) <= 1.0 for r in rows)),
            ("occupation counts whole and consistent",
             occupation_counts_consistent(rows)),
            ("final occupation = reference recount",
             final.get(starts[0]) == recount),
        ]

    return [
        Job("funnel", lambda: cli.run_config(funnel, out_dir), check_funnel),
        Job("backforth", lambda: cli.run_config(backforth, out_dir),
            check_backforth),
        Job("boole", lambda: cli.run_config(boole, out_dir), check_boole),
    ]


# -- walkers ---------------------------------------------------------------

def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _wilson_ok(rows) -> bool:
    """Every (fraction, lo, hi) triple, as numbers or strings, is ordered."""
    return all(float(lo) <= float(p) <= float(hi) for p, lo, hi in rows)


def _free_law() -> StepLaw:
    return StepLaw(tuple((GeneratorId(a["id"], a["inverse"]), a["weight"])
                         for a in FREE_LAW["atoms"]))


def walkers_jobs(inputs: dict, out_dir: str, checker: Checker) -> list[Job]:
    contrast = {
        "experiment": "contrast", "law": FREE_LAW,
        "seed": inputs["contrast_seed"],
        "ensemble_finite": {"chart": "sl2-lattice", "n_walkers": WALKERS,
                            "n_steps": CONTRAST_STEPS},
        "ensemble_infinite": {"chart": "schottky", "n_walkers": WALKERS,
                              "n_steps": CONTRAST_STEPS},
        "out": _out("contrast"),
    }
    line = montecarlo.EnsembleSpec(
        chart="z-lattice", mu=models.srw_law(1), n_walkers=WALKERS,
        n_steps=LINE_STEPS, master_seed=inputs["line_seed"])
    sl2 = montecarlo.EnsembleSpec(
        chart="sl2-lattice", mu=_free_law(), n_walkers=WALKERS,
        n_steps=CONTRAST_STEPS, master_seed=inputs["contrast_seed"])
    digests = checker.once("digests", recorded_digests)

    def check_contrast(rc):
        blobs = [Path(out_dir, f"contrast.{ext}").read_bytes()
                 for ext in ("csv", "json")]
        rows = read_csv(Path(out_dir, "contrast.csv"))[1:]
        return [
            ("exit code 0", rc == 0),
            ("rerun byte-identical", checker.same_as_first("contrast", blobs)),
            ("wilson intervals contain fractions",
             _wilson_ok([r[3:6] for r in rows if r[0] != "gap"])),
            ("outputs match recorded digest",
             sha256(*blobs) == digests["contrast"]),
        ]

    def check_line(curve):
        rows = [r.as_tuple() for r in curve.rows]
        checks = [
            ("rerun identical", checker.same_as_first("line", rows)),
            ("wilson intervals contain fractions",
             _wilson_ok([r[2:5] for r in rows])),
        ]
        if inputs["line_seed"] == DEFAULT_SEED:
            checks.append(("rows match recorded digest",
                           sha256(repr(rows).encode()) == digests["line"]))
        return checks

    def check_split(curve):
        single = [r[1:] for r in read_csv(Path(out_dir, "contrast.csv"))[1:]
                  if r[0] == "finite"]
        merged = [[_fmt(v) for v in r.as_tuple()] for r in curve.rows]
        return [("split rows = single-run rows", merged == single)]

    return [
        Job("contrast", lambda: cli.run_config(contrast, out_dir),
            check_contrast),
        Job("line-ensemble", lambda: montecarlo.run_ensemble(line), check_line),
        Job("split-run", lambda: montecarlo.split_run(sl2, SPLIT_AT),
            check_split),
    ]


# -- suites ----------------------------------------------------------------

def suites_jobs(inputs: dict, out_dir: str, checker: Checker) -> list[Job]:
    # `verify all` is `verify fibers` followed by `verify invariance`.  They
    # run as two jobs of about equal length, so that the reference loop
    # (reference.py) also samples the machine's speed between the halves.
    def job(suite: str, extra_checks) -> Job:
        path = os.path.join(out_dir, f"verify-{suite}.json")

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["verify", suite, "--json", path])

        def check(rc):
            suites = json.loads(Path(path).read_text())["suites"]
            return [("exit code 0", rc == 0),
                    ("every verdict pass",
                     len(suites) == 2 and all(s["pass"] for s in suites)),
                    *extra_checks(suites)]

        return Job(f"verify-{suite}", run, check)

    def subset_count(suites):
        inv = next((s for s in suites
                    if s["suite"] == "invariance-equivalence"), {"cases": {}})
        return [("subset count 2x4096",
                 sum(c["subsets"] for c in inv["cases"].values()) == 2 * 4096)]

    return [job("fibers", lambda suites: []),
            job("invariance", subset_count)]


JOBS = {
    "exact-wide": exact_wide_jobs,
    "long-horizon": long_horizon_jobs,
    "walkers": walkers_jobs,
    "suites": suites_jobs,
}


class Workload:
    """One workload bound to its seed and an output directory."""

    def __init__(self, name: str, seed: int, out_dir: str):
        self.name = name
        self.inputs = make_inputs(name, seed)
        self.out_dir = out_dir
        self.checker = Checker()

    def prepare(self) -> list[Job]:
        """Build models and specs, the set-up paid before the first call."""
        return JOBS[self.name](self.inputs, self.out_dir, self.checker)
