"""Run one massdrift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-wide --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; massdrift is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``wall_s``, ``peak_rss_mib``;
times at the reference speed of ``reference.py``); with ``--trace 1`` they are the per-layer ones, and every span is written to
``.bench_out/trace/<workload>-seed<seed>.json``.  The lines above it say the
same in words, with the environment, sample counts and ``fail_frac``.
"""
from __future__ import annotations

import os

# pin every BLAS/OpenMP pool to one thread before numpy is imported, here and
# in the set-up children (they inherit the environment)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def import_massdrift():
    """Import massdrift from this checkout's src/, never from elsewhere."""
    if not (SRC / "massdrift" / "__init__.py").is_file():
        raise SystemExit(f"error: no massdrift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import massdrift
    if Path(massdrift.__file__).resolve().parent != SRC / "massdrift":
        raise SystemExit(f"error: imported massdrift from {massdrift.__file__}")


def pin_to_one_cpu() -> None:
    """Run on one CPU only, so that the reference loop and the jobs it scales
    run on the same vCPU.  Set-up children inherit the pin."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def at_reference_speed(seconds: float, loop_times: list[float]) -> float:
    """A measured time stated at the reference speed, from the reference loop
    timed just before and just after it."""
    import reference
    return seconds * reference.REFERENCE_S / statistics.mean(loop_times)


def measure_setup(workload: str, seed: int, ref) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it is ready to make the
    first timed call: imports, input generation, model construction.  Returns
    the time measured and the time at the reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    before = ref.time()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        rc = child.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up child failed (exit {rc}): {line!r}")
    return elapsed, at_reference_speed(elapsed, [before, ref.time()])


def time_jobs(jobs, job_times: dict, ref=None) -> tuple[float, float, list]:
    """Run one iteration's jobs; returns their wall time, that time at the
    reference speed (when ``ref``, the reference loop, is given) and the
    outputs."""
    outputs = []
    wall = scaled = 0.0
    loop_before = ref.time() if ref else None
    for job in jobs:
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception:   # a job that raises counts as failed, loop goes on
            out, err = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        wall += dt
        if ref:
            loop_after = ref.time()
            dt = at_reference_speed(dt, [loop_before, loop_after])
            scaled += dt
            loop_before = loop_after
        job_times.setdefault(job.name, []).append(dt)
        outputs.append((job, out, err))
    return wall, scaled, outputs


def check_outputs(outputs: list, tally: dict) -> None:
    for job, out, err in outputs:
        if err is not None:
            print(err, file=sys.stderr)
            results = [("job raised", False)]
        else:
            results = job.check(out)
        tally["attempted"] += len(results)
        for name, ok in results:
            if not ok:
                tally["failed"] += 1
                print(f"check failed: {job.name}: {name}", file=sys.stderr)


def describe(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} s, min {min(values):.4f},"
            f" max {max(values):.4f}, n={len(values)}")


def end_to_end(workload, seconds: float, tally: dict, measure_setup):
    """Times are stated at the reference speed; the plain ones are printed
    beside them."""
    import reference
    ref = reference.ReferenceLoop()
    job_times: dict = {}
    walls, scaled, setups = [], [], []
    while not walls or sum(walls) < seconds:
        # spread the set-up samples over the run, so that their median sees
        # the same machine as the iterations do
        while len(setups) < SETUP_REPEATS * sum(walls) / seconds:
            setups.append(measure_setup(ref))
        wall, wall_ref, outputs = time_jobs(workload.prepare(), job_times, ref)
        check_outputs(outputs, tally)
        walls.append(wall)
        scaled.append(wall_ref)
        # free this iteration's models and outputs before the next prepare,
        # so that peak_rss_mib does not depend on the iteration count
        del outputs
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(ref))
    setup_s = [s for _, s in setups]
    for name, times in job_times.items():
        print(f"job {name} at reference speed: {describe(times)}")
    print(f"wall_s: {describe(scaled)} at reference speed (closed loop, one "
          "process, one thread, one CPU)")
    print(f"  measured: {describe(walls)}")
    print(f"setup_s: {describe(setup_s)} at reference speed, over fresh "
          "processes")
    print(f"  measured: {describe([s for s, _ in setups])}")
    print(f"peak_rss_mib: {peak:.1f}")
    return {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"}}


def traced(workload, seconds: float, tally: dict, span_path: Path):
    """Alternate untraced and traced iterations.  Per-layer metrics are means
    over the traced iterations, set-up (``prepare``) included."""
    import tracing
    tracer = tracing.Tracer()
    plain, roots = [], []
    while len(roots) < 2 or sum(plain) * 2 < seconds:
        wall, _, outputs = time_jobs(workload.prepare(), {})
        check_outputs(outputs, tally)
        plain.append(wall)
        del outputs
        tracer.install()
        try:
            sid = tracer.begin("prepare")
            try:
                jobs = workload.prepare()
            finally:
                tracer.end(sid)
            root = tracer.begin("iteration")
            try:
                _, _, outputs = time_jobs(jobs, {})
            finally:
                tracer.end(root)
        finally:
            tracer.uninstall()
        check_outputs(outputs, tally)
        roots.append(root)
        del jobs, outputs
    n = len(roots)
    walls = [tracer.spans[r][4] - tracer.spans[r][3] for r in roots]
    mean_wall = sum(walls) / n
    every = tracing.self_times(tracer.spans)
    # self times inside the timed iterations only: these partition wall_s
    split = {name + "_s": t / n for name, t in tracing.self_times(
        tracing.subtrees(tracer.spans, roots)).items()}
    split["trace.unattributed_s"] = split.pop("iteration_s")
    per_iteration = {name + "_s": t / n for name, t in every.items()}
    per_iteration.update((k, v / n) for k, v in tracer.counts.items())
    per_iteration["trace.unattributed_s"] = split["trace.unattributed_s"]
    per_iteration["trace.overhead_s"] = (statistics.median(walls)
                                         - statistics.median(plain))
    metrics = tracing.result_metrics(tracer, per_iteration)
    print(f"untraced wall_s: {describe(plain)}")
    print(f"traced wall_s: {describe(walls)}")
    print(f"per-layer self times in the traced wall_s (mean of {n}):")
    for name, value in sorted(split.items(), key=lambda kv: -kv[1]):
        print(f"  {name:44s} {value:10.4f} s {value / mean_wall:7.1%}")
    print(f"  sum {sum(split.values()):.6f} s vs traced wall {mean_wall:.6f} s,"
          f" trace.overhead_s {per_iteration['trace.overhead_s']:+.4f} s")
    for metric, reason in sorted(tracer.absent.items()):
        print(f"absent: {metric}: {reason}")
    span_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(str(span_path), {"workload": workload.name,
                                  "iterations": roots,
                                  "absent": tracer.absent})
    print(f"spans: {span_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return metrics


def main(argv=None) -> int:
    pin_to_one_cpu()
    import_massdrift()
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (timed by the parent)")
    args = p.parse_args(argv)

    out_dir = ROOT / ".bench_out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.Workload(args.workload, args.seed, str(out_dir))
        if args.setup_only:
            workload.prepare()
            print("ready", flush=True)
            return 0
        import envinfo
        print("env: " + json.dumps(envinfo.collect(), sort_keys=True))
        print(f"workload {args.workload}, seed {args.seed}, inputs "
              + json.dumps(workload.inputs, sort_keys=True))
        tally = {"attempted": 0, "failed": 0}
        if args.trace:
            span_path = (ROOT / ".bench_out" / "trace"
                         / f"{args.workload}-seed{args.seed}.json")
            metrics = traced(workload, args.seconds, tally, span_path)
        else:
            metrics = end_to_end(
                workload, args.seconds, tally,
                lambda ref: measure_setup(args.workload, args.seed, ref))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    frac = tally["failed"] / tally["attempted"]
    print(f"fail_frac: {frac} ({tally['failed']} of {tally['attempted']} "
          "output checks failed)")
    print(json.dumps({"correct": tally["failed"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
