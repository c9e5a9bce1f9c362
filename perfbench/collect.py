"""Run the benchmark repeatedly and save the results as one result set.

    python3 perfbench/collect.py --out base.json --runs 10
    python3 perfbench/collect.py --out change.json --runs 10 \\
        --against ../parent --against-out parent.json

Every workload of BENCHMARK.json runs once per seed (1, 2, ...), with the
run length from BENCHMARK.json.  With ``--against`` the same seeds also run in a
second checkout, alternating which side runs first, so that the two result
sets can be compared pair by pair with compare.py.  Copy this benchmark
directory into the other checkout first: both sides must run identical
benchmark code.  At the end the spread of every end-to-end metric is printed
next to its bound.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((checkout / HERE.name).glob("*.py")):
        h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int,
             seconds: int) -> tuple[dict, dict | None]:
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[5:]) for line in lines
                if line.startswith("env: ")), None)
    return json.loads(lines[-1]), env


def spread_report(result_set: dict, bench: dict) -> None:
    print(f"{result_set['checkout']}:")
    for w in bench["workloads"]:
        runs = [r for r in result_set["runs"] if r["workload"] == w["name"]]
        if not runs:
            continue
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        elapsed = statistics.mean(r["elapsed_s"] for r in runs)
        print(f"  {w['name']}: {len(runs)} runs of {elapsed:.1f} s on average,"
              f" {failed} of {attempted} checks failed")
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = quartile_spread(vals)
            flag = "ok" if s < m["bound"] / 3 else (
                "within bound" if s <= m["bound"] else "TOO WIDE")
            print(f"    {m['name']:14s} median {statistics.median(vals):10.4f} "
                  f"{m['unit']:4s} spread {s:6.2%} bound {m['bound']:.0%}  {flag}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--against", default=None, help="second checkout")
    p.add_argument("--against-out", default=None)
    args = p.parse_args(argv)
    if bool(args.against) != bool(args.against_out):
        p.error("--against and --against-out go together")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [(ROOT, Path(args.out))]
    if args.against:
        other = Path(args.against).resolve()
        if bench_digest(other) != bench_digest(ROOT):
            p.error(f"{other / HERE.name} differs from {HERE}; copy it over")
        sides.append((other, Path(args.against_out)))
    sets = [{"checkout": str(c), "benchmark": bench, "env": None, "runs": []}
            for c, _ in sides]
    order = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for i in range(args.runs):
            seed = 1 + i
            # alternate which side runs first
            for k in (range(len(sides)) if i % 2 == 0
                      else reversed(range(len(sides)))):
                t0 = time.perf_counter()
                result, env = run_once(sides[k][0], workload, seed,
                                       bench["run_seconds"])
                sets[k]["env"] = sets[k]["env"] or env
                sets[k]["runs"].append({"workload": workload, "seed": seed,
                                        "order": order, "result": result,
                                        "elapsed_s": time.perf_counter() - t0})
                order += 1
                print(f"{workload} seed {seed} {sides[k][0].name}: "
                      + json.dumps(result["metrics"]), flush=True)
    for (_, path), result_set in zip(sides, sets):
        path.write_text(json.dumps(result_set, indent=1) + "\n")
        spread_report(result_set, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
