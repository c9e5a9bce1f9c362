"""Compare two benchmark result sets, per (workload, end-to-end metric).

    python3 perfbench/compare.py BASE.json CHANGE.json

Result sets are written by collect.py.  For every workload and every
end-to-end metric of BENCHMARK.json the verdict is one of:

- ``gain``: pairs ran in alternating order, the change wins at least 9 of
  every 10 pairs run (ties count for neither side), and the medians differ by
  more than the base's interquartile spread;
- ``regression``: the median over seeds of the per-pair ratio change/base is
  worse than 1 by more than the metric's bound.  Pairs that collect.py
  ``--against`` ran back to back see the same machine state, so the ratio
  cancels drift that two medians taken apart would not;
- ``unresolved``: neither, and the run-to-run spread exceeds the bound, unless
  every run of the change reads better than every run of the base;
- ``unchanged``: neither, with the spread within the bound.

A gain does not count when more output checks failed than in the base.
Exit status 1 if any verdict is ``regression``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def values(result_set: dict, workload: str, metric: str) -> dict[int, tuple]:
    """seed -> (value, run order) for one workload and metric."""
    return {r["seed"]: (r["result"]["metrics"][metric]["value"], r["order"])
            for r in result_set["runs"] if r["workload"] == workload}


def verdict(base: dict[int, tuple], change: dict[int, tuple], bound: float,
            lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    seeds = sorted(base.keys() & change.keys())
    b = [base[s][0] for s in seeds]
    c = [change[s][0] for s in seeds]
    if not seeds:
        return {"verdict": "unresolved", "pairs": 0, "why": "no common seeds"}
    mb, mc = statistics.median(b), statistics.median(c)
    wins = sum(sign * (cv - bv) < 0 for bv, cv in zip(b, c))
    base_first = sum(base[s][1] < change[s][1] for s in seeds)
    alternated = abs(2 * base_first - len(seeds)) <= 1
    iqr = quartile_spread(b) * mb if len(b) > 1 else float("inf")
    spread = max(quartile_spread(b), quartile_spread(c)) if len(b) > 1 \
        else float("inf")
    worse_by = sign * (statistics.median(cv / bv for bv, cv in zip(b, c)) - 1)
    every_better = max(c) < min(b) if lower_is_better else min(c) > max(b)
    out = {"pairs": len(seeds), "base_median": mb, "change_median": mc,
           "worse_by": worse_by, "wins": wins, "alternated": alternated,
           "spread": spread, "bound": bound}
    if worse_by > bound:
        out["verdict"] = "regression"
    elif (len(seeds) >= MIN_PAIRS and alternated
          and wins >= WIN_SHARE * len(seeds) and abs(mc - mb) > iqr
          and worse_by < 0):
        out["verdict"] = "gain"
    elif spread > bound and not every_better:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "unchanged"
    return out


def compare(base: dict, change: dict, bench: dict) -> list[dict]:
    failed = {name: sum(r["result"]["failed"] for r in rs["runs"])
              for name, rs in (("base", base), ("change", change))}
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for m in bench["end_to_end"]:
            v = verdict(values(base, workload, m["name"]),
                        values(change, workload, m["name"]), m["bound"],
                        m["better"] == "lower")
            if v["verdict"] == "gain" and failed["change"] > failed["base"]:
                v["verdict"] = "unresolved"
                v["why"] = "more failed checks than the base"
            rows.append(dict(v, workload=workload, metric=m["name"]))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    rows = compare(base, change, bench)
    print(f"{'workload':14s} {'metric':14s} {'base':>10s} {'change':>10s} "
          f"{'worse':>8s} {'spread':>7s} {'bound':>6s} {'wins':>6s}  verdict")
    for r in rows:
        if r["pairs"] == 0:
            print(f"{r['workload']:14s} {r['metric']:14s} no common seeds  "
                  f"{r['verdict']}")
            continue
        print(f"{r['workload']:14s} {r['metric']:14s} {r['base_median']:10.4g} "
              f"{r['change_median']:10.4g} {r['worse_by']:+8.1%} "
              f"{r['spread']:7.1%} {r['bound']:6.0%} "
              f"{r['wins']:>3d}/{r['pairs']:<2d}  {r['verdict']}"
              + ("" if r["alternated"] else " (pairs not alternated)"))
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
