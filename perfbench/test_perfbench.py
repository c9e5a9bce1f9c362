"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""
import gc
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_inputs_are_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.make_inputs(name, 7)
        assert a == workloads.make_inputs(name, 7)
        assert json.loads(json.dumps(a)) == a
    for name in ("exact-wide", "long-horizon", "walkers"):
        assert workloads.make_inputs(name, 7) != workloads.make_inputs(name, 8)
    # the same in fresh interpreters with different hash seeds
    code = ("import json, workloads; print(json.dumps("
            "[workloads.make_inputs(w, 7) for w in workloads.WORKLOADS]))")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == [workloads.make_inputs(w, 7)
                                   for w in workloads.WORKLOADS]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        [0, -1, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "b", 2.0, 3.0],
        [3, 0, "b", 5.0, 9.0],
        [4, 0, "c", 8.0, 9.5],      # overlaps its sibling: counted once
        [5, -1, "other", 11.0, 12.0],
    ]
    self_s = tracing.self_times(spans)
    assert self_s == {"root": 10.0 - 3.0 - 4.5, "a": 2.0, "b": 1.0 + 4.0,
                      "c": 1.5, "other": 1.0}
    tree = tracing.subtrees(spans, [0])
    assert [s[0] for s in tree] == [0, 1, 2, 3, 4]
    # without overlap the self times of a tree add up to its root's duration
    flat = [s for s in tree if s[2] != "c"]
    assert sum(tracing.self_times(flat).values()) == 10.0


def test_tracer_records_spans_and_counts_then_restores():
    from massdrift import kernel, models
    tracer = tracing.Tracer()
    assert tracer.absent == {}
    original = kernel.evolve
    tracer.install()
    try:
        assert kernel.evolve is not original
        model = models.build_cycle_model(8)
        law = models.cycle_law({"+1": 0.5, "-1": 0.5})
        kernel.evolve(model, 0, law, 5)
    finally:
        tracer.uninstall()
    assert kernel.evolve is original
    names = [s[2] for s in tracer.spans]
    assert names == ["models.chains.build", "kernel.evolve", "kernel.assemble"]
    assert tracer.spans[2][1] == 1          # assembly ran inside evolve
    assert tracer.counts["kernel.steps"] == 5
    assert tracer.counts["kernel.assemble_entries"] == 8 * 2
    assert tracer.counts["kernel.snapshots"] == 6


def test_missing_hook_is_reported_absent():
    tracer = tracing.Tracer(hooks=(
        tracing.Hook("kernel.gone", ("massdrift.kernel:no_such_function",)),
        tracing.Hook("kernel.evolve", ("massdrift.kernel:evolve",)),
    ))
    assert set(tracer.absent) == {"kernel.gone_s"}
    result = tracing.result_metrics(tracer, {})
    assert "kernel.gone_s" not in result
    assert result["kernel.evolve_s"] == {"value": 0, "unit": "s"}
    tracer.install()
    tracer.uninstall()


def _result_set(walls, first):
    runs = [{"workload": "w", "seed": s,
             "order": 2 * s + (0 if (s % 2 == 0) == first else 1),
             "result": {"failed": 0, "attempted": 1,
                        "metrics": {"wall_s": {"value": v, "unit": "s"}}}}
            for s, v in enumerate(walls)]
    return {"runs": runs}


BENCH = {"workloads": [{"name": "w"}],
         "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                         "bound": 0.1}]}
BASE = [1.0 + 0.01 * (i % 3) for i in range(10)]


def test_compare_flags_a_regression_and_passes_identical_sets():
    base = _result_set(BASE, True)
    same = compare.compare(base, _result_set(BASE, False), BENCH)
    assert [r["verdict"] for r in same] == ["unchanged"]
    slower = compare.compare(base, _result_set([1.5 * v for v in BASE], False),
                             BENCH)
    assert [r["verdict"] for r in slower] == ["regression"]
    faster = compare.compare(base, _result_set([0.5 * v for v in BASE], False),
                             BENCH)
    assert [r["verdict"] for r in faster] == ["gain"]
    noisy = [v * (1.3 if i % 2 else 0.8) for i, v in enumerate(BASE)]
    wide = compare.compare(base, _result_set(noisy, False), BENCH)
    assert [r["verdict"] for r in wide] == ["unresolved"]


def test_compare_judges_regression_on_pairs_not_on_medians():
    # the machine ran twice as slow for four pairs (both sides), and two of
    # the change's runs were hit alone: its median is twice the base's, yet
    # eight of ten pairs read the same
    drift = [1.0] * 6 + [2.0] * 4
    change = [2.0, 2.0] + drift[2:]
    rows = compare.compare(_result_set(drift, True),
                           _result_set(change, False), BENCH)
    assert rows[0]["change_median"] == 2 * rows[0]["base_median"]
    assert rows[0]["worse_by"] == 0.0
    assert [r["verdict"] for r in rows] == ["unresolved"]


def test_reference_loop_is_fixed_work():
    a, b = reference.ReferenceLoop(), reference.ReferenceLoop()
    assert a.work() == b.work()
    assert a.time() > 0
    assert gc.isenabled()       # held off only while the loop ran


def test_times_at_reference_speed():
    ref = reference.REFERENCE_S
    assert run.at_reference_speed(3.0, [ref, ref]) == 3.0
    # the loop ran 1.5x slower around the job: the job read 1.5x too long
    assert run.at_reference_speed(3.0, [1.2 * ref, 1.8 * ref]) == \
        pytest.approx(2.0)


def test_planar_return_closed_form_matches_enumeration():
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for n in range(7):
        back = sum(1 for path in itertools.product(steps, repeat=n)
                   if sum(p[0] for p in path) == 0
                   and sum(p[1] for p in path) == 0)
        assert workloads.srw2_return_mass(n) == back / 4 ** n


def test_occupation_counts_check_rejects_impossible_curves():
    good = [["0.5", "1", "1.0"], ["0.5", "4", "0.75"], ["0.5", "10", "0.3"],
            ["2.0", "1", "0.0"], ["2.0", "2", "0.5"]]
    assert workloads.occupation_counts_consistent(good)
    for bad in (["0.5", "10", "0.25"],     # 2.5 visits
                ["0.5", "10", "0.2"],      # the count fell from 3 to 2
                ["0.5", "5", "1.0"]):      # 2 visits more in 1 step
        assert not workloads.occupation_counts_consistent(good[:2] + [bad])


def test_funnel_oracle_matrix_matches_the_model():
    from massdrift.models import FunnelChainSpec, build_funnel_chain
    model = build_funnel_chain(FunnelChainSpec(
        (), tail=("geometric", 0.5, 0.5), step_scale=0.25,
        truncation_size=workloads.FUNNEL_M))
    dense = model.transition_matrix().toarray()[:-1, :-1]
    assert np.array_equal(dense, workloads.funnel_matrix())


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "suites",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, tracing.unit(name)) for name in tracing.metric_names()]
