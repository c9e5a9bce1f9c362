import json
import subprocess
import sys

import pytest

from massdrift.cli import (CONFIG_SCHEMA, EXPERIMENTS, ConfigError,
                           canonical_json, fnv1a_64, main, run_config,
                           validate_config)


def evolve_config(tmp_path, **overrides):
    cfg = {
        "experiment": "evolve",
        "model": {"type": "z-lattice", "d": 1, "radius": 30},
        "law": {"atoms": [
            {"id": "+e1", "inverse": "-e1", "weight": 0.5},
            {"id": "-e1", "inverse": "+e1", "weight": 0.5},
        ]},
        "schedule": {"n_steps": 8, "snapshots": [2, 4, 8]},
        "start": 0,
        "window": [0, 0],
        "out": {"csv": str(tmp_path / "out.csv"),
                "json": str(tmp_path / "out.json")},
    }
    cfg.update(overrides)
    return cfg


class TestHashing:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == \
            canonical_json({"a": [2, 3], "b": 1})

    def test_fnv_known_values(self):
        # reference values of 64-bit FNV-1a
        assert fnv1a_64("") == "cbf29ce484222325"
        assert fnv1a_64("a") == "af63dc4c8601ec8c"

    def test_hash_sensitive_to_content(self):
        assert fnv1a_64(canonical_json({"seed": 1})) != \
            fnv1a_64(canonical_json({"seed": 2}))


class TestValidation:
    def test_good_config_accepted(self, tmp_path):
        validate_config(evolve_config(tmp_path))

    def test_negative_steps_pointer(self, tmp_path):
        cfg = evolve_config(tmp_path)
        cfg["schedule"]["n_steps"] = -3
        with pytest.raises(ConfigError, match="/schedule/n_steps"):
            validate_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = evolve_config(tmp_path)
        cfg["frobnicate"] = True
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_missing_out_rejected(self, tmp_path):
        cfg = evolve_config(tmp_path)
        del cfg["out"]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_bad_experiment_rejected(self, tmp_path):
        cfg = evolve_config(tmp_path, experiment="teleport")
        with pytest.raises(ConfigError, match="/experiment"):
            validate_config(cfg)


class TestRunConfig:
    def test_evolve_produces_exact_masses(self, tmp_path):
        cfg = evolve_config(tmp_path)
        assert run_config(cfg) == 0
        lines = (tmp_path / "out.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "n,window,mass"
        table = {row.split(",")[0]: row.split(",")[2]
                 for row in lines[1:] if row}
        assert float(table["2"]) == 0.5
        assert float(table["4"]) == 0.375
        assert float(table["8"]) == pytest.approx(0.2734375, abs=1e-15)

    def test_summary_has_hash(self, tmp_path):
        cfg = evolve_config(tmp_path)
        run_config(cfg)
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["experiment"] == "evolve"
        assert summary["params_hash"] == fnv1a_64(canonical_json(cfg))

    def test_reruns_byte_identical(self, tmp_path):
        cfg = evolve_config(tmp_path)
        run_config(cfg)
        first = ((tmp_path / "out.csv").read_bytes(),
                 (tmp_path / "out.json").read_bytes())
        run_config(cfg)
        second = ((tmp_path / "out.csv").read_bytes(),
                  (tmp_path / "out.json").read_bytes())
        assert first == second

    def test_fiber_verify_passes(self, tmp_path):
        cfg = {
            "experiment": "fiber-verify",
            "out": {"csv": str(tmp_path / "f.csv"),
                    "json": str(tmp_path / "f.json")},
        }
        assert run_config(cfg) == 0
        summary = json.loads((tmp_path / "f.json").read_text())
        assert all(v["verdict"] == "pass" for v in summary["verdicts"])
        assert all(r < 1e-12 for r in summary["max_residuals"].values())

    def test_invariance_not_invariant_exit_two(self, tmp_path):
        cfg = {
            "experiment": "invariance",
            "model": {"type": "cycle", "k": 6},
            "law": {"atoms": [
                {"id": "+1", "inverse": "-1", "weight": 0.5},
                {"id": "-1", "inverse": "+1", "weight": 0.5},
            ]},
            "set": [0, 1, 2],
            "out": {"csv": str(tmp_path / "i.csv"),
                    "json": str(tmp_path / "i.json")},
        }
        assert run_config(cfg) == 2

    def test_invariance_invariant_exit_zero(self, tmp_path):
        cfg = {
            "experiment": "invariance",
            "model": {"type": "cycle", "k": 6},
            "law": {"atoms": [
                {"id": "+1", "inverse": "-1", "weight": 0.5},
                {"id": "-1", "inverse": "+1", "weight": 0.5},
            ]},
            "set": list(range(6)),
            "out": {"csv": str(tmp_path / "i.csv"),
                    "json": str(tmp_path / "i.json")},
        }
        assert run_config(cfg) == 0
        summary = json.loads((tmp_path / "i.json").read_text())
        assert summary["verdicts"] == [{"name": "invariance",
                                        "verdict": "invariant"}]

    def test_sl2_ensemble_runs(self, tmp_path):
        cfg = {
            "experiment": "sl2",
            "law": {"atoms": [
                {"id": "a", "inverse": "A", "weight": 0.25},
                {"id": "A", "inverse": "a", "weight": 0.25},
                {"id": "b", "inverse": "B", "weight": 0.25},
                {"id": "B", "inverse": "b", "weight": 0.25},
            ]},
            "seed": 7,
            "ensemble": {"chart": "sl2-lattice", "n_walkers": 50,
                         "n_steps": 20, "snapshots": [10, 20]},
            "out": {"csv": str(tmp_path / "s.csv"),
                    "json": str(tmp_path / "s.json")},
        }
        assert run_config(cfg) == 0
        lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,threshold,retained_fraction")
        assert len(lines) == 1 + 2 * 3   # 2 snapshots x 3 default thresholds

    def test_empty_rows_still_writes_header(self, tmp_path):
        cfg = evolve_config(tmp_path)
        cfg["schedule"]["snapshots"] = []      # no snapshots, so no rows
        run_config(cfg)
        assert (tmp_path / "out.csv").read_bytes() == b"n,window,mass\r\n"


class TestMainEntry:
    def test_run_exit_zero(self, tmp_path):
        cfg = evolve_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 0

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        cfg = evolve_config(tmp_path)
        cfg["schedule"]["n_steps"] = -3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 1
        assert "/schedule/n_steps" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_verify_fibers_exit_zero(self, capsys):
        assert main(["verify", "fibers"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_schema_prints_valid_json(self, capsys):
        assert main(["schema"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["title"] == CONFIG_SCHEMA["title"]

    def test_out_dir_override(self, tmp_path):
        cfg = evolve_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        alt = tmp_path / "alt"
        assert main(["run", str(path), "--out", str(alt)]) == 0
        assert (alt / "out.csv").exists()

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "massdrift.cli",
                               "schema"], capture_output=True, text=True)
        assert proc.returncode == 0
        json.loads(proc.stdout)


LINE_LAW = {"atoms": [{"id": "+e1", "inverse": "-e1", "weight": 0.5},
                      {"id": "-e1", "inverse": "+e1", "weight": 0.5}]}


FREE_LAW = {"atoms": [{"id": g, "inverse": i, "weight": 0.25}
                      for g, i in (("a", "A"), ("A", "a"), ("b", "B"), ("B", "b"))]}


def ensemble_config(tmp_path, law, **ensemble):
    return {"experiment": "sl2", "law": law,
            "ensemble": {"n_walkers": 1000, "n_steps": 40, **ensemble},
            "out": {"csv": str(tmp_path / "out.csv"),
                    "json": str(tmp_path / "out.json")}}


def funnel_config(tmp_path, **model):
    return {"experiment": "funnel",
            "model": {"type": "funnel", "tail": ["constant", 1.0], **model},
            "schedule": {"n_steps": 10},
            "out": {"csv": str(tmp_path / "out.csv"),
                    "json": str(tmp_path / "out.json")}}


#: name -> (config with one mistake, text the error line must contain)
CONFIG_MISTAKES = {
    # a JSON list start on z^2 runs (test_z2_list_start_matches_kernel);
    # one of the wrong arity is not a state of the model
    "z2-start-arity": lambda t: (evolve_config(
        t, model={"type": "z-lattice", "d": 2, "radius": 5},
        start=[0, 0, 0]), "(0, 0, 0) is not in z2-lattice-r5"),
    "funnel-tail-arity": lambda t: (funnel_config(
        t, tail=["geometric", 0.5]), "/model/tail"),
    "funnel-tail-rule": lambda t: (funnel_config(
        t, tail=["weird", 1.0]), "/model/tail"),
    "funnel-zero-neck": lambda t: (funnel_config(
        t, neck_prefix=[0.0]), "neck length 1 is nonpositive"),
    "funnel-on-z-lattice": lambda t: ({
        **funnel_config(t), "model": {"type": "z-lattice", "radius": 5}},
        "/model/type"),
    "cycle-without-law": lambda t: ({
        k: v for k, v in evolve_config(
            t, model={"type": "cycle", "k": 6}).items() if k != "law"},
        "needs a law"),
    "backforth-on-funnel": lambda t: ({
        **funnel_config(t), "experiment": "backforth", "law": LINE_LAW},
        "/model/type"),
    "boole-without-starts": lambda t: ({
        "experiment": "boole", "schedule": {"n_steps": 10},
        "out": funnel_config(t)["out"]}, "'starts' is a required property"),
    "sl2-without-ensemble": lambda t: ({
        "experiment": "sl2", "law": LINE_LAW, "out": funnel_config(t)["out"]},
        "'ensemble' is a required property"),
    "start-outside-line": lambda t: (evolve_config(
        t, model={"type": "z-lattice", "d": 1, "radius": 5}, start=99),
        "99 is not in z1-lattice-r5"),
    # unchecked, the z-lattice chart walked every a/A/b/B walker left and
    # exited 0, and the other two ended in a traceback at run time
    "free-law-on-z-lattice": lambda t: (ensemble_config(
        t, FREE_LAW, chart="z-lattice", thresholds=[39.5]),
        "the z-lattice chart has no generator 'a'"),
    "line-law-on-sl2": lambda t: (ensemble_config(
        t, LINE_LAW, chart="sl2-lattice"),
        "the sl2-lattice chart has no generator '+e1'"),
    "determinant-two-generator": lambda t: (ensemble_config(
        t, FREE_LAW, chart="schottky", generator_a=[[2, 0], [0, 1]]),
        "generator a has determinant 2.0"),
    # snapshots past the horizon: the sl2 row for step 20 was silently
    # missing (exit 0), the contrast ended in a KeyError traceback
    "sl2-snapshot-past-horizon": lambda t: (ensemble_config(
        t, FREE_LAW, chart="sl2-lattice", n_steps=10, snapshots=[5, 20]),
        "snapshot step 20 is outside the run's 0..10"),
    "contrast-snapshot-past-horizon": lambda t: ({
        "experiment": "contrast", "law": FREE_LAW,
        "ensemble_finite": {"chart": "sl2-lattice", "n_walkers": 100,
                            "n_steps": 10, "snapshots": [5, 20]},
        "ensemble_infinite": {"chart": "schottky", "n_walkers": 100,
                              "n_steps": 10, "snapshots": [5, 10]},
        "out": ensemble_config(t, FREE_LAW)["out"]},
        "snapshot step 20 is outside the run's 0..10"),
    # the exact walks stop at n_steps: the row for step 20 was silently
    # missing and the run exited 0
    "evolve-snapshot-past-horizon": lambda t: (evolve_config(
        t, model={"type": "z-lattice", "d": 1, "radius": 40},
        schedule={"n_steps": 10, "snapshots": [5, 20]}),
        "snapshot step 20 is outside the run's 0..10"),
    "funnel-snapshot-past-horizon": lambda t: ({
        **funnel_config(t), "schedule": {"n_steps": 10, "snapshots": [5, 20]}},
        "snapshot step 20 is outside the run's 0..10"),
}


class TestConfigContract:
    @pytest.mark.parametrize("mistake", sorted(CONFIG_MISTAKES))
    def test_config_mistake_exits_one(self, mistake, tmp_path, capsys):
        cfg, expect = CONFIG_MISTAKES[mistake](tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert expect in err
        assert not (tmp_path / "out.csv").exists()

    def test_run_time_failure_exits_two(self, tmp_path, capsys):
        cfg = evolve_config(tmp_path,
                            model={"type": "z-lattice", "d": 1, "radius": 2})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TruncationOverflow: ")
        assert err.count("\n") == 1

    def test_cesaro_past_the_horizon_overflows_like_evolve(self, tmp_path,
                                                          capsys):
        errors = []
        for n_steps in (200, 2):       # 2: cesaro steps on to 200 by itself
            cfg = evolve_config(
                tmp_path, experiment="cesaro",
                model={"type": "z-lattice", "d": 1, "radius": 3},
                schedule={"n_steps": n_steps, "snapshots": [200]})
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert main(["run", str(path)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: TruncationOverflow: ")
        assert errors[1] == errors[0]

    def test_z2_list_start_matches_kernel(self, tmp_path):
        from massdrift.kernel import evolve
        from massdrift.models import build_lattice_model, srw_law
        cfg = evolve_config(
            tmp_path, model={"type": "z-lattice", "d": 2, "radius": 12},
            law={"atoms": [
                {"id": g, "inverse": i, "weight": 0.25}
                for g, i in (("+e1", "-e1"), ("-e1", "+e1"),
                             ("+e2", "-e2"), ("-e2", "+e2"))]},
            start=[0, 0], window=[-1, 1])
        assert run_config(cfg) == 0
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        series = evolve(build_lattice_model(2, 12), (0, 0), srw_law(2), 8,
                        snapshot_schedule=[2, 4, 8])

        def box(n):     # the 3x3 window, summed in row-major order
            return sum(series.snapshot(n).mass_at((i, j))
                       for i in (-1, 0, 1) for j in (-1, 0, 1))
        assert rows == [f"{n},-1..1,{box(n)!r}" for n in (2, 4, 8)]

    def test_schema_is_derived_from_the_table(self):
        names = CONFIG_SCHEMA["properties"]["experiment"]["enum"]
        assert names == list(EXPERIMENTS)
        required = {b["if"]["properties"]["experiment"]["const"]:
                    b["then"]["required"] for b in CONFIG_SCHEMA["allOf"]}
        assert "starts" in required["boole"]
        assert "ensemble" in required["sl2"]
        assert {"model", "law"} <= set(required["backforth"])
