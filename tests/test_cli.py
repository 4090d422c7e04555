"""Front-end behavior: config merging, exit codes, artifacts, sweeps, reports.

Grid-backed suites run on a 9-point axis here so the whole file stays fast;
the physics-grade defaults are exercised by the acceptance tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heislab.cli import (
    DEFAULT_THRESHOLDS,
    RunConfig,
    SUITES,
    SWEEP_AXES,
    UsageError,
    load_config,
    main,
    report,
    run_suite,
    sweep,
)
from heislab.grid import _model


def write_config(tmp_path, **entries):
    entries.setdefault("grid_size", 9)
    entries.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries))
    return path


# every check each suite reports, by (allowance, mode), written out so that a
# change which moves an allowance or drops a check fails here
PINNED_CHECKS = {
    "hermite": {
        (1e-12, "upper"): (
            "ladder_n1_K4", "diagonal_n1_K4", "oscillator_sum_n1_K4", "ccr_n1_K4",
            "ladder_n1_K6", "diagonal_n1_K6", "oscillator_sum_n1_K6", "ccr_n1_K6",
            "ladder_n1_K8", "diagonal_n1_K8", "oscillator_sum_n1_K8", "ccr_n1_K8",
            "ladder_n2_K4", "diagonal_n2_K4", "oscillator_sum_n2_K4", "ccr_n2_K4",
            "ladder_n2_K6", "diagonal_n2_K6", "oscillator_sum_n2_K6", "ccr_n2_K6",
            "ladder_n2_K8", "diagonal_n2_K8", "oscillator_sum_n2_K8", "ccr_n2_K8",
        ),
    },
    "doi": {
        (1e-11, "upper"): (
            "commutator_identity", "symbol_multiplicativity", "symbol_linearity",
        ),
        (1e-6, "upper"): (
            "quadrature_gap_m1", "quadrature_gap_m10", "quadrature_gap_m100",
            "quadrature_gap_random_m1", "quadrature_gap_random_m10",
            "quadrature_gap_random_m100",
        ),
        (1e-4, "upper"): ("infinite_cutoff_limit", "infinite_cutoff_limit_random"),
    },
    "plancherel": {
        (1e-8, "upper"): ("radial_exponential", "radial_scaled_exponential"),
        (1e-10, "upper"): ("incursion_halfway_level", "distribution_vs_quadrature"),
        (0.05, "upper"): ("incursion_decay_exponent",),
        (1e-12, "upper"): ("rank_one_value",),
        (1e-6, "upper"): ("node_exponential_mass",),
    },
    "grid": {
        (1e-9, "upper"): ("split_gauss_wide", "split_gauss_mid", "split_gauss_narrow"),
        (1e-12, "upper"): ("rotation_second_field", "rotation_minus_first_field"),
    },
    "bound": {
        (8.0, "upper"): ("spread_bumps",),
        (0.1, "upper"): ("slope_gauss_wide", "slope_odd_x", "slope_odd_x_wide"),
    },
    "trace": {
        (0.5, "upper"): ("ratio_variation",),
        (1e-6, "floor"): (
            "gram_min_ell1_K4", "gram_min_ell1_K6", "gram_min_ell1_K8",
            "gram_min_ell2_K4", "gram_min_ell2_K6", "gram_min_ell2_K8",
        ),
        (0.0, "floor"): (
            "coercivity_ell1_K4", "coercivity_ell1_K6", "coercivity_ell1_K8",
            "coercivity_ell2_K4", "coercivity_ell2_K6", "coercivity_ell2_K8",
        ),
        (0.1, "upper"): ("coercivity_drift_ell1", "coercivity_drift_ell2"),
    },
    "product": {
        (0.15, "upper"): ("harmonic_value_in_band",),
        (0.0, "floor"): ("harmonic_error_decrease",),
    },
}


class TestConfigHandling:
    def test_defaults(self):
        config = RunConfig()
        assert config.suite == "all"
        assert config.requested_suites() == SUITES
        assert set(config.thresholds) == set(DEFAULT_THRESHOLDS)

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, suite="hermite", seed=7)
        config = load_config(path, {"seed": 11, "suite": None})
        assert config.suite == "hermite"
        assert config.seed == 11

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grdi_size": 9}))
        with pytest.raises(UsageError, match="unknown config key"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(UsageError, match="not valid JSON"):
            load_config(path)

    def test_threshold_merge_keeps_other_suites(self, tmp_path):
        path = write_config(
            tmp_path, thresholds={"bound": {"slope_margin": 5.0}}
        )
        config = load_config(path)
        assert config.thresholds["bound"]["slope_margin"] == 5.0
        assert config.thresholds["bound"]["ratio_spread_margin"] == 1.0
        assert config.thresholds["trace"] == DEFAULT_THRESHOLDS["trace"]

    def test_unknown_threshold_key(self, tmp_path):
        path = write_config(tmp_path, thresholds={"bound": {"slop_margin": 5.0}})
        with pytest.raises(UsageError, match="unknown threshold key"):
            load_config(path)

    def test_unknown_threshold_suite(self, tmp_path):
        path = write_config(tmp_path, thresholds={"bonud": {}})
        with pytest.raises(UsageError, match="unknown suite"):
            load_config(path)

    def test_nonpositive_threshold(self, tmp_path):
        path = write_config(
            tmp_path, thresholds={"hermite": {"identity_margin": 0.0}}
        )
        with pytest.raises(UsageError, match="positive number"):
            load_config(path)

    def test_rejects_bad_fields(self):
        with pytest.raises(UsageError, match="unknown suite"):
            RunConfig(suite="hermit")
        with pytest.raises(UsageError, match="grid_size"):
            RunConfig(grid_size=2)
        with pytest.raises(UsageError, match="ell"):
            RunConfig(ell=3)
        with pytest.raises(UsageError, match="unknown family"):
            RunConfig(family="gaussians")
        with pytest.raises(UsageError, match="quad_s_min"):
            RunConfig(quad_s_min=2.0, quad_s_max=1.0)

    def test_canonical_excludes_execution_details(self):
        loud = RunConfig(suite="hermite", output_dir="/somewhere", parallel=True)
        quiet = RunConfig(suite="hermite")
        assert loud.canonical("hermite") == quiet.canonical("hermite")


class TestRunCommand:
    def test_hermite_defaults_pass(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--suite", "hermite", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[hermite] PASS" in out
        artifacts = list((tmp_path / "out").glob("hermite_*.json"))
        assert len(artifacts) == 1
        payload = json.loads(artifacts[0].read_text())
        assert payload["kind"] == "run"
        assert payload["passed"] is True
        assert payload["violations"] == []
        assert payload["metrics"]["identity_margin"] < 1.0
        assert len(payload["checks"]) >= 24
        assert artifacts[0].with_suffix(".csv").exists()

    def test_unknown_suite_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--suite", "nope", "--config", str(path)]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_degenerate_family_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(
            ["run", "--suite", "bound", "--config", str(path), "--family", "constants"]
        )
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_coarse_grid_slope_violation(self, tmp_path, capsys):
        # at nine points per axis the decay slopes sit outside the band, so
        # default thresholds must flag the run
        path = write_config(tmp_path)
        assert main(["run", "--suite", "bound", "--config", str(path)]) == 3
        out = capsys.readouterr().out
        assert "[bound] FAIL" in out
        payload = json.loads(
            next((tmp_path / "out").glob("bound_*.json")).read_text()
        )
        assert payload["violations"] == ["slope_margin"]
        assert payload["metrics"]["ratio_spread_margin"] < 1.0

    def test_loosened_threshold_passes(self, tmp_path):
        path = write_config(
            tmp_path, thresholds={"bound": {"slope_margin": 5.0}}
        )
        assert main(["run", "--suite", "bound", "--config", str(path)]) == 0

    def test_rigged_threshold_fails(self, tmp_path):
        path = write_config(
            tmp_path, thresholds={"hermite": {"identity_margin": 1e-30}}
        )
        assert main(["run", "--suite", "hermite", "--config", str(path)]) == 3

    def test_rerun_is_byte_identical_with_fresh_stem(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", "--suite", "doi", "--config", str(path)]) == 0
        assert main(["run", "--suite", "doi", "--config", str(path)]) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("doi_*.json"))
        assert len(names) == 2
        assert names[1] == names[0].replace(".json", "_1.json")
        first, second = [
            (tmp_path / "out" / name).read_bytes() for name in names
        ]
        assert first == second

    def test_artifacts_independent_of_output_dir(self, tmp_path):
        config_a = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        run_suite(load_config(config_a, {"suite": "plancherel"}))
        config_b = write_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_suite(load_config(config_b, {"suite": "plancherel"}))
        name_a = next((tmp_path / "a").glob("plancherel_*.json")).name
        assert (tmp_path / "a" / name_a).read_bytes() == (
            tmp_path / "b" / name_a
        ).read_bytes()

    def test_all_runs_every_suite(self, tmp_path, capsys):
        path = write_config(tmp_path)
        # the coarse grid trips the bound slope check; the other six pass
        assert main(["run", "--config", str(path)]) == 3
        out = capsys.readouterr().out
        for suite in SUITES:
            assert f"[{suite}] " in out
        written = {
            json.loads(p.read_text())["suite"]
            for p in (tmp_path / "out").glob("*.json")
        }
        assert written == set(SUITES)

    def test_every_allowance_is_pinned(self, tmp_path):
        code = main(["run", "--suite", "all", "--grid", "9", "--out", str(tmp_path)])
        # the 9-point grid trips the bound slope checks; the other six pass
        assert code == 3
        payloads = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
        assert {p["suite"]: p["passed"] for p in payloads} == {
            suite: suite != "bound" for suite in SUITES
        }
        for payload in payloads:
            pinned = {
                (name, allowed, mode)
                for (allowed, mode), names in PINNED_CHECKS[payload["suite"]].items()
                for name in names
            }
            checks = {(c["name"], c["allowed"], c["mode"]) for c in payload["checks"]}
            assert checks == pinned, payload["suite"]

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # parallel rows start on a cold model cache and share one eigh
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        _model.cache_clear()
        path = write_config(tmp_path)
        run_suite(load_config(path, {"suite": "trace", "parallel": True}))
        assert sizes.count(9**3) == 1
        run_suite(load_config(path, {"suite": "trace"}))
        names = sorted(p.name for p in (tmp_path / "out").glob("trace_*.json"))
        assert len(names) == 2
        first, second = [(tmp_path / "out" / n).read_bytes() for n in names]
        assert first == second

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "heislab.cli",
                "run",
                "--suite",
                "hermite",
                "--out",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "[hermite] PASS" in result.stdout


class TestSweepCommand:
    def test_doi_flat_in_cutoff(self, tmp_path):
        path = write_config(tmp_path)
        code = main(
            [
                "sweep",
                "--suite",
                "doi",
                "--config",
                str(path),
                "--axis",
                "hermite_K",
                "--values",
                "4,6,8",
            ]
        )
        assert code == 0
        payload = json.loads(
            next((tmp_path / "out").glob("sweep_doi_*.json")).read_text()
        )
        metrics = [row["metric"] for row in payload["rows"]]
        assert metrics[0] == metrics[1] == metrics[2]
        assert payload["rows"][0]["delta"] is None
        assert payload["rows"][1]["delta"] == 0.0
        assert payload["axis"] == "hermite_K"

    def test_plancherel_error_decreases_with_nodes(self, tmp_path):
        path = write_config(tmp_path)
        code = main(
            [
                "sweep",
                "--suite",
                "plancherel",
                "--config",
                str(path),
                "--axis",
                "quadrature_nodes",
                "--values",
                "6,12,24",
            ]
        )
        assert code == 0
        payload = json.loads(
            next((tmp_path / "out").glob("sweep_plancherel_*.json")).read_text()
        )
        metrics = [row["metric"] for row in payload["rows"]]
        assert metrics[0] > metrics[1] > metrics[2]
        assert payload["metric_name"] == "node_error"

    def test_sweep_writes_per_value_runs(self, tmp_path):
        path = write_config(tmp_path)
        main(
            [
                "sweep",
                "--suite",
                "hermite",
                "--config",
                str(path),
                "--axis",
                "hermite_K",
                "--values",
                "5,7",
            ]
        )
        runs = [
            p
            for p in (tmp_path / "out").glob("*.json")
            if json.loads(p.read_text())["kind"] == "run"
        ]
        assert len(runs) == 2

    def test_axis_must_apply(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(
            [
                "sweep",
                "--suite",
                "plancherel",
                "--config",
                str(path),
                "--axis",
                "grid_size",
                "--values",
                "9,11",
            ]
        )
        assert code == 2
        assert "does not apply" in capsys.readouterr().err

    def test_empty_values(self, tmp_path):
        path = write_config(tmp_path)
        args = [
            "sweep",
            "--suite",
            "doi",
            "--config",
            str(path),
            "--axis",
            "hermite_K",
            "--values",
            " , ",
        ]
        assert main(args) == 2

    def test_non_integer_values(self, tmp_path, capsys):
        path = write_config(tmp_path)
        args = [
            "sweep",
            "--suite",
            "doi",
            "--config",
            str(path),
            "--axis",
            "hermite_K",
            "--values",
            "4,six",
        ]
        assert main(args) == 2
        assert "integers" in capsys.readouterr().err

    def test_all_is_not_sweepable(self, tmp_path):
        config = load_config(write_config(tmp_path))
        with pytest.raises(UsageError, match="does not apply"):
            sweep(config, "grid_size", [9])

    def test_axis_tables_are_consistent(self):
        for axis, suites in SWEEP_AXES.items():
            for name in suites:
                assert name in SUITES


class TestReportCommand:
    def test_empty_directory(self, tmp_path):
        with pytest.raises(UsageError, match="no run artifacts"):
            report(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(UsageError, match="no output directory"):
            report(tmp_path / "absent")

    def test_single_run_identity_merge(self, tmp_path):
        path = write_config(tmp_path)
        main(["run", "--suite", "hermite", "--config", str(path)])
        assert main(["report", "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(payload["entries"]) == 1
        entry = payload["entries"][0]
        run_payload = json.loads(
            (tmp_path / "out" / entry["artifact"]).read_text()
        )
        assert entry["metrics"] == run_payload["metrics"]
        assert entry["history"] == [entry["artifact"]]
        assert (tmp_path / "out" / "report.csv").exists()

    def test_same_digest_later_wins_history_retained(self, tmp_path):
        path = write_config(tmp_path)
        main(["run", "--suite", "hermite", "--config", str(path)])
        main(["run", "--suite", "hermite", "--config", str(path)])
        report(tmp_path / "out")
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        entry = payload["entries"][0]
        assert len(entry["history"]) == 2
        assert entry["artifact"] == entry["history"][-1]
        assert entry["artifact"].endswith("_1.json")

    def test_report_skips_sweeps_and_itself(self, tmp_path):
        path = write_config(tmp_path)
        main(["run", "--suite", "hermite", "--config", str(path)])
        main(
            [
                "sweep",
                "--suite",
                "doi",
                "--config",
                str(path),
                "--axis",
                "hermite_K",
                "--values",
                "4,6",
            ]
        )
        report(tmp_path / "out")
        first = (tmp_path / "out" / "report.json").read_bytes()
        report(tmp_path / "out")
        assert (tmp_path / "out" / "report.json").read_bytes() == first
        payload = json.loads(first)
        suites = {entry["suite"] for entry in payload["entries"]}
        assert suites == {"hermite", "doi"}
        assert all(
            not entry["artifact"].startswith("sweep_")
            for entry in payload["entries"]
        )
