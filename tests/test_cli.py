"""Front-end behavior: config merging, exit codes, artifacts, sweeps, reports.

Grid-backed suites run on a 9-point axis here so the whole file stays fast;
the physics-grade defaults are exercised by the acceptance tests.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from heislab import cli, grid
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
from heislab.experiments import _product_peak_bytes
from heislab.grid import GridSpec, _GridModel, _model, _peak_bytes

from oracles import recorded_eigenvalues, recorded_svd_shapes


SUITE_TIMING = re.compile(r"\[(\w+)\] \d+\.\d{3} s, peak RSS \d+\.\d MB")


def timed_suites(err):
    """Suites named by the per-suite timing lines ``run_suite`` writes to stderr."""
    return [m.group(1) for m in map(SUITE_TIMING.fullmatch, err.splitlines()) if m]


# loaded neither by ``import heislab.cli`` nor by any suite: scipy's
# quadrature and root finding (scipy.optimize pulls in scipy.sparse.linalg),
# and what any scipy subpackage loads; the field stencils and the plancherel
# rules (numpy Gauss-Legendre) need numpy only
UNLOADED_SCIPY_MODULES = (
    "scipy.integrate",
    "scipy.optimize",
    "scipy.sparse.linalg",
    "scipy.sparse",
    "scipy._lib._array_api",
)


def commutator_blocks(shapes):
    """The recorded SVDs of commutator blocks: at 9^3 these are 2-d with
    both sides above 20; the fiber norms take batched 3-d SVDs and the
    Gram samplings small 2-d ones."""
    return [shape for shape in shapes if len(shape) == 2 and min(shape) > 20]


def table_rows(payload):
    """Every value of the ``rows`` tables of an artifact, keyed by its path."""
    out = {}

    def walk(node, path, in_rows):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,), in_rows or key == "rows")
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, path + (index,), in_rows)
        elif in_rows:
            out[path] = node

    walk(payload, (), False)
    return out


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

# every config key and every command-line option, written out so that a
# change which adds or drops a knob fails here
PINNED_CONFIG_KEYS = (
    "suite", "grid_size", "hermite_n", "hermite_K", "quad_s_min", "quad_s_max",
    "quad_nodes_per_decade", "family", "ell", "seed", "output_dir", "thresholds",
)
_RUN_OPTIONS = (
    "-h", "--help", "--config", "--suite", "--grid", "--hermite-K", "--seed",
    "--out", "--family",
)
PINNED_OPTIONS = {
    "run": _RUN_OPTIONS,
    "sweep": _RUN_OPTIONS + ("--axis", "--values"),
    "report": ("-h", "--help", "--out"),
}


def test_every_option_is_pinned():
    assert cli._CONFIG_KEYS == PINNED_CONFIG_KEYS
    (commands,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: {opt for action in parser._actions for opt in action.option_strings}
        for name, parser in commands.choices.items()
    }
    assert options == {name: set(opts) for name, opts in PINNED_OPTIONS.items()}


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
        for entries in ({"grdi_size": 9}, {"parallel": True}):
            path.write_text(json.dumps(entries))
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

    @pytest.mark.parametrize(
        "key",
        [
            "grid_size", "hermite_n", "hermite_K", "quad_s_min", "quad_s_max",
            "quad_nodes_per_decade", "ell", "seed",
        ],
    )
    def test_rejects_json_booleans_in_numeric_fields(self, tmp_path, capsys, key):
        # JSON true is a Python int; accepted, it would run as 1 under a
        # digest of its own and name checks like ladder_n1_KTrue
        path = write_config(tmp_path, suite="hermite", **{key: True})
        assert main(["run", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_canonical_excludes_execution_details(self):
        loud = RunConfig(suite="hermite", output_dir="/somewhere")
        quiet = RunConfig(suite="hermite")
        assert loud.canonical("hermite") == quiet.canonical("hermite")


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Sizes of the ``numpy.linalg.eigh`` calls made after a cold model cache."""
    eigh = np.linalg.eigh
    sizes = []

    def counting_eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _model.cache_clear()
    return sizes


@pytest.fixture
def power_exponents(monkeypatch):
    """Exponents of the ``_GridModel._power`` calls, each the t-block
    columns of one power, kept or not, made after a cold model cache."""
    power = _GridModel._power
    exponents = []

    def counting_power(self, halves, exponent, columns):
        exponents.append(exponent)
        return power(self, halves, exponent, columns)

    monkeypatch.setattr(_GridModel, "_power", counting_power)
    _model.cache_clear()
    return exponents


@pytest.fixture
def class_reads(monkeypatch):
    """Colour classes of the ``_GridModel.read_class`` calls, each one class
    of sector blocks read off t-block columns, made after a cold model
    cache."""
    read_class = _GridModel.read_class
    classes = []

    def counting_read_class(self, by_column, c, character, flip):
        classes.append(c)
        return read_class(self, by_column, c, character, flip)

    monkeypatch.setattr(_GridModel, "read_class", counting_read_class)
    _model.cache_clear()
    return classes


def cold_run_peak(tmp_path, suite, count):
    """The ``tracemalloc`` peak of one run in a fresh interpreter, from
    ``heislab.cli`` loaded to the end of the run, so the modules the run
    loads on its way count as they do for ``lab run``."""
    path = write_config(tmp_path, grid_size=count)
    script = f"""
import tracemalloc
from heislab.cli import load_config, run_suite
config = load_config({str(path)!r}, {{"suite": {suite!r}}})
tracemalloc.start()
run_suite(config)
print(tracemalloc.get_traced_memory()[1])
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return int(result.stdout.splitlines()[-1])


def run_estimate(suite, count):
    """The byte estimate that covers a run of ``suite``: the product table's
    own, or the model's for the other grid suites."""
    return (_product_peak_bytes if suite == "product" else _peak_bytes)(count)


def reachable_arrays(obj, seen=None):
    """Every array reachable from ``obj`` through attributes, containers
    and the bases of views."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        children = [obj.base]
    elif isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (tuple, list)):
        children = obj
    else:
        children = getattr(obj, "__dict__", {}).values()
    for child in children:
        yield from reachable_arrays(child, seen)


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

    def test_grid_rerun_into_fresh_dirs_is_byte_identical(self, tmp_path, capsys):
        # timing goes to stderr, never into --out: the artifacts of two runs
        # must match file for file and byte for byte
        contents = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = ["run", "--suite", "grid", "--grid", "9", "--out", str(out)]
            assert main(argv) == 0
            contents.append({p.name: p.read_bytes() for p in out.iterdir()})
            err = capsys.readouterr().err
            assert timed_suites(err) == ["grid"]
            provenance = [line for line in err.splitlines() if line.startswith("[lab] ")]
            assert len(provenance) == 1
            assert f"numpy {np.__version__}, scipy " in provenance[0]
            assert "OPENBLAS_NUM_THREADS=" in provenance[0]
        assert len(contents[0]) == 2
        assert contents[0] == contents[1]

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
        captured = capsys.readouterr()
        out = captured.out
        for suite in SUITES:
            assert f"[{suite}] " in out
        assert timed_suites(captured.err) == list(SUITES)
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

    def test_cold_trace_run_does_two_real_eigh_per_kept_block(
        self, tmp_path, eigh_sizes
    ):
        # a run starting on a cold model cache solves each of the ceil(n/2)
        # kept t-blocks once, as its two real parity halves of sizes
        # ceil(M/2) and floor(M/2) with M = n * n, and nothing of size M or
        # more
        run_suite(load_config(write_config(tmp_path), {"suite": "trace"}))
        assert sorted(eigh_sizes) == [40] * 5 + [41] * 5
        assert max(eigh_sizes) < 9**2

    @pytest.mark.parametrize("suite, solves", [("grid", 1), ("bound", 1), ("product", 2)])
    def test_cold_run_counts_its_eigensolves(self, tmp_path, eigh_sizes, suite, solves):
        # one eigensolve is 2 ceil(n/2) real eigh calls; a grid or bound run
        # makes one, which leaves the inverse root behind (trace: see
        # above), and product solves once more for the eigenvectors of its
        # a:ell factor (plus one eigh of n x n for its vertical root)
        run_suite(load_config(write_config(tmp_path), {"suite": suite}))
        parity = [size for size in eigh_sizes if size != 9]
        assert len(parity) == solves * 2 * 5
        assert len(eigh_sizes) - len(parity) == (suite == "product")

    def test_no_suite_calls_a_dense_eigh(self, tmp_path, eigh_sizes):
        run_suite(load_config(write_config(tmp_path), {"suite": "all"}))
        assert eigh_sizes and 9**3 not in eigh_sizes

    def test_grid_suite_takes_each_power_once(self, tmp_path, power_exponents):
        # on a cold model the split residuals of the whole family read one
        # power: the inverse root's t-block columns, computed once and kept,
        # give each colour class's blocks, which build the Riesz blocks and,
        # with the stencil rows, the blocks of (-Delta)^{1/2}; the kernel
        # projection needs none
        cli._run_grid(load_config(write_config(tmp_path), {"suite": "grid"}))
        assert power_exponents == [-0.5]
        assert _model(GridSpec.cube(9))._inverse_root is not None

    def test_bound_suite_takes_one_inverse_root(self, tmp_path, power_exponents):
        # both families of the suite read the class blocks off the one set
        # of t-block columns the model keeps
        run_suite(load_config(write_config(tmp_path), {"suite": "bound"}))
        assert power_exponents == [-0.5]

    def test_bound_suite_reads_each_colour_class_once(self, tmp_path, class_reads):
        # the spectra of both families are taken in one pass, class by class
        run_suite(load_config(write_config(tmp_path), {"suite": "bound"}))
        assert class_reads == [0, 1]

    def test_cancelling_product_row_is_excluded(self, tmp_path):
        # on bumps at 10^3 the riesz_mix case carries the odd function
        # odd_x: its integral cancels to a rounding residue and so does its
        # eigenvalue sum, so the row is left out of the table and of the
        # variation instead of entering them as a ratio of two residues
        out = tmp_path / "out"
        code = main(
            ["run", "--suite", "product", "--grid", "10", "--family", "bumps",
             "--out", str(out)]
        )
        assert code == 0
        (path,) = out.glob("product_*.json")
        experiment = json.loads(path.read_text())["extra"]["experiment"]
        assert experiment["excluded"] == ["riesz_mix"]
        assert [row["label"] for row in experiment["rows"]] == ["all_flat", "symbol_mix"]

    def test_product_suite_solves_pieces_only(self, tmp_path, monkeypatch):
        # the product table reads its eigenvalues piece by piece: at 9^3 the
        # catalog's functions are even, so a piece is one sector of one
        # colour class, at most 95 orbits
        _model.cache_clear()
        eigenvalues = recorded_eigenvalues(monkeypatch)
        code = main(
            ["run", "--suite", "product", "--grid", "9", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        sizes = [values.size for values in eigenvalues]
        assert sizes and max(sizes) <= 95
        assert sum(sizes) == 3 * 9**3

    def test_asymmetric_parity_block_is_rejected(self, tmp_path, monkeypatch, capsys):
        # every eigensolve of a model checks its parity halves first, so a
        # suite stops with a usage error instead of solving one triangle
        parity_block = grid._parity_block

        def skewed(block, half):
            out = parity_block(block, half)
            out[0, 1] += 1.0
            return out

        monkeypatch.setattr(grid, "_parity_block", skewed)
        _model.cache_clear()
        try:
            with pytest.raises(ValueError, match="asymmetry"):
                grid.sublaplacian_spectrum(GridSpec.cube(9))
            code = main(
                ["run", "--suite", "grid", "--grid", "9", "--out", str(tmp_path / "out")]
            )
        finally:
            _model.cache_clear()
        assert code == 2
        assert "asymmetry" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["grid", "bound", "trace", "product"])
    def test_cold_run_peaks_below_one_dense_matrix(self, tmp_path, suite):
        # at 13^3 every array the run allocates, cached or transient, fits
        # together in less than one N x N float64 array, and the byte
        # estimate of the run covers it within a factor 2
        peak = cold_run_peak(tmp_path, suite, 13)
        assert peak < (13**3) ** 2 * 8
        assert peak <= run_estimate(suite, 13) <= 2 * peak

    @pytest.mark.parametrize("suite", ["grid", "bound", "trace", "product"])
    def test_byte_estimate_covers_a_cold_9_run(self, tmp_path, suite):
        peak = cold_run_peak(tmp_path, suite, 9)
        assert peak <= run_estimate(suite, 9) <= 2 * peak

    def test_byte_estimate_covers_a_cold_17_grid_run(self, tmp_path):
        # at 17^3 the t-block arrays are 6.0 MB each, where the sector term
        # is 31 MB
        peak = cold_run_peak(tmp_path, "grid", 17)
        assert peak <= run_estimate("grid", 17) <= 2 * peak

    def test_over_budget_grid_exits_before_building_a_model(self, tmp_path, capsys):
        # 41^3 estimates 6.7 GB: the run names the estimate and the budget
        # and exits 2, having allocated far less than one N x N matrix
        _model.cache_clear()
        args = ["run", "--suite", "grid", "--grid", "41", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"estimated {_peak_bytes(41) / 1e6:.0f} MB" in err
        assert "over the budget of 1500 MB" in err
        assert _model.cache_info().currsize == 0
        assert peak < (41**3) ** 2 * 8 / 1000

    def test_over_budget_product_exits_before_building_a_model(self, tmp_path, capsys):
        # the model alone admits 27^3 (580 MB), the product table's own
        # estimate does not: the run exits 2 before the model or a factor is
        # built
        count = 27
        assert _peak_bytes(count) <= grid._BYTE_BUDGET < _product_peak_bytes(count)
        _model.cache_clear()
        args = ["run", "--suite", "product", "--grid", str(count), "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"estimated {_product_peak_bytes(count) / 1e6:.0f} MB" in err
        assert "over the budget of 1500 MB" in err
        assert _model.cache_info().currsize == 0
        assert peak < (count**3) ** 2 * 8 / 1000

    def test_all_checks_every_budget_before_the_first_suite(
        self, tmp_path, capsys, monkeypatch
    ):
        # a budget that admits the 9^3 model but not the product table
        # refuses all --grid 9 before grid, bound and trace run
        budget = (_peak_bytes(9) + _product_peak_bytes(9)) // 2
        monkeypatch.setattr(grid, "_BYTE_BUDGET", budget)
        _model.cache_clear()
        code = main(["run", "--suite", "all", "--grid", "9", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "product table on grid 9^3 needs an estimated" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        assert _model.cache_info().currsize == 0

    def test_sweep_checks_every_budget_before_the_first_step(self, tmp_path, capsys):
        # 41^3 is over the budget: the 9^3 step does not run first
        _model.cache_clear()
        args = ["sweep", "--suite", "bound", "--axis", "grid_size", "--values", "9,41"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert "grid 41^3 needs an estimated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert _model.cache_info().currsize == 0

    def test_cold_product_run_peaks_below_two_dense_matrices(self, tmp_path):
        # every product factor is read off the t-blocks as sector blocks:
        # at 13^3 the run never holds the two N x N float64 arrays a dense
        # factor and its gather would take
        _model.cache_clear()
        config = load_config(write_config(tmp_path, grid_size=13), {"suite": "product"})
        tracemalloc.start()
        try:
            run_suite(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _model.cache_clear()
        assert peak < 2 * (13**3) ** 2 * 8

    @pytest.mark.parametrize("suite", ["bound", "trace", "grid"])
    def test_cold_run_leaves_no_dense_matrix_on_the_model(self, tmp_path, suite):
        # the cached model keeps sector blocks of about (N/8)^2 entries, and
        # nothing of N x N: not R_ell, not a power
        _model.cache_clear()
        run_suite(load_config(write_config(tmp_path), {"suite": suite}))
        model = _model(GridSpec.cube(9))
        assert _model.cache_info().currsize == 1
        assert model._inverse_root is not None and model._field_rows
        sizes = [arr.size for arr in reachable_arrays(model)]
        assert max(sizes) < (9**3) ** 2

    def test_cold_run_keeps_no_eigenvector_nor_planar_matrix(self, tmp_path):
        # after its one eigensolve the model holds the eigenvalues and live
        # masks, the inverse root's t-block columns, the orbits and the
        # stencil rows: apart from those columns, no array of M^2 = n^4
        # entries or more, as the parity eigenvectors and the dense planar
        # operators would be
        _model.cache_clear()
        run_suite(load_config(write_config(tmp_path), {"suite": "bound"}))
        model = _model(GridSpec.cube(9))
        columns = model.inverse_root_columns()
        sizes = [
            arr.size for arr in reachable_arrays(model)
            if arr is not columns and arr.base is not columns
        ]
        assert max(sizes) < 9**4 <= columns.size
        _model.cache_clear()

    @pytest.mark.parametrize("suite", ["bound", "grid"])
    def test_cold_run_leaves_no_sector_set_on_the_model(self, tmp_path, suite):
        # the model keeps the inverse root only as its t-block columns at
        # the planar representatives (about half a t-block array of
        # ceil(n/2) n^4 floats), and reads its sector blocks one colour
        # class at a time: after a run it owns less than one t-block array
        # (0.87 of one at 13^3, where the kept eigenvectors and planar
        # matrices took it to 1.95), with no sector set, which alone would
        # take (N + 3n + 4)^2 bytes
        count = 13
        _model.cache_clear()
        config = load_config(write_config(tmp_path, grid_size=count), {"suite": suite})
        run_suite(config)
        model = _model(GridSpec.cube(count))
        assert _model.cache_info().currsize == 1
        owned = sum(arr.nbytes for arr in reachable_arrays(model) if arr.base is None)
        t_blocks = 8 * ((count + 1) // 2) * count**4
        assert owned <= t_blocks
        _model.cache_clear()

    @pytest.mark.parametrize("suite", ["bound", "grid"])
    def test_cold_run_leaves_one_sector_set_on_the_model(self, tmp_path, suite):
        # after a run the model holds the inverse root's sector blocks and
        # the t-block arrays, bounded by the terms of _peak_bytes: one set of
        # (N + 3n + 4)^2 bytes and one and a half arrays of ceil(n/2) n^4
        # floats.  A field set kept dense, or a Riesz set, would add about
        # one more set
        count = 13
        _model.cache_clear()
        config = load_config(write_config(tmp_path, grid_size=count), {"suite": suite})
        run_suite(config)
        model = _model(GridSpec.cube(count))
        assert _model.cache_info().currsize == 1
        owned = sum(arr.nbytes for arr in reachable_arrays(model) if arr.base is None)
        sector_set = (count**3 + 3 * count + 4) ** 2
        t_blocks = 8 * ((count + 1) // 2) * count**4
        assert owned <= sector_set + 3 * t_blocks // 2
        _model.cache_clear()

    def test_grid_artifact_reports_split_components(self, tmp_path):
        # every shipped split function is even: one component, character ++
        outcome = cli._run_grid(load_config(write_config(tmp_path), {"suite": "grid"}))
        diagnostics = outcome.extra["diagnostics"]
        assert diagnostics and all(d["components"] == ["++"] for d in diagnostics.values())

    def test_grid_artifact_reports_block_levels(self, tmp_path):
        outcome = cli._run_grid(load_config(write_config(tmp_path), {"suite": "grid"}))
        levels = outcome.extra["levels"]
        # one record per kept t-block with mu != 0: four of five at 9
        assert [level["block"] for level in levels] == [1, 2, 3, 4]
        assert all(level["lowest_over_abs_mu"] > 0.0 for level in levels)
        # deterministic: a cold model gives the same values
        _model.cache_clear()
        again = cli._run_grid(load_config(write_config(tmp_path), {"suite": "grid"}))
        assert again.extra["levels"] == levels

    def test_commutator_svds_are_sector_blocks(self, tmp_path, monkeypatch):
        # every shipped bound and trace function has exact reflection parity,
        # so no SVD sees the full 729 x 729 commutator, only the eight
        # sector-and-colour blocks of at most 95
        shapes = recorded_svd_shapes(monkeypatch)
        path = write_config(tmp_path)
        # a cold model, whose spectra are all computed in this run
        _model.cache_clear()
        for suite in ("bound", "trace"):
            run_suite(load_config(path, {"suite": suite}))
        shapes = [shape[-2:] for shape in shapes]
        assert shapes
        assert (9**3, 9**3) not in shapes
        assert max(max(shape) for shape in shapes) <= 95
        for suite in ("bound", "trace"):
            (artifact,) = (tmp_path / "out").glob(f"{suite}_*.json")
            extra = json.loads(artifact.read_text())["extra"]
            tables = [k for k, v in extra.items() if isinstance(v, dict) and "rows" in v]
            health = extra["spectrum"]
            assert "rows" not in health
            labels = [row["label"] for t in tables for row in extra[t]["rows"]]
            assert set(health) == set(labels)
            for record in health.values():
                assert record["sector"] in ("++", "+-", "-+", "--")
                assert record["clamped"] >= 0
                assert 0.0 < record["min_kept_ratio"] <= 1.0
                # the decay fit window of a bound row, the Dixmier window
                # of a trace row
                if suite == "bound":
                    lo, hi = record["fit_range"]
                    assert 0 <= lo < hi <= 9**3
                    assert "window" not in record
                else:
                    assert 50 <= record["window"] <= 9**3
                    assert "fit_range" not in record

    def test_all_suites_share_the_commutator_spectra(self, tmp_path, monkeypatch):
        # bound decomposes bumps and decay, six distinct functions, and trace
        # the three centred Gaussians bound has already decomposed: eight
        # blocks each for six functions
        shapes = recorded_svd_shapes(monkeypatch)
        _model.cache_clear()
        run_suite(load_config(write_config(tmp_path), {"suite": "all"}))
        assert len(commutator_blocks(shapes)) == 6 * 8

    def test_trace_sweep_in_cutoff_decomposes_once(self, tmp_path, monkeypatch):
        # the cutoff changes only the fiber side, so the three functions are
        # decomposed at the first value only
        shapes = recorded_svd_shapes(monkeypatch)
        _model.cache_clear()
        config = load_config(write_config(tmp_path), {"suite": "trace"})
        assert sweep(config, "hermite_K", [4, 6, 8]) == 0
        assert len(commutator_blocks(shapes)) == 3 * 8

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

    def test_verdicts_and_rows_agree_across_blas_thread_counts(self, tmp_path):
        # byte identity holds for one BLAS build and one thread count; with
        # another count the factorizations sum in another order, so only the
        # verdicts must agree exactly, and every table row to rounding
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            result = subprocess.run(
                [sys.executable, "-m", "heislab.cli", "run", "--suite", "all",
                 "--grid", "9", "--seed", "7", "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            payloads = {
                path.name: json.loads(path.read_text()) for path in out.glob("*.json")
            }
            runs.append((result.returncode, payloads))
        (code, first), (other_code, second) = runs
        assert code == other_code and len(first) == 7
        assert sorted(first) == sorted(second)
        for name, payload in first.items():
            again = second[name]
            assert (payload["passed"], payload["violations"]) == (
                again["passed"], again["violations"]
            ), name
            rows, rows_again = table_rows(payload), table_rows(again)
            assert rows.keys() == rows_again.keys(), name
            for key, value in rows.items():
                assert rows_again[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    def test_grid_suites_load_no_scipy_subpackage(self, tmp_path):
        # one fresh interpreter runs the suites in turn, then all of them,
        # and lists what each step has loaded
        script = f"""
import json, sys
names = {UNLOADED_SCIPY_MODULES!r}
loaded = lambda: [m for m in names if m in sys.modules]
import heislab.cli
state = {{"import": [0, loaded(), "scipy" in sys.modules]}}
for suite in ("grid", "bound", "trace", "plancherel", "all"):
    code = heislab.cli.main(
        ["run", "--suite", suite, "--grid", "9", "--out", {str(tmp_path / "out")!r}]
    )
    state[suite] = [code, loaded()]
print(json.dumps(state))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        state = json.loads(result.stdout.splitlines()[-1])
        # bound fails its slope band at grid 9, the expected verdict there
        assert state == {
            # no step imports scipy: the provenance line reads its version
            # off scipy's version.py
            "import": [0, [], False],
            "grid": [0, []],
            "bound": [3, []],
            "trace": [0, []],
            "plancherel": [0, []],
            "all": [3, []],
        }

    def test_grid_and_bound_runs_load_no_fiber_module_nor_scipy(self, tmp_path):
        # the fiber modules are imported in the functions that call them and
        # scipy's version is read off its version.py, so grid and bound runs
        # load none of them, while a trace run loads the fiber model
        script = f"""
import json, sys
names = ("heislab.doi", "heislab.oscillator", "heislab.plancherel", "scipy")
loaded = lambda: [m for m in names if m in sys.modules]
import heislab.cli
state = {{"import": [0, loaded()]}}
for suite in ("grid", "bound", "trace"):
    code = heislab.cli.main(
        ["run", "--suite", suite, "--grid", "9", "--out", {str(tmp_path / "out")!r}]
    )
    state[suite] = [code, loaded()]
print(json.dumps(state))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        state = json.loads(result.stdout.splitlines()[-1])
        assert state == {
            "import": [0, []],
            "grid": [0, []],
            "bound": [3, []],
            "trace": [0, ["heislab.doi", "heislab.oscillator"]],
        }
        import scipy

        provenance = [line for line in result.stderr.splitlines() if line.startswith("[lab]")]
        assert len(provenance) == 3
        for line in provenance:
            assert f"numpy {np.__version__}, scipy {scipy.__version__}, " in line

    def test_grid_suites_map_no_openssl(self, tmp_path):
        # the config digest takes CPython's builtin SHA-256 and the seeded
        # checks draw from CPython's Mersenne Twister, so no suite loads the
        # hashing module that maps OpenSSL, nor numpy.random, whose import
        # of secrets loads it
        script = f"""
import json, sys
names = ("hashlib", "_hashlib", "secrets", "numpy.random")
loaded = lambda: [m for m in names if m in sys.modules]
import heislab.cli
state = {{"import": [0, loaded()]}}
for suite in ("grid", "bound", "doi", "plancherel", "trace", "all"):
    code = heislab.cli.main(
        ["run", "--suite", suite, "--grid", "9", "--out", {str(tmp_path / "out")!r}]
    )
    state[suite] = [code, loaded()]
print(json.dumps(state))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        state = json.loads(result.stdout.splitlines()[-1])
        # bound fails its slope band at grid 9, the expected verdict there
        assert state == {
            "import": [0, []],
            "grid": [0, []],
            "bound": [3, []],
            "doi": [0, []],
            "plancherel": [0, []],
            "trace": [0, []],
            "all": [3, []],
        }


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
        for axis, (setting, suites) in SWEEP_AXES.items():
            assert setting in cli._CONFIG_KEYS, axis
            for name in suites:
                assert name in SUITES


class TestReportCommand:
    def test_empty_directory(self, tmp_path):
        with pytest.raises(UsageError, match="no run artifacts"):
            report(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(UsageError, match="no output directory"):
            report(tmp_path / "absent")

    def test_run_missing_a_field_is_skipped(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "bare.json").write_text('{"kind": "run"}')
        assert main(["report", "--out", str(out)]) == 2
        assert "no run artifacts" in capsys.readouterr().err
        main(["run", "--suite", "hermite", "--config", str(write_config(tmp_path))])
        (artifact,) = out.glob("hermite_*.json")
        payload = json.loads(artifact.read_text())
        for field in ("suite", "digest", "passed", "metrics", "violations"):
            partial = {key: value for key, value in payload.items() if key != field}
            (out / f"without_{field}.json").write_text(json.dumps(partial))
        assert main(["report", "--out", str(out)]) == 0
        (entry,) = json.loads((out / "report.json").read_text())["entries"]
        assert entry["history"] == [artifact.name]

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
