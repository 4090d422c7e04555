"""Command-line front end for the verification suites.

Three subcommands cover the whole workflow.  ``lab run`` executes one suite
(or ``all``) against a configuration and writes JSON/CSV artifacts to the
output directory.  ``lab sweep`` re-runs a suite along one resolution axis
and emits a convergence table.  ``lab report`` merges the artifacts of
earlier runs into a single summary keyed by suite and configuration digest.

Every check a suite performs carries a documented allowance.  The number a
threshold bounds is the *margin* of the worst check: measured value divided
by its allowance for upper bounds, allowance divided by the value for
floors.  A margin of at most one therefore means every check sits inside
its documented tolerance, which is why the default threshold for every key
is ``1.0``; configurations may scale individual keys.  The checks are
written once, as check-group functions returning these records; the suite
drivers report them and the acceptance tests assert on the same records.

Configuration comes from a JSON file plus command-line flags; flags win.
Identical configuration and seed produce byte-identical artifacts (no
timestamps are embedded; re-runs get a fresh file stem so history is kept).

Exit codes: 0 success, 2 usage error, 3 threshold violation, 1 unexpected
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import resource
import sys
import time
import traceback
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the fiber modules, doi, oscillator and plancherel, are imported in the
# functions that call them, so a grid or bound run never compiles them
from .experiments import (
    ProductCase,
    SeededDraws,
    _DEGENERATE_FAMILY,
    _check_product_budget,
    bound_experiment,
    build_y_fibers,
    config_digest,
    family_names,
    gram_min_eigenvalue,
    named_family,
    product_trace_check,
    report_as_dict,
    trace_formula_experiment,
)
from .grid import (
    GridSpec,
    _check_model_budget,
    _model,
    quarter_rotation,
    riesz_decomposition_residual,
)
from .schatten import SingularSpectrum, dixmier_approximant

SUITES = ("hermite", "doi", "plancherel", "grid", "bound", "trace", "product")

# One key per headline property; a suite may own several keys.  The default
# of 1.0 means "exactly the documented allowance of the worst check".
DEFAULT_THRESHOLDS: dict[str, dict[str, float]] = {
    "hermite": {"identity_margin": 1.0},
    "doi": {"identity_margin": 1.0, "closed_form_margin": 1.0},
    "plancherel": {
        "integral_margin": 1.0,
        "weak_norm_margin": 1.0,
        "node_margin": 1.0,
    },
    "grid": {"decomposition_margin": 1.0},
    "bound": {"ratio_spread_margin": 1.0, "slope_margin": 1.0},
    "trace": {"variation_margin": 1.0, "gram_margin": 1.0},
    "product": {"trace_margin": 1.0},
}

# each sweep axis: the RunConfig field it steps and the suites it applies to
SWEEP_AXES: dict[str, tuple[str, tuple[str, ...]]] = {
    "grid_size": ("grid_size", ("grid", "bound", "trace", "product")),
    "hermite_K": ("hermite_K", ("hermite", "doi", "trace")),
    "quadrature_nodes": ("quad_nodes_per_decade", ("plancherel",)),
}

# margins are capped so artifacts stay strict JSON even when a floor check
# sees a non-positive value
_MARGIN_CAP = 1e300


class UsageError(Exception):
    """Configuration or invocation problem; reported as exit status 2."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _is_number(value, kind=(int, float)) -> bool:
    # JSON true and false are Python bools, which are ints; a config that
    # says "ell": true must fail here, not run as ell = 1 under another digest
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, after file and flag merging."""

    suite: str = "all"
    grid_size: int = 13
    hermite_n: int = 1
    hermite_K: int = 6
    quad_s_min: float = 1e-4
    quad_s_max: float = 1e2
    quad_nodes_per_decade: int = 24
    family: str | None = None
    ell: int = 1
    seed: int = 42
    output_dir: str = "lab_out"
    thresholds: Mapping[str, Mapping[str, float]] = field(
        default_factory=lambda: DEFAULT_THRESHOLDS
    )

    def __post_init__(self) -> None:
        _require(
            self.suite in SUITES + ("all",),
            f"unknown suite {self.suite!r}; expected one of "
            f"{', '.join(SUITES + ('all',))}",
        )
        _require(
            _is_number(self.grid_size, int) and self.grid_size >= 3,
            "grid_size must be an integer of at least 3",
        )
        _require(
            _is_number(self.hermite_n, int) and self.hermite_n >= 1,
            "hermite_n must be a positive integer",
        )
        _require(
            _is_number(self.hermite_K, int) and self.hermite_K >= 1,
            "hermite_K must be a positive integer",
        )
        _require(
            _is_number(self.quad_s_min)
            and _is_number(self.quad_s_max)
            and 0.0 < self.quad_s_min < self.quad_s_max,
            "need 0 < quad_s_min < quad_s_max",
        )
        _require(
            _is_number(self.quad_nodes_per_decade, int)
            and self.quad_nodes_per_decade >= 2,
            "quad_nodes_per_decade must be an integer of at least 2",
        )
        _require(
            self.family is None or self.family in family_names(),
            f"unknown family {self.family!r}; expected one of "
            f"{', '.join(family_names())}",
        )
        _require(_is_number(self.ell, int) and self.ell in (1, 2), "ell must be 1 or 2")
        _require(_is_number(self.seed, int), "seed must be an integer")
        for suite in self.requested_suites():
            block = self.thresholds.get(suite)
            _require(
                isinstance(block, Mapping) and bool(block),
                f"thresholds missing for requested suite {suite!r}",
            )

    def requested_suites(self) -> tuple[str, ...]:
        return SUITES if self.suite == "all" else (self.suite,)

    def canonical(self, suite: str) -> dict:
        """Digest-stable view of the settings that shape this suite's numbers.

        The output directory is excluded: it changes no computed value, so
        two runs differing only there share a digest and must produce
        byte-identical artifacts.
        """
        return {
            "suite": suite,
            "grid_size": self.grid_size,
            "hermite_n": self.hermite_n,
            "hermite_K": self.hermite_K,
            "quad": {
                "s_min": self.quad_s_min,
                "s_max": self.quad_s_max,
                "nodes_per_decade": self.quad_nodes_per_decade,
            },
            "family": self.family,
            "ell": self.ell,
            "seed": self.seed,
            "thresholds": dict(sorted(self.thresholds[suite].items())),
        }


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _merge_thresholds(overrides: Mapping | None) -> dict[str, dict[str, float]]:
    merged = {suite: dict(block) for suite, block in DEFAULT_THRESHOLDS.items()}
    if overrides is None:
        return merged
    _require(isinstance(overrides, Mapping), "thresholds must be a mapping")
    for suite, block in overrides.items():
        _require(suite in merged, f"thresholds for unknown suite {suite!r}")
        _require(
            isinstance(block, Mapping),
            f"thresholds for suite {suite!r} must be a mapping",
        )
        for key, value in block.items():
            _require(
                key in merged[suite],
                f"unknown threshold key {key!r} for suite {suite!r}; "
                f"expected one of {', '.join(sorted(merged[suite]))}",
            )
            _require(
                _is_number(value)
                and math.isfinite(value)
                and value > 0.0,
                f"threshold {suite}.{key} must be a positive number",
            )
            merged[suite][key] = float(value)
    return merged


def load_config(path: str | Path | None, overrides: Mapping | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UsageError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        _require(isinstance(data, dict), "config file must hold a JSON object")
        for key in data:
            _require(key in _CONFIG_KEYS, f"unknown config key {key!r}")
    settings = {k: v for k, v in data.items() if k != "thresholds"}
    if overrides:
        settings.update({k: v for k, v in overrides.items() if v is not None})
    thresholds = _merge_thresholds(data.get("thresholds"))
    try:
        return RunConfig(thresholds=thresholds, **settings)
    except TypeError as exc:
        raise UsageError(f"bad config field: {exc}") from None


# ---------------------------------------------------------------------------
# checks and margins


def _check(metric: str, name: str, value: float, allowed: float, mode: str = "upper") -> dict:
    if mode == "upper":
        margin = value / allowed
    elif mode == "floor":
        margin = allowed / value if value > 0.0 else _MARGIN_CAP
    else:
        raise ValueError(f"unknown check mode {mode!r}")
    return {
        "metric": metric,
        "name": name,
        "value": float(value),
        "allowed": float(allowed),
        "mode": mode,
        "margin": float(min(margin, _MARGIN_CAP)),
    }


@dataclass(frozen=True)
class SuiteOutcome:
    checks: tuple[dict, ...]
    sweep_name: str
    sweep_value: float
    extra: Mapping = field(default_factory=dict)


def _aggregate(suite: str, checks: Sequence[dict]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for key in DEFAULT_THRESHOLDS[suite]:
        margins = [c["margin"] for c in checks if c["metric"] == key]
        if not margins:
            raise RuntimeError(f"suite {suite} produced no checks for {key}")
        metrics[key] = max(margins)
    return metrics


# ---------------------------------------------------------------------------
# check groups
#
# Each function returns the check records of one headline property.  The
# suite drivers below report them and ``tests/test_acceptance.py`` asserts
# on the same records, so every check and its allowance is written once.
# Random instances come from the generator or seed the caller passes.

HERMITE_PAIRS = tuple((n, K) for n in (1, 2) for K in (4, 6, 8))


def _interior_mask(basis) -> np.ndarray:
    return np.array([sum(a) <= basis.K - 1 for a in basis.indices])


def hermite_checks(pairs: Sequence[tuple[int, int]]) -> list[dict]:
    """Ladder, diagonal, oscillator-sum and interior CCR identities per (n, K)."""
    from .oscillator import (
        enumerate_basis,
        matrix_unit,
        momentum_matrix,
        oscillator_matrix,
        position_matrix,
    )

    checks: list[dict] = []
    for n, K in pairs:
        basis = enumerate_basis(n, K)
        h = oscillator_matrix(basis)
        expected_diag = np.array([2.0 * sum(a) + n for a in basis.indices])
        diag_res = float(
            max(
                np.max(np.abs(np.diag(h) - expected_diag)),
                np.max(np.abs(h - np.diag(np.diag(h)))),
            )
        )
        interior = _interior_mask(basis)
        ladder_res = 0.0
        ccr_res = 0.0
        total = np.zeros((basis.dim, basis.dim), dtype=complex)
        for j in range(1, n + 1):
            p = momentum_matrix(basis, j)
            q = position_matrix(basis, j)
            total += p @ p + q @ q
            ladder = p + 1j * q
            expected = np.zeros_like(ladder)
            for alpha in basis.indices:
                if sum(alpha) < K:
                    raised = alpha[: j - 1] + (alpha[j - 1] + 1,) + alpha[j:]
                    expected += (
                        1j
                        * math.sqrt(2.0 * alpha[j - 1] + 2.0)
                        * matrix_unit(basis, raised, alpha)
                    )
            ladder_res = max(ladder_res, float(np.max(np.abs(ladder - expected))))
            block = (p @ q - q @ p)[np.ix_(interior, interior)]
            ccr_res = max(
                ccr_res,
                float(np.max(np.abs(block + 1j * np.eye(int(interior.sum()))))),
            )
        osc_res = float(
            np.max(np.abs(total[:, interior] - h[:, interior].astype(complex)))
        )
        tag = f"n{n}_K{K}"
        checks.append(_check("identity_margin", f"ladder_{tag}", ladder_res, 1e-12))
        checks.append(_check("identity_margin", f"diagonal_{tag}", diag_res, 1e-12))
        checks.append(_check("identity_margin", f"oscillator_sum_{tag}", osc_res, 1e-12))
        checks.append(_check("identity_margin", f"ccr_{tag}", ccr_res, 1e-12))
    return checks


def _random_hermitian(rng: SeededDraws, dim: int, lo: float, hi: float) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(lo, hi, size=dim)
    return (q * lam) @ q.conj().T


def doi_identity_checks(rng: SeededDraws) -> list[dict]:
    """Fraction-symbol commutator identity, symbol multiplicativity, linearity."""
    from .doi import SpectralDecomposition, doi_apply, make_symbol

    # the fraction symbol turns the conjugated double commutator back into
    # the plain one; exactness here is the whole point of the transform
    identity_res = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 13))
        b = _random_hermitian(rng, dim, 1.0, 2.0)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b_inv = np.linalg.inv(b)
        lhs = (b @ a - a @ b) @ b_inv
        inner = b_inv @ (b @ b @ a - a @ b @ b) @ b_inv
        dec = SpectralDecomposition.from_matrix(b)
        rhs = doi_apply(dec, dec, "frac_lambda", inner)
        identity_res = max(identity_res, float(np.max(np.abs(lhs - rhs))))

    psi_fn = make_symbol("psi").evaluator
    frac_fn = make_symbol("frac_lambda").evaluator
    d0 = SpectralDecomposition.from_matrix(_random_hermitian(rng, 6, 1.0, 3.0))
    d1 = SpectralDecomposition.from_matrix(_random_hermitian(rng, 6, 1.0, 3.0))
    arg = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    product = make_symbol(lambda lam, mu: psi_fn(lam, mu) * frac_fn(lam, mu))
    mult_res = float(
        np.max(
            np.abs(
                doi_apply(d0, d1, product, arg)
                - doi_apply(d0, d1, "psi", doi_apply(d0, d1, "frac_lambda", arg))
            )
        )
    )
    combo = make_symbol(
        lambda lam, mu: 2.0 * frac_fn(lam, mu)
        + 3.0 * np.minimum(lam, mu) / (lam + mu)
    )
    lin_res = float(
        np.max(
            np.abs(
                doi_apply(d0, d0, combo, arg)
                - 2.0 * doi_apply(d0, d0, "frac_lambda", arg)
                - 3.0 * doi_apply(d0, d0, "min_over_sum", arg)
            )
        )
    )
    other = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    additivity = float(
        np.max(
            np.abs(
                doi_apply(d0, d1, "psi", arg + other)
                - doi_apply(d0, d1, "psi", arg)
                - doi_apply(d0, d1, "psi", other)
            )
        )
    )
    return [
        _check("identity_margin", "commutator_identity", identity_res, 1e-11),
        _check("identity_margin", "symbol_multiplicativity", mult_res, 1e-11),
        _check("identity_margin", "symbol_linearity", max(lin_res, additivity), 1e-11),
    ]


def closed_form_checks(rng: SeededDraws) -> list[dict]:
    """Resolvent quadrature against its closed form and its infinite-cutoff limit.

    Each check runs on the all-ones matrix and on one random complex matrix.
    """
    from .doi import (
        SpectralDecomposition,
        make_symbol,
        phi_n_symbol,
        resolvent_quadrature_A,
    )

    spectrum = np.array([1.0, 2.0, 7.5, 20.0, 50.0])
    dec = SpectralDecomposition.from_diagonal(spectrum)
    psi_table = make_symbol("psi").table(spectrum, spectrum)
    shape = (spectrum.size, spectrum.size)
    inputs = {
        "": np.ones(shape),
        "_random": rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    }
    checks: list[dict] = []
    for tag, v in inputs.items():
        for m in (1.0, 10.0, 100.0):
            out = resolvent_quadrature_A(v, dec, m, nodes=32)
            closed = phi_n_symbol(spectrum[:, None], spectrum[None, :], m) * v
            gap = float(np.max(np.abs(out - closed)))
            checks.append(
                _check("closed_form_margin", f"quadrature_gap{tag}_m{int(m)}", gap, 1e-6)
            )
        # the cutoff error is O(1/m); one Richardson step removes it
        coarse = resolvent_quadrature_A(v, dec, 1000.0, nodes=24)
        fine = resolvent_quadrature_A(v, dec, 2000.0, nodes=24)
        limit_gap = float(
            np.max(np.abs(2.0 * fine - coarse - 0.5 * math.pi * psi_table * v))
        )
        checks.append(
            _check("closed_form_margin", f"infinite_cutoff_limit{tag}", limit_gap, 1e-4)
        )
    return checks


def radial_checks() -> list[dict]:
    """Radial trace integrals and the incursion distribution with its decay law."""
    from .plancherel import incursion_distribution, incursion_profile, tau_radial

    gap_exp = abs(tau_radial(lambda s: math.exp(-s), 1) - 1.0)
    gap_scaled = abs(tau_radial(lambda s: math.exp(-2.0 * s), 1) - 0.25)
    level = 1.0 - 2.0 ** -0.25
    gap_half = abs(float(incursion_distribution(1, level)) - 0.5)
    profile = incursion_profile(1)
    gap_fit = abs(profile.fitted_exponent - profile.target_exponent)
    return [
        _check("integral_margin", "radial_exponential", gap_exp, 1e-8),
        _check("integral_margin", "radial_scaled_exponential", gap_scaled, 1e-8),
        _check("integral_margin", "incursion_halfway_level", gap_half, 1e-10),
        _check("integral_margin", "incursion_decay_exponent", gap_fit, 0.05),
    ]


def weak_norm_checks(rng: SeededDraws) -> list[dict]:
    """Analytic weak-norm distribution against quadrature, and a rank-one value."""
    from .oscillator import FiberOperator, enumerate_basis, matrix_unit
    from .plancherel import weak_distribution_brute, weak_norm_lift

    brute_rel = 0.0
    for _ in range(20):
        basis = enumerate_basis(1, int(rng.integers(1, 10)))
        shape = (basis.dim, basis.dim)
        minus = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        plus = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = FiberOperator(basis, minus, plus)
        _, dist = weak_norm_lift(x, 1)
        for t in (0.8, 3.0):
            brute = weak_distribution_brute(x, 1, t)
            brute_rel = max(brute_rel, abs(dist(t) - brute) / brute)

    basis2 = enumerate_basis(1, 2)
    unit = matrix_unit(basis2, (0,), (0,))
    quasinorm, _ = weak_norm_lift(FiberOperator(basis2, unit, np.zeros_like(unit)), 1)
    return [
        _check("weak_norm_margin", "distribution_vs_quadrature", brute_rel, 1e-10),
        _check("weak_norm_margin", "rank_one_value", abs(quasinorm - 0.5 ** 0.25), 1e-12),
    ]


def dixmier_checks() -> list[dict]:
    """Dixmier calibration on the harmonic sequence: in band, strictly improving."""
    harmonic = SingularSpectrum(1.0 / np.arange(1.0, 10001.0))
    errors = [abs(dixmier_approximant(harmonic, n) - 1.0) for n in (10, 100, 1000, 10000)]
    smallest_gain = min(early - late for early, late in zip(errors, errors[1:]))
    return [
        _check("trace_margin", "harmonic_value_in_band", errors[-1], 0.15),
        # a floor of zero passes exactly a strict decrease
        _check("trace_margin", "harmonic_error_decrease", smallest_gain, 0.0, mode="floor"),
    ]


# ---------------------------------------------------------------------------
# suite drivers


def _grid_spec(config: RunConfig) -> GridSpec:
    _require(
        config.hermite_n == 1,
        "the grid model realizes the first group only; set hermite_n to 1",
    )
    return GridSpec.cube(config.grid_size)


def _run_hermite(config: RunConfig) -> SuiteOutcome:
    pairs = list(HERMITE_PAIRS)
    if (config.hermite_n, config.hermite_K) not in pairs:
        pairs.append((config.hermite_n, config.hermite_K))
    checks = hermite_checks(pairs)
    return SuiteOutcome(
        tuple(checks),
        "identity_residual",
        max(check["value"] for check in checks),
    )


def _run_doi(config: RunConfig) -> SuiteOutcome:
    rng = SeededDraws(config.seed)
    checks = doi_identity_checks(rng) + closed_form_checks(rng)
    return SuiteOutcome(
        tuple(checks),
        "identity_residual",
        checks[0]["value"],  # the commutator identity residual
    )


def _run_plancherel(config: RunConfig) -> SuiteOutcome:
    from .plancherel import PlancherelQuadrature

    quadrature = PlancherelQuadrature.geometric(
        1,
        s_min=config.quad_s_min,
        s_max=config.quad_s_max,
        nodes_per_decade=config.quad_nodes_per_decade,
    )
    node_err = abs(quadrature.integrate_profile(lambda s: math.exp(-abs(s))) - 2.0)
    checks = [
        *radial_checks(),
        *weak_norm_checks(SeededDraws(config.seed)),
        _check("node_margin", "node_exponential_mass", node_err, 1e-6),
    ]
    return SuiteOutcome(
        tuple(checks),
        "node_error",
        node_err,
    )


def _run_grid(config: RunConfig) -> SuiteOutcome:
    spec = _grid_spec(config)
    checks: list[dict] = []
    diagnostics: dict[str, dict] = {}
    worst_split = 0.0
    splits = riesz_decomposition_residual(
        spec, named_family(config.family or "trace", spec), config.ell
    )
    # a function whose commutator is exactly zero has no relative residual
    # to check: it is left out, as the ratio experiments leave it out
    excluded = [label for label, split in splits.items() if split.lhs_norm == 0.0]
    if len(excluded) == len(splits):
        raise ValueError(_DEGENERATE_FAMILY)
    for label, split in splits.items():
        if label in excluded:
            continue
        checks.append(
            _check("decomposition_margin", f"split_{label}", split.relative_residual, 1e-9)
        )
        worst_split = max(worst_split, split.relative_residual)
        diagnostics[label] = {
            "leibniz_defect": split.leibniz_defect,
            "kernel_dimension": split.kernel_dimension,
            "lhs_norm": split.lhs_norm,
            "components": list(split.components),
        }
    for k in (1, 2):
        _, rotation = quarter_rotation(spec, k)
        checks.append(
            _check(
                "decomposition_margin",
                f"rotation_{rotation.target}",
                rotation.full_residual,
                1e-12,
            )
        )
    return SuiteOutcome(
        tuple(checks),
        "split_residual",
        worst_split,
        # lowest level of each t-block over |mu|; the continuum fibre gives 2
        {
            "diagnostics": diagnostics,
            "levels": _model(spec).levels(),
            **({"excluded": excluded} if excluded else {}),
        },
    )


def _spectrum_health(experiment) -> dict[str, Mapping]:
    """Per-row commutator spectrum diagnostics, keyed by label."""
    return {row.label: row.spectrum for row in experiment.rows}


def _run_bound(config: RunConfig) -> SuiteOutcome:
    spec = _grid_spec(config)
    ratio_name = config.family or "bumps"
    ratio_family = named_family(ratio_name, spec)
    decay_family = named_family("decay", spec)
    # one pass over both families reads each colour class once, and the
    # experiments find every spectrum kept; a label the families share for
    # two different functions costs the one dropped from the union a pass
    _model(spec).commutator_spectra(config.ell, {**ratio_family, **decay_family})
    report = bound_experiment(spec, ratio_family, config.ell)
    decay_report = bound_experiment(spec, decay_family, config.ell)
    spread = report.summary.max_ratio / report.summary.min_ratio
    checks = [_check("ratio_spread_margin", f"spread_{ratio_name}", spread, 8.0)]
    # the target power law sits at -0.25; the band is +-0.10 around it
    for row in decay_report.rows:
        checks.append(
            _check("slope_margin", f"slope_{row.label}", abs(row.slope + 0.25), 0.10)
        )
    return SuiteOutcome(
        tuple(checks),
        "ratio_spread",
        spread,
        {
            "ratio_experiment": report_as_dict(report),
            "decay_experiment": report_as_dict(decay_report),
            "spectrum": {**_spectrum_health(report), **_spectrum_health(decay_report)},
        },
    )


def _run_trace(config: RunConfig) -> SuiteOutcome:
    from .oscillator import enumerate_basis

    spec = _grid_spec(config)
    basis = enumerate_basis(1, config.hermite_K)
    family = named_family(config.family or "trace", spec)
    report = trace_formula_experiment(family, config.ell, spec, basis)
    checks = [
        _check("variation_margin", "ratio_variation", report.summary.variation, 0.5)
    ]
    coercivities: dict[int, dict[int, float]] = {1: {}, 2: {}}
    for ell in (1, 2):
        for K in (4, 6, 8):
            gram = gram_min_eigenvalue(
                build_y_fibers(enumerate_basis(1, K), ell), seed=config.seed
            )
            checks.append(
                _check(
                    "gram_margin",
                    f"gram_min_ell{ell}_K{K}",
                    gram.min_eigenvalue,
                    1e-6,
                    mode="floor",
                )
            )
            # a floor of zero passes exactly the positive values
            checks.append(
                _check(
                    "gram_margin",
                    f"coercivity_ell{ell}_K{K}",
                    gram.coercivity,
                    0.0,
                    mode="floor",
                )
            )
            coercivities[ell][K] = gram.coercivity
        reference = coercivities[ell][6]
        drift = (
            max(abs(c - reference) for c in coercivities[ell].values()) / reference
            if reference > 0.0
            else math.inf
        )
        checks.append(
            _check("gram_margin", f"coercivity_drift_ell{ell}", drift, 0.10)
        )
    return SuiteOutcome(
        tuple(checks),
        "ratio_variation",
        report.summary.variation,
        {
            "experiment": report_as_dict(report),
            "coercivity": {str(k): v for k, v in coercivities.items()},
            "spectrum": _spectrum_health(report),
        },
    )


def _run_product(config: RunConfig) -> SuiteOutcome:
    from .oscillator import enumerate_basis

    spec = _grid_spec(config)
    checks = dixmier_checks()
    basis = enumerate_basis(1, config.hermite_K)
    functions = named_family(config.family or "product", spec)
    ordered = list(functions.values())
    _require(
        len(ordered) >= 2,
        "product checks need a family with at least two functions",
    )
    g1, g2 = ordered[0], ordered[1]
    g3 = ordered[2] if len(ordered) > 2 else ordered[0]
    g4 = ordered[3] if len(ordered) > 3 else ordered[1]
    cases = [
        ProductCase("all_flat", (g1, g2, g3, g1), ("flat_factor",) * 4),
        ProductCase(
            "riesz_mix",
            (g1, g2, g3, g4),
            ("flat_factor", f"riesz:{config.ell}", "flat_factor", f"riesz:{config.ell}"),
        ),
        ProductCase(
            "symbol_mix",
            (g2, g1, g3, g1),
            ("flat_factor", f"a:{config.ell}", "flat_factor", f"a:{config.ell}"),
        ),
    ]
    report = product_trace_check(cases, spec, basis)
    return SuiteOutcome(
        tuple(checks),
        "product_variation",
        report.summary.variation,
        {"experiment": report_as_dict(report), "spectrum": _spectrum_health(report)},
    )


_DRIVERS = {
    "hermite": _run_hermite,
    "doi": _run_doi,
    "plancherel": _run_plancherel,
    "grid": _run_grid,
    "bound": _run_bound,
    "trace": _run_trace,
    "product": _run_product,
}


# the byte-budget check of each suite that builds the grid model; the
# product table's estimate exceeds the model's, so it stands for both
_BUDGET_CHECKS = {
    "grid": _check_model_budget,
    "bound": _check_model_budget,
    "trace": _check_model_budget,
    "product": _check_product_budget,
}


def _check_budgets(config: RunConfig) -> None:
    """Refuse, as a usage error, a configuration in which any requested
    suite is estimated over the byte budget, before the first suite runs:
    ``all`` would otherwise run and record its other suites first."""
    for suite in config.requested_suites():
        if suite in _BUDGET_CHECKS:
            try:
                _BUDGET_CHECKS[suite](config.grid_size)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc


def _execute(suite: str, config: RunConfig) -> SuiteOutcome:
    # the numerical layer signals violated preconditions (degenerate
    # families, grids over the byte budget, short cutoffs) with ValueError
    try:
        return _DRIVERS[suite](config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# artifacts


def _fresh_stem(directory: Path, base: str) -> str:
    stem = base
    counter = 0
    while (directory / f"{stem}.json").exists():
        counter += 1
        stem = f"{base}_{counter}"
    return stem


def _write_json(path: Path, payload: Mapping) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_csv(path: Path, lines: Sequence[str]) -> None:
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")


def _write_run_artifacts(directory: Path, payload: Mapping) -> Path:
    stem = _fresh_stem(directory, f"{payload['suite']}_{payload['digest']}")
    _write_json(directory / f"{stem}.json", payload)
    lines = ["check,value,allowed,mode,margin"]
    for check in payload["checks"]:
        lines.append(
            f"{check['name']},{check['value']!r},{check['allowed']!r},"
            f"{check['mode']},{check['margin']!r}"
        )
    _write_csv(directory / f"{stem}.csv", lines)
    return directory / f"{stem}.json"


def _run_and_record(directory: Path, suite: str, config: RunConfig) -> dict:
    """Execute one suite, write its artifacts, and return the payload."""
    outcome = _execute(suite, config)
    metrics = _aggregate(suite, outcome.checks)
    thresholds = dict(config.thresholds[suite])
    violations = sorted(
        key for key, allowed in thresholds.items() if metrics[key] > allowed
    )
    payload = {
        "kind": "run",
        "suite": suite,
        "digest": config_digest(config.canonical(suite)),
        "config": config.canonical(suite),
        "checks": list(outcome.checks),
        "metrics": metrics,
        "thresholds": thresholds,
        "violations": violations,
        "passed": not violations,
        "sweep_metric": {"name": outcome.sweep_name, "value": outcome.sweep_value},
        "extra": dict(outcome.extra),
    }
    payload["artifact"] = _write_run_artifacts(directory, payload).name
    return payload


def _scipy_version() -> str:
    """The installed scipy's version, read from the ``version.py`` beside
    its ``__init__.py`` without importing scipy: no suite needs scipy, and
    the import would lengthen every run."""
    path = Path(importlib.util.find_spec("scipy").origin).with_name("version.py")
    spec = importlib.util.spec_from_file_location("_scipy_version", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def _provenance_line() -> str:
    """Library versions, BLAS build and BLAS thread count of this process."""
    config = getattr(np.__config__, "CONFIG", {})  # absent before numpy 1.26
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return (
        f"[lab] numpy {np.__version__}, scipy {_scipy_version()}, "
        f"blas {blas.get('name', '?')} {blas.get('version', '?')}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"
    )


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_suite(config: RunConfig) -> int:
    """Execute the configured suite (or all of them); 0 on success, 3 on violation.

    Verdicts and metrics go to stdout.  Timing goes to stderr only (the
    provenance line once, then wall seconds and peak RSS after each suite)
    so that the artifacts in the output directory stay byte-identical
    across re-runs.
    """
    _check_budgets(config)
    directory = Path(config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    print(_provenance_line(), file=sys.stderr)
    status = 0
    for suite in config.requested_suites():
        started = time.perf_counter()
        payload = _run_and_record(directory, suite, config)
        elapsed = time.perf_counter() - started
        print(
            f"[{suite}] {elapsed:.3f} s, peak RSS {_peak_rss_mb():.1f} MB",
            file=sys.stderr,
        )
        verdict = "PASS" if payload["passed"] else "FAIL"
        print(f"[{suite}] {verdict} -> {payload['artifact']}")
        for key in sorted(payload["metrics"]):
            marker = " *" if key in payload["violations"] else ""
            print(
                f"    {key} = {payload['metrics'][key]:.6g} "
                f"(threshold {payload['thresholds'][key]:.6g}){marker}"
            )
        if not payload["passed"]:
            status = 3
    return status


def sweep(config: RunConfig, axis: str, values: Sequence[int]) -> int:
    """Run the suite once per axis value and write a convergence table."""
    _require(axis in SWEEP_AXES, f"unknown sweep axis {axis!r}")
    setting, suites = SWEEP_AXES[axis]
    _require(
        config.suite in suites,
        f"axis {axis!r} does not apply to suite {config.suite!r}; "
        f"applicable suites: {', '.join(suites)}",
    )
    _require(bool(values), "sweep needs at least one value")
    steps = [dataclasses.replace(config, **{setting: int(value)}) for value in values]
    for step in steps:
        _check_budgets(step)
    directory = Path(config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    metric_name = None
    previous = None
    for value, step in zip(values, steps):
        payload = _run_and_record(directory, step.suite, step)
        metric_name = payload["sweep_metric"]["name"]
        metric_value = payload["sweep_metric"]["value"]
        delta = None if previous is None else metric_value - previous
        rows.append(
            {
                "value": int(value),
                "metric": metric_value,
                "delta": delta,
                "passed": payload["passed"],
            }
        )
        previous = metric_value
    sweep_digest = config_digest(
        {
            "axis": axis,
            "values": [int(v) for v in values],
            "base": config.canonical(config.suite),
        }
    )
    payload = {
        "kind": "sweep",
        "suite": config.suite,
        "axis": axis,
        "metric_name": metric_name,
        "digest": sweep_digest,
        "rows": rows,
    }
    stem = _fresh_stem(directory, f"sweep_{config.suite}_{axis}_{sweep_digest}")
    _write_json(directory / f"{stem}.json", payload)
    lines = ["value,metric,delta,passed"]
    for row in rows:
        delta_txt = "" if row["delta"] is None else repr(row["delta"])
        lines.append(f"{row['value']},{row['metric']!r},{delta_txt},{row['passed']}")
    _write_csv(directory / f"{stem}.csv", lines)
    print(f"[sweep {config.suite}/{axis}] {metric_name} -> {stem}.json")
    for row in rows:
        delta_txt = "" if row["delta"] is None else f" delta={row['delta']:+.6g}"
        print(f"    {axis}={row['value']}: {row['metric']:.6g}{delta_txt}")
    return 0


def report(output_dir: str | Path) -> int:
    """Merge run artifacts under the directory into one summary table."""
    directory = Path(output_dir)
    _require(directory.is_dir(), f"no output directory at {directory}")
    groups: dict[tuple[str, str], list[tuple[Path, dict]]] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        # other kinds, and runs that lack a field read below, are skipped
        fields = {"suite", "digest", "passed", "metrics", "violations"}
        if not isinstance(data, dict) or data.get("kind") != "run":
            continue
        if not fields <= data.keys():
            continue
        groups.setdefault((data["suite"], data["digest"]), []).append((path, data))
    _require(bool(groups), f"no run artifacts found in {directory}")
    entries = []
    for (suite, digest), members in sorted(groups.items()):
        # later runs win; the name breaks mtime ties because fresh stems
        # only ever append an increasing counter
        members.sort(key=lambda item: (item[0].stat().st_mtime_ns, item[0].name))
        winner_path, winner = members[-1]
        entries.append(
            {
                "suite": suite,
                "digest": digest,
                "passed": winner["passed"],
                "metrics": winner["metrics"],
                "violations": winner["violations"],
                "artifact": winner_path.name,
                "history": [path.name for path, _ in members],
            }
        )
    payload = {"kind": "report", "entries": entries}
    _write_json(directory / "report.json", payload)
    lines = ["suite,digest,passed,artifact,runs"]
    for entry in entries:
        lines.append(
            f"{entry['suite']},{entry['digest']},{entry['passed']},"
            f"{entry['artifact']},{len(entry['history'])}"
        )
    _write_csv(directory / "report.csv", lines)
    print(f"[report] {len(entries)} configuration(s) -> report.json")
    for entry in entries:
        verdict = "PASS" if entry["passed"] else "FAIL"
        print(
            f"    {entry['suite']} {entry['digest']}: {verdict} "
            f"({len(entry['history'])} run(s), latest {entry['artifact']})"
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--suite", help="suite name or 'all'")
    parser.add_argument("--grid", type=int, help="points per grid axis")
    parser.add_argument("--hermite-K", type=int, dest="hermite_K", help="degree cutoff")
    parser.add_argument("--seed", type=int, help="seed for random instances")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--family", help="named test-function family")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="run, sweep, and report the numerical verification suites",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="execute one suite or all of them")
    _add_run_flags(run_parser)
    sweep_parser = commands.add_parser("sweep", help="rerun a suite along one axis")
    _add_run_flags(sweep_parser)
    sweep_parser.add_argument(
        "--axis", required=True, choices=sorted(SWEEP_AXES), help="resolution axis"
    )
    sweep_parser.add_argument(
        "--values", required=True, help="comma-separated axis values"
    )
    report_parser = commands.add_parser("report", help="merge run artifacts")
    report_parser.add_argument("--out", required=True, help="directory holding runs")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        "suite": args.suite,
        "grid_size": args.grid,
        "hermite_K": args.hermite_K,
        "seed": args.seed,
        "output_dir": args.out,
        "family": args.family,
    }
    return load_config(args.config, overrides)


def _parse_values(text: str) -> list[int]:
    pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
    _require(bool(pieces), "sweep needs at least one value")
    values = []
    for piece in pieces:
        try:
            values.append(int(piece))
        except ValueError:
            raise UsageError(f"sweep values must be integers, got {piece!r}") from None
    return values


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return report(args.out)
        config = _config_from_args(args)
        if args.command == "run":
            return run_suite(config)
        return sweep(config, args.axis, _parse_values(args.values))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - safety net for truly unexpected faults
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
