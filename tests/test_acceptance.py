"""Eleven headline properties, one verdict line each, at their stated allowances.

Every check and its allowance lives once, in :mod:`heislab.cli`: the
criteria call the check-group functions and suite drivers that ``lab run``
reports, and fail on any check record whose margin exceeds one (the suites'
default threshold).  What stays here is only what one suite run cannot
see: refinement between the 13- and 17-point grids, the doubling check of
the trace formula, and the runtime budgets.

Each test prints ``[criterion N] PASS`` or ``FAIL`` and then asserts, so a
verbose run shows one line per criterion either way.  Two module-scoped
fixtures run the fine-grid suites once each: ``bound_outcomes`` holds the
``bound`` suite at 13 and 17 points with its wall time (criteria 7 and 8),
and ``trace_outcomes`` the ``trace`` suite at (13, K=6) and (17, K=8)
(criteria 9 and 10, the Gram checks included).
"""

import time

import pytest

from heislab.cli import (
    HERMITE_PAIRS,
    RunConfig,
    _execute,
    closed_form_checks,
    dixmier_checks,
    doi_identity_checks,
    hermite_checks,
    radial_checks,
    weak_norm_checks,
)
from heislab.experiments import (
    SeededDraws,
    bochner_rhs,
    build_y_fibers,
    dixmier_lhs,
    named_family,
)
from heislab.grid import GridFunction, GridSpec
from heislab.oscillator import enumerate_basis


def _verdict(number, checks, failures=()):
    failures = [
        f"{c['name']} = {c['value']:.4g} against the {c['mode']} {c['allowed']:.4g}"
        for c in checks
        if c["margin"] > 1.0
    ] + list(failures)
    print(f"[criterion {number}] {'PASS' if not failures else 'FAIL'}")
    assert not failures, "; ".join(failures)


def _suite(suite, **settings):
    return _execute(suite, RunConfig(suite=suite, **settings))


def _value(outcome, name):
    return next(c["value"] for c in outcome.checks if c["name"] == name)


def _of_metric(outcomes, metric):
    return [c for outcome in outcomes for c in outcome.checks if c["metric"] == metric]


@pytest.fixture(scope="module")
def bound_outcomes():
    """The bound suite on both fine grids, with its wall time."""
    results = {}
    for count in (13, 17):
        started = time.perf_counter()
        outcome = _suite("bound", grid_size=count)
        results[count] = (outcome, time.perf_counter() - started)
    return results


@pytest.fixture(scope="module")
def trace_outcomes():
    return {
        count: _suite("trace", grid_size=count, hermite_K=cutoff)
        for count, cutoff in ((13, 6), (17, 8))
    }


def _timed(number, run, budget):
    started = time.perf_counter()
    checks = run()
    elapsed = time.perf_counter() - started
    over = [f"runtime {elapsed:.2f}s exceeds {budget:.0f}s"] if elapsed >= budget else []
    _verdict(number, checks, over)


def test_criterion_01_hermite_exactness():
    _timed(1, lambda: hermite_checks(HERMITE_PAIRS), 5.0)


def test_criterion_02_doi_exactness():
    _timed(2, lambda: doi_identity_checks(SeededDraws(42)), 5.0)


def test_criterion_03_closed_form_vs_quadrature():
    _verdict(3, closed_form_checks(SeededDraws(3)))


def test_criterion_04_radial_trace_and_incursion():
    _verdict(4, radial_checks())


def test_criterion_05_weak_norm_identity():
    _verdict(5, weak_norm_checks(SeededDraws(5)))


def test_criterion_06_grid_decomposition_identity():
    _verdict(6, _suite("grid", grid_size=13).checks)


def test_criterion_07_singular_value_decay(bound_outcomes):
    (coarse, time13), (fine, time17) = bound_outcomes[13], bound_outcomes[17]
    checks = _of_metric((coarse, fine), "slope_margin")
    failures = []
    # a slope check's value is the distance of the slope from -0.25
    for name in (c["name"] for c in _of_metric((coarse,), "slope_margin")):
        d13, d17 = _value(coarse, name), _value(fine, name)
        if d17 > d13:
            failures.append(
                f"{name} moves away from -0.25 under refinement ({d13:.4f} -> {d17:.4f})"
            )
    for count, elapsed in ((13, time13), (17, time17)):
        if elapsed > 600.0:
            failures.append(f"{count} grid took {elapsed:.0f}s, over the 10 min budget")
    _verdict(7, checks, failures)


def test_criterion_08_two_sided_bound(bound_outcomes):
    coarse, fine = bound_outcomes[13][0], bound_outcomes[17][0]
    spread13, spread17 = _value(coarse, "spread_bumps"), _value(fine, "spread_bumps")
    failures = []
    if spread17 > spread13:
        failures.append(
            f"ratio spread grew under refinement ({spread13:.4f} -> {spread17:.4f})"
        )
    _verdict(8, _of_metric((coarse, fine), "ratio_spread_margin"), failures)


def test_criterion_09_trace_formula(trace_outcomes):
    coarse, fine = trace_outcomes[13], trace_outcomes[17]
    variation13 = _value(coarse, "ratio_variation")
    variation17 = _value(fine, "ratio_variation")
    failures = []
    if variation17 >= variation13:
        failures.append(
            f"ratio variation did not decrease ({variation13:.4f} -> {variation17:.4f})"
        )
    spec = GridSpec.cube(13)
    fibers = build_y_fibers(enumerate_basis(1, 6), 1)
    f = named_family("trace", spec)["gauss_wide"]
    doubled = GridFunction(spec, 2.0 * f.values)
    rows = {row["label"]: row for row in coarse.extra["experiment"]["rows"]}
    base = rows["gauss_wide"]["ratio"]
    ratio2 = dixmier_lhs(doubled, 1, spec).value / bochner_rhs(doubled, fibers, spec)
    if abs(ratio2 - base) > 1e-12 * abs(base):
        failures.append(
            f"doubling the function moved the ratio ({base!r} -> {ratio2!r})"
        )
    _verdict(9, _of_metric((coarse, fine), "variation_margin"), failures)


def test_criterion_10_gram_and_coercivity(trace_outcomes):
    _verdict(10, _of_metric(trace_outcomes.values(), "gram_margin"))


def test_criterion_11_dixmier_calibration():
    _verdict(11, dixmier_checks())
