import math

import numpy as np
import pytest

from heislab import experiments
from heislab.experiments import (
    ExperimentReport,
    ExperimentRow,
    ExperimentSummary,
    ProductCase,
    YSymbolSet,
    bochner_norm,
    bochner_rhs,
    bochner_rhs_combined,
    bound_experiment,
    build_y_fibers,
    config_digest,
    dixmier_lhs,
    eigenvalue_trace_approximant,
    gram_min_eigenvalue,
    named_family,
    product_factor,
    product_trace_check,
    report_as_dict,
    theorem_combination,
    trace_formula_experiment,
    vertical_mixing_residual,
)
from heislab.grid import GridFunction, GridSpec, build_riesz
from heislab.oscillator import (
    enumerate_basis,
    fiber_identity,
    fiber_schatten_norm,
    riesz_symbol,
    tr_sigma,
)

SPEC = GridSpec.cube(9)
BASIS = enumerate_basis(1, 6)


def grid_fn(fn, spec=SPEC):
    return GridFunction.from_callable(spec, fn)


def wide_bump(spec=SPEC):
    return grid_fn(lambda x, y, t: np.exp(-0.5 * (x * x + y * y + t * t)), spec)


class TestSymbolFamily:
    def test_flat_diagonal(self):
        family = build_y_fibers(BASIS, 1)
        expect = (2.0 * np.arange(BASIS.dim) + 1.0) ** -0.5
        np.testing.assert_allclose(np.diag(family.flat.minus).real, expect, atol=1e-14)
        np.testing.assert_array_equal(family.flat.minus, family.flat.plus)

    def test_size_and_metadata(self):
        family = build_y_fibers(BASIS, 2)
        assert len(family.symbols) == 3
        assert family.ell == 2
        assert family.cutoff == 6
        assert family.basis == BASIS

    def test_second_half_carries_sign_split(self):
        family = build_y_fibers(BASIS, 1)
        np.testing.assert_allclose(
            family.symbols[2].minus, -family.symbols[2].plus, atol=1e-14
        )
        # the first-half symbol keeps equal blocks
        np.testing.assert_allclose(
            family.symbols[1].minus, family.symbols[1].plus, atol=1e-14
        )

    def test_flat_mass_limit(self):
        family = build_y_fibers(enumerate_basis(1, 40), 1)
        mass = fiber_schatten_norm(family.flat, 4.0) ** 4
        assert mass == pytest.approx(math.pi**2 / 4.0, rel=1e-2)

    def test_small_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            build_y_fibers(enumerate_basis(1, 3), 1)

    def test_theorem_combination_absorbs_flat(self):
        family = build_y_fibers(BASIS, 1)
        combined = theorem_combination(family)
        assert len(combined) == 2
        np.testing.assert_allclose(
            combined[0].minus,
            family.symbols[1].minus + family.flat.minus,
            atol=1e-14,
        )
        np.testing.assert_array_equal(combined[1].minus, family.symbols[2].minus)


class TestBochner:
    def test_single_term_factorizes(self):
        family = build_y_fibers(BASIS, 1)
        f = wide_bump()
        coeff = np.zeros((SPEC.size, 3), dtype=complex)
        coeff[:, 0] = f.flat
        value = bochner_norm(coeff, family.symbols, SPEC.cell_volume)
        expect = f.norm_lp(4.0) ** 4 * fiber_schatten_norm(family.flat, 4.0) ** 4
        assert value == pytest.approx(expect, rel=1e-12)

    def test_zero_coefficients(self):
        family = build_y_fibers(BASIS, 1)
        coeff = np.zeros((SPEC.size, 3), dtype=complex)
        assert bochner_norm(coeff, family.symbols, SPEC.cell_volume) == 0.0

    def test_shape_guard(self):
        family = build_y_fibers(BASIS, 1)
        with pytest.raises(ValueError, match="coefficient array"):
            bochner_norm(np.zeros((SPEC.size, 2)), family.symbols, 1.0)

    def test_basis_mismatch(self):
        family = build_y_fibers(BASIS, 1)
        other = build_y_fibers(enumerate_basis(1, 8), 1)
        mixed = [family.symbols[0], other.symbols[1], family.symbols[2]]
        with pytest.raises(ValueError, match="different bases"):
            bochner_norm(np.zeros((SPEC.size, 3), dtype=complex), mixed, 1.0)

    def test_homogeneity_sixteen_exact(self):
        family = build_y_fibers(BASIS, 1)
        f = wide_bump()
        doubled = GridFunction(SPEC, 2.0 * f.values)
        assert bochner_rhs(doubled, family, SPEC) == pytest.approx(
            16.0 * bochner_rhs(f, family, SPEC), rel=1e-13
        )

    def test_combined_assembly_matches(self):
        family = build_y_fibers(BASIS, 1)
        f = grid_fn(lambda x, y, t: x * np.exp(-(x * x + y * y + t * t)))
        assert bochner_rhs_combined(f, family, SPEC) == pytest.approx(
            bochner_rhs(f, family, SPEC), rel=1e-12
        )


class TestGram:
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("cutoff", [4, 6, 8])
    def test_independent_family(self, ell, cutoff):
        report = gram_min_eigenvalue(build_y_fibers(enumerate_basis(1, cutoff), ell))
        assert report.min_eigenvalue > 1e-6
        assert report.coercivity > 0.0
        assert report.independent

    def test_duplicate_detected(self):
        family = build_y_fibers(BASIS, 1)
        rigged = YSymbolSet(
            1, 6, (family.flat, family.flat, family.symbols[2])
        )
        report = gram_min_eigenvalue(rigged, samples=20)
        assert abs(report.min_eigenvalue) <= 1e-10
        assert not report.independent

    def test_seeded_determinism(self):
        family = build_y_fibers(BASIS, 1)
        a = gram_min_eigenvalue(family, samples=40, seed=7)
        b = gram_min_eigenvalue(family, samples=40, seed=7)
        assert a == b


class TestDixmierLhs:
    def test_positive_with_band(self):
        est = dixmier_lhs(wide_bump(), 1, SPEC)
        assert est.value > 0.0
        assert est.band[0] <= est.value <= est.band[1]
        assert est.window >= 50

    def test_constant_gives_zero(self):
        c = grid_fn(lambda x, y, t: 3.0 * np.ones_like(x))
        est = dixmier_lhs(c, 1, SPEC)
        assert est.value == 0.0

    def test_homogeneity_exact(self):
        f = wide_bump()
        doubled = GridFunction(SPEC, 2.0 * f.values)
        assert dixmier_lhs(doubled, 1, SPEC).value == 16.0 * dixmier_lhs(f, 1, SPEC).value

    def test_tiny_rank_rejected(self):
        values = np.zeros(SPEC.shape)
        values[4, 4, 4] = 1.0
        with pytest.raises(ValueError, match="window too small"):
            dixmier_lhs(GridFunction(SPEC, values), 1, SPEC)


class TestBoundExperiment:
    def test_family_ratios(self):
        report = bound_experiment(SPEC, named_family("bumps", SPEC), 1)
        assert len(report.rows) == 5
        ratios = [row.ratio for row in report.rows]
        assert max(ratios) / min(ratios) <= 8.0
        assert all(row.slope < 0.0 for row in report.rows)
        assert report.summary == report.recomputed_summary()

    def test_scaling_pair_identical(self):
        f = wide_bump()
        family = {"f": f, "2f": GridFunction(SPEC, 2.0 * f.values)}
        report = bound_experiment(SPEC, family, 1)
        r0, r1 = (row.ratio for row in report.rows)
        assert r0 == pytest.approx(r1, rel=1e-12)

    def test_constant_excluded(self):
        family = dict(named_family("trace", SPEC))
        family["flat"] = grid_fn(lambda x, y, t: np.ones_like(x))
        report = bound_experiment(SPEC, family, 1)
        assert "flat" in report.excluded
        assert all(row.label != "flat" for row in report.rows)

    def test_degenerate_family_rejected(self):
        family = {"c1": grid_fn(lambda x, y, t: np.ones_like(x))}
        with pytest.raises(ValueError, match="degenerate"):
            bound_experiment(SPEC, family, 1)


class TestTraceFormula:
    def test_ratio_consistency(self):
        report = trace_formula_experiment(
            named_family("trace", SPEC), 1, SPEC, BASIS
        )
        assert report.summary.variation <= 0.5
        assert all(row.ratio > 0.0 for row in report.rows)

    def test_scaling_pair(self):
        f = wide_bump()
        family = {
            "f": f,
            "2f": GridFunction(SPEC, 2.0 * f.values),
            "g": grid_fn(lambda x, y, t: x * np.exp(-(x * x + y * y + t * t))),
        }
        report = trace_formula_experiment(family, 1, SPEC, BASIS)
        by_label = {row.label: row.ratio for row in report.rows}
        assert by_label["f"] == pytest.approx(by_label["2f"], rel=1e-12)

    def test_needs_three(self):
        with pytest.raises(ValueError, match="at least 3"):
            trace_formula_experiment({"f": wide_bump()}, 1, SPEC, BASIS)


class TestProductTrace:
    def test_identity_factor_reduction(self):
        fs = tuple(
            grid_fn(fn)
            for fn in (
                lambda x, y, t: np.exp(-0.5 * (x * x + y * y + t * t)),
                lambda x, y, t: np.exp(-(x * x + y * y + t * t)),
                lambda x, y, t: np.exp(-1.5 * (x * x + y * y + t * t)),
                lambda x, y, t: np.exp(-2.0 * (x * x + y * y + t * t)),
            )
        )
        case = ProductCase("identity_case", fs, ("identity",) * 4)
        report = product_trace_check([case], SPEC, BASIS)
        integral = SPEC.cell_volume * float(
            np.sum(fs[0].values * fs[1].values * fs[2].values * fs[3].values)
        )
        assert report.rows[0].rhs == pytest.approx(2 * BASIS.dim * integral, rel=1e-12)

    def test_zero_function_excluded(self):
        f = wide_bump()
        zero = GridFunction(SPEC, np.zeros(SPEC.shape))
        cases = [
            ProductCase("zeroed", (f, zero, f, f), ("flat_factor",) * 4),
            ProductCase("live", (f, f, f, f), ("flat_factor",) * 4),
        ]
        report = product_trace_check(cases, SPEC, BASIS)
        assert report.excluded == ("zeroed",)
        assert len(report.rows) == 1

    def test_catalog_spread(self, monkeypatch):
        resolved = []

        def counting_factor(spec, basis, name):
            resolved.append(name)
            return product_factor(spec, basis, name)

        monkeypatch.setattr(experiments, "product_factor", counting_factor)
        fam = named_family("product", SPEC)
        g1, g2, g3, ring = (fam[k] for k in ("gauss_wide", "gauss_mid",
                                             "gauss_narrow", "ring"))
        cases = [
            ProductCase("all_flat", (g1, g2, g3, g1), ("flat_factor",) * 4),
            ProductCase(
                "riesz_mix",
                (g1, g2, g3, ring),
                ("flat_factor", "riesz:1", "flat_factor", "riesz:1"),
            ),
            ProductCase(
                "symbol_mix",
                (g2, g1, g3, g1),
                ("flat_factor", "a:1", "flat_factor", "a:1"),
            ),
        ]
        report = product_trace_check(cases, SPEC, BASIS)
        assert len(report.rows) == 3
        assert report.summary.variation <= 0.5
        # each distinct factor name is realized once per call
        assert sorted(resolved) == ["a:1", "flat_factor", "riesz:1"]

    def test_wrong_arity(self):
        f = wide_bump()
        case = ProductCase("short", (f, f), ("identity", "identity"))
        with pytest.raises(ValueError, match="needs 4 functions"):
            product_trace_check([case], SPEC, BASIS)
        with pytest.raises(ValueError, match="factor name per function"):
            ProductCase("bad", (f, f, f, f), ("identity",))

    def test_unknown_factor(self):
        with pytest.raises(ValueError, match="no fiber counterpart"):
            product_factor(SPEC, BASIS, "mystery")
        with pytest.raises(ValueError, match="outside"):
            product_factor(SPEC, BASIS, "a:3")

    def test_factor_catalog_matches_components(self):
        grid_mat, fiber = product_factor(SPEC, BASIS, "identity")
        np.testing.assert_array_equal(grid_mat, np.eye(SPEC.size))
        assert tr_sigma(fiber).real == pytest.approx(2 * BASIS.dim)

        grid_mat, fiber = product_factor(SPEC, BASIS, "riesz:2")
        np.testing.assert_array_equal(grid_mat, build_riesz(SPEC, 2).matrix)
        np.testing.assert_array_equal(fiber.minus, riesz_symbol(BASIS, 2).minus)

        grid_mat, _ = product_factor(SPEC, BASIS, "a:1")
        assert np.linalg.norm(grid_mat, 2) <= 1.2

    def test_vertical_mixing_is_negligible(self):
        # the grid sub-Laplacian commutes with the vertical derivative
        # exactly, so the flat factor's two spectral pieces nearly commute
        assert vertical_mixing_residual(SPEC) <= 1e-10


class TestEigenvalueApproximant:
    def test_harmonic_calibration(self):
        eigs = 1.0 / np.arange(1.0, 10001.0)
        assert eigenvalue_trace_approximant(eigs) == pytest.approx(1.0, abs=0.15)

    def test_zero_input(self):
        assert eigenvalue_trace_approximant(np.zeros(5)) == 0.0

    def test_window_control(self):
        eigs = 1.0 / np.arange(1.0, 101.0)
        full = eigenvalue_trace_approximant(eigs)
        short = eigenvalue_trace_approximant(eigs, window=10)
        assert short != full
        assert short == pytest.approx(
            float(np.sum(eigs[:10])) / math.log(12.0)
        )


class TestReportPlumbing:
    def _rows(self):
        return (
            ExperimentRow("a", 1.0, 2.0, 0.5),
            ExperimentRow("b", 2.0, 3.0, 2.0 / 3.0),
        )

    def test_summary_recompute(self):
        rows = self._rows()
        summary = ExperimentSummary.from_rows(rows)
        report = ExperimentReport("abc", rows, summary)
        assert report.recomputed_summary() == summary
        assert summary.min_ratio == 0.5
        assert summary.max_ratio == pytest.approx(2.0 / 3.0)

    def test_positive_ratio_enforced(self):
        rows = (ExperimentRow("bad", 1.0, -2.0, -0.5),)
        with pytest.raises(ValueError, match="positive"):
            ExperimentReport("abc", rows, ExperimentSummary(1.0, 1.0, 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentReport("abc", (), ExperimentSummary(1.0, 1.0, 0.0))

    def test_digest_is_order_insensitive(self):
        assert config_digest({"a": 1, "b": [2, 3]}) == config_digest(
            {"b": [2, 3], "a": 1}
        )
        assert len(config_digest({})) == 12

    def test_round_trip_dict(self):
        rows = (ExperimentRow("a", 1.0, 2.0, 0.5, -0.25),)
        report = ExperimentReport("abc", rows, ExperimentSummary.from_rows(rows))
        payload = report_as_dict(report)
        assert payload["rows"][0]["slope"] == -0.25

    def test_sweep_attachment(self):
        rows = self._rows()
        report = ExperimentReport("abc", rows, ExperimentSummary.from_rows(rows))
        swept = report.with_sweep([(13.0, 0.4), (17.0, 0.3)])
        assert swept.sweep == ((13.0, 0.4), (17.0, 0.3))
        assert report.sweep == ()


class TestNamedFamilies:
    def test_known_sets(self):
        assert len(named_family("bumps", SPEC)) == 5
        assert len(named_family("trace", SPEC)) == 3
        assert len(named_family("decay", SPEC)) == 3
        assert len(named_family("product", SPEC)) == 4

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown family"):
            named_family("nope", SPEC)

    def test_materialized_on_spec(self):
        fam = named_family("bumps", GridSpec.cube(7))
        assert all(f.spec.nx == 7 for f in fam.values())
