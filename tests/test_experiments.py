import hashlib
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from heislab import experiments, oscillator
from heislab.cli import RunConfig
from heislab.experiments import (
    ExperimentReport,
    ExperimentRow,
    ExperimentSummary,
    ProductCase,
    SeededDraws,
    YSymbolSet,
    bochner_norm,
    bochner_rhs,
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
    trace_formula_experiment,
)
from heislab.grid import (
    GridFunction,
    GridSpec,
    _GridModel,
    _model,
    _reflection_components,
    quarter_rotation,
)
from heislab.schatten import CLAMP_RATIO, singular_values
from heislab.oscillator import (
    FiberOperator,
    enumerate_basis,
    riesz_symbol,
)
from heislab.plancherel import weak_norm_lift

from oracles import (
    assembled_power,
    assembled_product_factor,
    dense_product_eigenvalues,
    dense_riesz,
    fiber_schatten_norm,
    loop_coercivity,
    norm_lp,
    recorded_eigenvalues,
    recorded_svd_shapes,
)

SPEC = GridSpec.cube(9)
BASIS = enumerate_basis(1, 6)


def grid_fn(fn, spec=SPEC):
    return GridFunction.from_callable(spec, fn)


def wide_bump(spec=SPEC):
    return grid_fn(lambda x, y, t: np.exp(-0.5 * (x * x + y * y + t * t)), spec)


def theorem_combination(family):
    """The k = 1, 2 combination that absorbs the flat factor into slot ℓ."""
    out = list(family.symbols[1:])
    slot, flat = out[family.ell - 1], family.flat
    out[family.ell - 1] = FiberOperator(
        family.basis, slot.minus + flat.minus, slot.plus + flat.plus
    )
    return tuple(out)


def bochner_rhs_combined(f, family, spec):
    """Oracle of ``bochner_rhs``: the same mass through the k >= 1
    combination, with no separate flat column."""
    model = _model(spec)
    grads = [np.conj(model.apply_field(k, f.flat)) for k in (1, 2)]
    coeff = np.stack(grads, axis=1)
    return bochner_norm(coeff, theorem_combination(family), spec.cell_volume, 4.0)


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
        expect = norm_lp(f, 4.0) ** 4 * fiber_schatten_norm(family.flat, 4.0) ** 4
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

    def test_duplicate_detected(self):
        family = build_y_fibers(BASIS, 1)
        rigged = YSymbolSet(1, (family.flat, family.flat, family.symbols[2]))
        report = gram_min_eigenvalue(rigged, samples=20)
        assert abs(report.min_eigenvalue) <= 1e-10

    def test_seeded_determinism(self):
        family = build_y_fibers(BASIS, 1)
        a = gram_min_eigenvalue(family, samples=40, seed=7)
        b = gram_min_eigenvalue(family, samples=40, seed=7)
        assert a == b

    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("cutoff", [4, 6, 8])
    def test_batched_coercivity_matches_loop_oracle(self, cutoff, ell, seed):
        family = build_y_fibers(enumerate_basis(1, cutoff), ell)
        report = gram_min_eigenvalue(family, seed=seed)
        assert report.coercivity == pytest.approx(
            loop_coercivity(family, seed=seed), rel=1e-14
        )

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_empty_sampling(self, samples):
        # no sample would leave the coercivity at inf, which passes its floor
        with pytest.raises(ValueError, match="at least one sample"):
            gram_min_eigenvalue(build_y_fibers(BASIS, 1), samples=samples)


def test_fiber_side_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the fiber side called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    family = build_y_fibers(BASIS, 1)
    assert gram_min_eigenvalue(family, samples=20).coercivity > 0.0
    coeff = np.ones((4, len(family.symbols)), dtype=complex)
    assert bochner_norm(coeff, family.symbols, 1.0) > 0.0
    assert weak_norm_lift(family.flat, 1)[0] > 0.0


class TestDixmierLhs:
    def test_positive_with_band(self):
        est = dixmier_lhs(wide_bump(), 1, SPEC)
        assert est.value > 0.0
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


def oracle_functions(spec):
    """Every function of the families whose commutator spectra are reported."""
    return {
        label: f
        for name in ("bumps", "decay", "trace")
        for label, f in named_family(name, spec).items()
    }


# functions without exact parity, by their number of reflection components
# (the rounding of (1 + x) + y may add a fourth of rounding size)
MIXED_PARITY = {
    "two": lambda x, y, t: np.exp(-((x - 0.7) ** 2 + y * y + t * t)),
    "three": lambda x, y, t: (1.0 + x + y) * np.exp(-(x * x + y * y + t * t)),
    "four": lambda x, y, t: np.exp(-((x - 0.7) ** 2 + (y - 0.4) ** 2 + (t - 0.3) ** 2)),
}


def mixed_functions(spec):
    return {label: GridFunction.from_callable(spec, fn) for label, fn in MIXED_PARITY.items()}


def dense_commutator(riesz, f):
    """Oracle for the commutator spectrum: the dense N x N matrix of
    ``[R_ell, M_f]``, entrywise ``R_ij (f_j - f_i)``, from the dense
    ``R_ell`` (``dense_riesz``)."""
    vals = f.flat
    out = vals[None, :] - vals[:, None]
    out *= riesz
    return out


# The oracle functions that the quarter turn U leaves invariant.  On the
# cube ``U^T X_1 U = X_2`` exactly and U commutes with -Delta, so for them
# ``[R_2, M_f] = U^T [R_1, M_f] U`` and the dense ell = 1 singular values
# are the ell = 2 oracle too.
QUARTER_TURN_INVARIANT = ("gauss_wide", "gauss_mid", "gauss_narrow", "vertical")


@pytest.fixture(scope="class")
def first_field_spectra():
    """The dense ell = 1 singular values of the invariant functions, keyed
    (spec, label), shared by the ell = 1 and ell = 2 comparisons of a
    class."""
    return {}


def assert_matches_dense_svd(spec, ell, first_field_spectra):
    functions = {**oracle_functions(spec), **mixed_functions(spec)}
    source, _ = quarter_rotation(spec)
    riesz = {}

    def dense_values(k, f):
        if k not in riesz:
            riesz[k] = dense_riesz(spec, k)
        return np.linalg.svd(dense_commutator(riesz[k], f), compute_uv=False)

    for label, f in functions.items():
        spectrum, health = _model(spec).commutator_spectrum(ell, f)
        if label in QUARTER_TURN_INVARIANT:
            assert np.array_equal(f.flat[source], f.flat), label
            key = (spec, label)
            if key not in first_field_spectra:
                first_field_spectra[key] = dense_values(1, f)
            dense = first_field_spectra[key]
        else:
            dense = dense_values(ell, f)
        oracle = np.where(dense < CLAMP_RATIO * dense[0], 0.0, dense)
        assert (health["sector"] == "full") == (label in MIXED_PARITY), label
        assert len(spectrum) == spec.size
        assert np.abs(spectrum.values - oracle).max() <= 1e-13 * dense[0], label
        assert np.count_nonzero(spectrum.values) == np.count_nonzero(oracle), label


def components_of(spec, f):
    return _reflection_components(f.flat[_model(spec).sectors().table])


def assert_pieces(monkeypatch, label, components, pieces):
    """The mixed-parity function ``label`` has ``components`` reflection
    components, and its spectrum takes ``pieces`` SVDs covering the N rows
    and columns, with the dense oracle's values."""
    f = mixed_functions(SPEC)[label]
    assert len(components_of(SPEC, f)) == components
    # a cold model: a warm one returns its stored spectrum without an SVD
    model = _GridModel(SPEC)
    shapes = recorded_svd_shapes(monkeypatch)
    spectrum, health = model.commutator_spectrum(1, f)
    assert health["sector"] == "full"
    assert len(shapes) == pieces
    assert sum(shape[0] for shape in shapes) == SPEC.size
    assert sum(shape[1] for shape in shapes) == SPEC.size
    full = singular_values(dense_commutator(dense_riesz(SPEC, 1), f))
    assert np.abs(spectrum.values - full.values).max() <= 1e-13 * full.values[0]


class TestCommutatorSpectrum:
    """The sector-and-colour spectrum against the dense SVD oracle."""

    @pytest.mark.parametrize("count", [9, 13])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_sectors_match_dense_svd(self, count, ell, first_field_spectra):
        assert_matches_dense_svd(GridSpec.cube(count), ell, first_field_spectra)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_even_count_matches_dense_svd(self, ell, first_field_spectra):
        # an even count has no reflection-fixed point and no kernel
        assert_matches_dense_svd(GridSpec.cube(10), ell, first_field_spectra)

    @pytest.mark.parametrize("count", [9, 13, 10])
    def test_blocks_split_rows_and_columns(self, count):
        # every component gives one block per sector and colour class, and
        # its blocks hold N rows and N columns
        spec = GridSpec.cube(count)
        model = _model(spec)
        functions = {**oracle_functions(spec), **mixed_functions(spec)}
        for label, f in functions.items():
            components = components_of(spec, f)
            for ell in (1, 2):
                blocks = [
                    block
                    for c in range(len(model.sectors().classes))
                    for block in model.commutator_blocks(
                        ell, components, c, model.inverse_root_blocks(c)
                    )
                ]
                for eps in components:
                    own = [block.matrix for block in blocks if block.eps == eps]
                    assert len(own) == 8, label
                    assert sum(m.shape[0] for m in own) == spec.size, label
                    assert sum(m.shape[1] for m in own) == spec.size, label

    @pytest.mark.parametrize("count", [9, 13])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_constants_give_exact_zeros(self, count, ell):
        # the zero function has no reflection component at all
        spec = GridSpec.cube(count)
        zero = GridFunction(spec, np.zeros(spec.shape))
        for label, f in {**named_family("constants", spec), "zero": zero}.items():
            spectrum, health = _model(spec).commutator_spectrum(ell, f)
            assert health["sector"] != "full", label
            assert len(spectrum) == spec.size, label
            assert np.all(spectrum.values == 0.0), label

    def test_parity_path_forms_no_commutator(self, monkeypatch):
        # a function of exact parity is decomposed one sector block at a time
        model = _GridModel(SPEC)
        shapes = recorded_svd_shapes(monkeypatch)
        for f in oracle_functions(SPEC).values():
            model.commutator_spectrum(1, f)
        assert len(shapes) == 8 * len(oracle_functions(SPEC))
        assert max(max(shape) for shape in shapes) < SPEC.size // 4

    def test_health_record(self):
        f = grid_fn(lambda x, y, t: x * np.exp(-(x * x + y * y + t * t)))
        spectrum, health = _model(SPEC).commutator_spectrum(1, f)
        # R_1 and the odd-in-x function both have character (+,-)
        assert health["sector"] == "++"
        assert health["clamped"] == spectrum.clamped
        kept = spectrum.values[spectrum.values > 0.0]
        assert health["min_kept_ratio"] == kept[-1] / kept[0]

    def test_spectrum_is_kept_read_only(self, monkeypatch):
        # a second call, from any experiment, returns the stored spectrum
        # without another SVD
        f = grid_fn(lambda x, y, t: x * np.exp(-(x * x + y * y + t * t)))
        model = _GridModel(SPEC)
        first = model.commutator_spectrum(1, f)
        shapes = recorded_svd_shapes(monkeypatch)
        again = model.commutator_spectrum(1, GridFunction(SPEC, f.values.copy()))
        assert again is first
        assert shapes == []
        spectrum, health = first
        with pytest.raises(TypeError):
            health["sector"] = "full"
        with pytest.raises(ValueError):
            spectrum.values[0] = 0.0
        # another field or function is another spectrum
        assert model.commutator_spectrum(2, f) is not first
        assert model.commutator_spectrum(1, wide_bump()) is not first

    def test_function_from_another_grid_is_rejected(self):
        # the orbit table of 9^3 would read a 13^3 function's values at the
        # wrong points and give wrong ratios without an error
        other = GridSpec.cube(13)
        with pytest.raises(ValueError, match="different grid"):
            bound_experiment(SPEC, named_family("bumps", other), 1)
        with pytest.raises(ValueError, match="different grid"):
            trace_formula_experiment(named_family("trace", other), 1, SPEC, BASIS)

    def test_no_parity_takes_the_full_matrix(self, monkeypatch):
        # two components pair the sectors of each colour class: two SVDs
        # per class, and none of the N x N matrix
        assert_pieces(monkeypatch, "two", 2, 4)

    def test_four_components_take_one_piece_per_class(self, monkeypatch):
        assert_pieces(monkeypatch, "four", 4, 2)

    def test_family_call_equals_one_function_calls(self, monkeypatch):
        # a family call reads each colour class of the inverse root once for
        # all its functions; its spectra and health records equal those of
        # one call per function, bit for bit, for functions of exact parity
        # and one with four reflection components
        family = {**oracle_functions(SPEC), "four": mixed_functions(SPEC)["four"]}
        assert len(components_of(SPEC, family["four"])) == 4
        model = _GridModel(SPEC)
        read = model.inverse_root_blocks
        classes = []

        def counting_read(c):
            classes.append(c)
            return read(c)

        monkeypatch.setattr(model, "inverse_root_blocks", counting_read)
        together = model.commutator_spectra(1, family)
        assert classes == [0, 1]
        single = _GridModel(SPEC)
        assert list(together) == list(family)
        for label, f in family.items():
            spectrum, health = together[label]
            expected, expected_health = single.commutator_spectrum(1, f)
            assert np.array_equal(spectrum.values, expected.values), label
            assert spectrum.clamped == expected.clamped, label
            assert dict(health) == dict(expected_health), label
        # a second family call finds every spectrum kept and reads no class
        assert model.commutator_spectra(1, family) == together
        assert classes == [0, 1]

    def test_grid_11_rows_take_the_sector_path(self):
        # 11 is a size where np.linspace axes are not exactly antisymmetric
        spec = GridSpec.cube(11)
        report = bound_experiment(spec, named_family("bumps", spec), 1)
        assert [row.spectrum["sector"] for row in report.rows] == [
            "+-", "+-", "+-", "++", "-+"
        ]


class TestBoundExperiment:
    def test_family_ratios(self):
        report = bound_experiment(SPEC, named_family("bumps", SPEC), 1)
        assert len(report.rows) == 5
        ratios = [row.ratio for row in report.rows]
        assert max(ratios) / min(ratios) <= 8.0
        assert all(row.slope < 0.0 for row in report.rows)
        assert report.summary == ExperimentSummary.from_rows(report.rows)

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

    def test_subreport_equals_direct_run(self):
        # a sub-family run gives the rows of the larger run, read off the
        # stored spectra
        family = dict(named_family("trace", SPEC))
        family["flat"] = grid_fn(lambda x, y, t: np.ones_like(x))
        union = bound_experiment(SPEC, family, 1)
        labels = ["flat", "gauss_narrow", "gauss_wide"]
        direct = bound_experiment(SPEC, {k: family[k] for k in labels}, 1)
        assert direct.excluded == ("flat",)
        by_label = {row.label: row for row in union.rows}
        assert all(row == by_label[row.label] for row in direct.rows)


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

    def test_duplicate_labels_rejected(self):
        f = wide_bump()
        case = ProductCase("twice", (f, f, f, f), ("flat_factor",) * 4)
        with pytest.raises(ValueError, match="distinct"):
            product_trace_check([case, case], SPEC, BASIS)

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
        case = ProductCase("short", (f, f), ("flat_factor", "flat_factor"))
        with pytest.raises(ValueError, match="needs 4 functions"):
            product_trace_check([case], SPEC, BASIS)
        with pytest.raises(ValueError, match="factor name per function"):
            ProductCase("bad", (f, f, f, f), ("flat_factor",))

    def test_unknown_factor(self):
        for name in ("mystery", "identity"):
            with pytest.raises(ValueError, match="no fiber counterpart"):
                product_factor(SPEC, BASIS, name)
        with pytest.raises(ValueError, match="outside"):
            product_factor(SPEC, BASIS, "a:3")
        with pytest.raises(ValueError, match="outside"):
            product_factor(SPEC, BASIS, "riesz:0")

    @pytest.mark.parametrize("shape", [(9, 3.0), (10, 2.5)])
    def test_flat_factor_matches_kronecker_oracle(self, shape):
        # the dense oracle's flat factor, which the sector blocks are
        # checked against, is the Kronecker product of the vertical root
        spec = GridSpec(*shape)
        model = _model(spec)
        inverse_root = assembled_power(model, -0.5)
        oracle = inverse_root @ np.kron(np.eye(spec.count**2), model.vertical_quarter_root())
        grid_mat, _ = assembled_product_factor(spec, BASIS, "flat_factor", inverse_root)
        assert np.linalg.norm(grid_mat - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_factor_catalog_matches_components(self):
        model = _model(SPEC)
        blocks, fiber = product_factor(SPEC, BASIS, "riesz:2")
        # gathered anew from the stencil rows, one colour class of the
        # inverse root's blocks at a time, as the model gathers its Riesz
        # rows
        for c, (rows, _) in enumerate(model.sectors().classes):
            inverse = model.inverse_root_blocks(c)
            every = np.arange(rows.size)
            for k, per_sector in enumerate(blocks):
                expected = model.riesz_block(2, k, c, inverse, every)
                assert np.array_equal(per_sector[c], expected)
        np.testing.assert_array_equal(fiber.minus, riesz_symbol(BASIS, 2).minus)

        # the sector blocks are compressions of the grid operator to
        # orthonormal bases, so none has a larger norm
        blocks, _ = product_factor(SPEC, BASIS, "a:1")
        assert max(np.linalg.norm(b, 2) for per in blocks for b in per) <= 1.2

    def test_vanishing_fiber_mass_with_a_live_estimate_is_rejected(self, monkeypatch):
        # a trace factor of 0 makes the right side vanish while the
        # eigenvalue sum of the product stays at the scale of its terms;
        # the check imports tr_sigma from the oscillator module when it runs
        monkeypatch.setattr(oscillator, "tr_sigma", lambda op: 0j)
        f = wide_bump()
        case = ProductCase("forced", (f, f, f, f), ("flat_factor",) * 4)
        with pytest.raises(ValueError, match="inconsistent row 'forced'"):
            product_trace_check([case], SPEC, BASIS)


# (count, half_width): an odd and an even count, and an odd count at a second
# spacing
PRODUCT_SHAPES = [(9, 3.0), (10, 2.5), (9, 2.5)]


def product_cases(spec, family):
    """The shipped catalog on the family's first functions, as ``lab run
    --suite product`` builds it; on ``bumps``, whose fourth function is odd
    in x, also a Riesz pair on it and a case on the sum of the family, which
    has no parity at all."""
    fam = list(named_family(family, spec).values())
    g1, g2, g3, g4 = fam[:4]
    cases = [
        ProductCase("all_flat", (g1, g2, g3, g1), ("flat_factor",) * 4),
        ProductCase(
            "riesz_mix",
            (g1, g2, g3, g4),
            ("flat_factor", "riesz:1", "flat_factor", "riesz:1"),
        ),
        ProductCase(
            "symbol_mix", (g2, g1, g3, g1), ("flat_factor", "a:1", "flat_factor", "a:1")
        ),
    ]
    if family == "bumps":
        mixed = GridFunction(spec, sum(f.values for f in fam))
        cases += [
            ProductCase(
                "riesz_pair",
                (g1, g4, g2, g4),
                ("flat_factor", "riesz:2", "flat_factor", "riesz:2"),
            ),
            ProductCase(
                "mixed",
                (mixed, g2, mixed, g3),
                ("riesz:2", "flat_factor", "a:2", "flat_factor"),
            ),
        ]
    return cases


class TestProductPieces:
    """The piecewise eigenvalues of ``product_trace_check`` against one dense
    ``eigvals`` of the N x N product (``dense_product_eigenvalues``)."""

    @pytest.mark.parametrize("family", ["product", "bumps"])
    @pytest.mark.parametrize("shape", PRODUCT_SHAPES)
    def test_rows_match_dense_eigvals(self, shape, family):
        spec = GridSpec(*shape)
        cases = product_cases(spec, family)
        dense = dense_product_eigenvalues(cases, spec, BASIS)
        report = product_trace_check(cases, spec, BASIS)
        rows = {row.label: row for row in report.rows}
        for label, eigs in dense.items():
            lhs = eigenvalue_trace_approximant(eigs)
            if label in report.excluded:
                assert abs(lhs) < 1e-12
                continue
            row = rows[label]
            # a sum that cancels (the riesz_mix row of bumps, whose odd
            # function gives it an odd character) is held to the scale of
            # its terms, the approximant of the moduli
            scale = eigenvalue_trace_approximant(np.abs(eigs))
            assert row.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12 * scale)
            mods = np.abs(eigs)
            assert row.spectrum["usable"] == np.count_nonzero(
                mods > CLAMP_RATIO * mods.max()
            )
            assert sum(row.spectrum["pieces"]) == spec.size

    @pytest.mark.parametrize("shape", PRODUCT_SHAPES)
    def test_odd_colour_flips_match_dense_eigvals(self, shape, monkeypatch):
        # one colour-flipping factor: each piece holds both colour classes
        # of a coset, and the trace vanishes, so the row is excluded and the
        # eigenvalues are compared one by one
        spec = GridSpec(*shape)
        fam = list(named_family("bumps", spec).values())
        g1, g2, g3, g4 = fam[:4]
        odd = ProductCase(
            "odd_flips", (g1, g4, g2, g4),
            ("flat_factor", "riesz:1", "flat_factor", "flat_factor"),
        )
        live = ProductCase("all_flat", (g1, g2, g3, g1), ("flat_factor",) * 4)
        dense = np.abs(dense_product_eigenvalues([odd], spec, BASIS)["odd_flips"])
        pieces = recorded_eigenvalues(monkeypatch)
        report = product_trace_check([odd, live], spec, BASIS)
        assert report.excluded == ("odd_flips",)
        count = len(report.rows[0].spectrum["pieces"])
        # g4 (odd in x) and riesz:1 share the character (1, -1): two
        # cosets, each one piece holding every colour
        assert len(pieces) - count == 2
        mods = np.abs(np.concatenate(pieces[:-count]))
        assert mods.size == spec.size
        dense, mods = np.sort(dense)[::-1], np.sort(mods)[::-1]
        assert np.count_nonzero(mods > CLAMP_RATIO * mods[0]) == np.count_nonzero(
            dense > CLAMP_RATIO * dense[0]
        )
        np.testing.assert_allclose(mods, dense, rtol=0.0, atol=1e-12 * dense[0])


class TestEigenvalueApproximant:
    def test_harmonic_calibration(self):
        eigs = 1.0 / np.arange(1.0, 10001.0)
        assert eigenvalue_trace_approximant(eigs) == pytest.approx(1.0, abs=0.15)

    def test_zero_input(self):
        assert eigenvalue_trace_approximant(np.zeros(5)) == 0.0


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
        assert ExperimentSummary.from_rows(report.rows) == summary
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

    DIGEST_PAYLOADS = (
        {"a": {"b": [1, {"c": None}]}, "d": [[2, 3], []]},
        {"x": 1.5, "tiny": 2e-300, "big": float("inf"), "neg": -0.0},
        {"σ": "Ẇ^{1,4}", "Ẇ": ["σ", 4]},
    )

    def test_digest_is_sha256_of_the_canonical_text(self):
        for payload in self.DIGEST_PAYLOADS:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            expected = hashlib.sha256(text.encode()).hexdigest()[:12]
            assert config_digest(payload) == expected

    def test_default_bound_digest_is_pinned(self):
        # the artifact name of a default bound run, bound_<digest>.json
        assert config_digest(RunConfig().canonical("bound")) == "43dbed00a98e"

    def test_digest_falls_back_without_the_builtin_module(self):
        # an interpreter without _sha2 and _sha256 takes hashlib's sha256
        script = f"""
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from heislab import experiments
from heislab.cli import RunConfig
payloads = json.loads({json.dumps(self.DIGEST_PAYLOADS)!r})
print(json.dumps([
    "hashlib" in sys.modules,
    [experiments.config_digest(p) for p in payloads],
    experiments.config_digest(RunConfig().canonical("bound")),
]))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        fallback, digests, bound = json.loads(result.stdout.splitlines()[-1])
        assert fallback
        assert digests == [config_digest(p) for p in self.DIGEST_PAYLOADS]
        assert bound == "43dbed00a98e"

    def test_round_trip_dict(self):
        rows = (ExperimentRow("a", 1.0, 2.0, 0.5, -0.25),)
        report = ExperimentReport("abc", rows, ExperimentSummary.from_rows(rows))
        payload = report_as_dict(report)
        assert payload["rows"][0]["slope"] == -0.25


class TestSeededDraws:
    def test_same_seed_same_bits_other_seed_other_draws(self):
        a, b = SeededDraws(7), SeededDraws(7)
        assert a.integers(0, 10**9) == b.integers(0, 10**9)
        assert a.uniform(1.0, 2.0, 9).tobytes() == b.uniform(1.0, 2.0, 9).tobytes()
        assert a.standard_normal((4, 3)).tobytes() == b.standard_normal((4, 3)).tobytes()
        assert not np.array_equal(
            SeededDraws(7).standard_normal(8), SeededDraws(8).standard_normal(8)
        )

    def test_draws_are_the_random_method_stream(self):
        # random() is the stream CPython keeps for a seed across versions
        stream, draws = random.Random(7), SeededDraws(7)
        assert draws.integers(2, 13) == 2 + int(11 * stream.random())
        expected = [stream.random() for _ in range(1000)]
        assert draws.uniform(0.0, 1.0, 1000).tolist() == expected

    def test_integers_are_half_open_and_reach_both_ends(self):
        draws = SeededDraws(7)
        values = {draws.integers(2, 13) for _ in range(2000)}
        assert values == set(range(2, 13))

    def test_uniform_stays_in_range(self):
        values = SeededDraws(7).uniform(1.0, 3.0, 10**5)
        assert values.shape == (10**5,)
        assert values.min() >= 1.0 and values.max() < 3.0

    @pytest.mark.parametrize("shape", [1, 7, (5, 6), (3, 3, 5)])
    def test_standard_normal_shapes_are_finite(self, shape):
        values = SeededDraws(7).standard_normal(shape)
        assert values.shape == np.empty(shape).shape
        assert np.all(np.isfinite(values))

    def test_standard_normal_moments(self):
        values = SeededDraws(7).standard_normal(10**5)
        assert abs(values.mean()) < 0.02
        assert abs(values.var() - 1.0) < 0.02


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
        assert all(f.spec.count == 7 for f in fam.values())
