import math

import numpy as np
import pytest
from scipy import sparse

from heislab.experiments import _commutator
from heislab.grid import (
    KERNEL_THRESHOLD,
    GridFunction,
    GridOperator,
    GridSpec,
    _model,
    approximation_sequence,
    build_riesz,
    build_sublaplacian,
    koranyi_gauge,
    load_operator,
    poincare_ratio,
    quarter_rotation,
    riesz_decomposition_residual,
    save_operator,
    sobolev_seminorm,
    sublaplacian_spectrum,
)

SPEC = GridSpec.cube(9)


def interior_mask(spec, margin=1):
    mask = np.zeros(spec.shape, dtype=bool)
    mask[margin:-margin, margin:-margin, margin:-margin] = True
    return mask


def sparse_fields(spec):
    """The sparse fields ``X``, ``Y`` and the vertical difference ``D_t``."""
    model = _model(spec)
    return model.x_field, model.y_field, model.d_t


def dense_inverse_sqrt(matrix):
    """Oracle for ``(-Delta)^{-1/2}``: a dense ``eigh`` of the given matrix,
    inverted off the kernel as the spectral calculus of the grid model is."""
    w, v = np.linalg.eigh(matrix)
    live = np.abs(w) > KERNEL_THRESHOLD * np.max(np.abs(w))
    return (v * np.where(live, np.abs(w), 1.0) ** -0.5 * live) @ v.T


def checkerboard(spec):
    """The alternating product vector, an exact kernel mode on odd grids."""
    alt = np.zeros(spec.nx)
    alt[::2] = 1.0
    return np.einsum("i,j,k->ijk", alt, alt, alt).reshape(-1)


def unit_checkerboard(spec):
    vec = checkerboard(spec)
    return vec / np.linalg.norm(vec)


def bump(spec):
    # smooth, decays to ~1e-8 by the boundary at half-width 3
    return GridFunction.from_callable(
        spec, lambda x, y, t: np.exp(-2.0 * (x * x + y * y + t * t))
    )


class TestGridSpec:
    def test_axes_symmetric_and_centered(self):
        spec = GridSpec.cube(9, 3.0)
        assert spec.axis_x[0] == -3.0 and spec.axis_x[-1] == 3.0
        assert spec.axis_x[4] == 0.0
        np.testing.assert_allclose(spec.axis_t, -spec.axis_t[::-1])

    def test_cell_volume(self):
        spec = GridSpec.cube(7, 3.0)
        assert spec.cell_volume == pytest.approx(1.0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            GridSpec.cube(21)
        GridSpec.cube(21, cap=10000)  # explicit override is allowed

    def test_square_xy_required(self):
        with pytest.raises(ValueError, match="nx == ny"):
            GridSpec(9, 7, 9)

    def test_only_first_group(self):
        with pytest.raises(ValueError, match="first group"):
            GridSpec(9, 9, 9, n=2)


class TestVectorFields:
    def test_skew_symmetry(self):
        for op in sparse_fields(SPEC):
            assert abs(op + op.T).max() == 0.0

    def test_constant_annihilated_inside(self):
        ones = GridFunction.from_callable(SPEC, lambda x, y, t: np.ones_like(x))
        mask = interior_mask(SPEC).reshape(-1)
        for op in sparse_fields(SPEC):
            assert np.abs((op @ ones.flat)[mask]).max() == 0.0

    def test_coordinate_function(self):
        x_op, y_op, t_op = sparse_fields(SPEC)
        f = GridFunction.from_callable(SPEC, lambda x, y, t: x)
        mask = interior_mask(SPEC).reshape(-1)
        np.testing.assert_allclose((x_op @ f.flat)[mask], 1.0, atol=1e-13)
        # mixed rows cancel in rounded summation order, not bitwise
        assert np.abs((y_op @ f.flat)[mask]).max() <= 1e-14
        assert np.abs((t_op @ f.flat)[mask]).max() <= 1e-14

    def test_bracket_is_twice_vertical(self):
        # exact for functions linear in each coordinate
        x_op, y_op, t_op = sparse_fields(SPEC)
        f = GridFunction.from_callable(SPEC, lambda x, y, t: x * y * t).flat
        bracket = x_op @ (y_op @ f) - y_op @ (x_op @ f)
        mask = interior_mask(SPEC, margin=2).reshape(-1)
        np.testing.assert_allclose(bracket[mask], 2.0 * (t_op @ f)[mask], atol=1e-12)

    def test_vertical_shift_symmetry(self):
        # shifting along t commutes with the fields on interior support
        x_op, y_op, _ = sparse_fields(SPEC)
        shift1d = sparse.diags([np.ones(SPEC.nt - 1)], [-1])
        shift = sparse.kron(sparse.identity(SPEC.nx * SPEC.ny), shift1d)
        proj = sparse.diags(interior_mask(SPEC, margin=2).reshape(-1).astype(float))
        for op in (x_op, y_op):
            gap = (op @ shift - shift @ op) @ proj
            assert abs(gap).max() == 0.0


class TestSublaplacian:
    def test_symmetric_psd(self):
        op = build_sublaplacian(SPEC)
        assert op.self_adjoint
        assert op.meta["symmetry_residual"] <= 1e-10
        w = sublaplacian_spectrum(SPEC)
        assert w.min() >= -1e-10

    def test_eigenvalue_count(self):
        assert sublaplacian_spectrum(SPEC).size == SPEC.size

    def test_annihilates_constants_inside(self):
        op = build_sublaplacian(SPEC)
        ones = GridFunction.from_callable(SPEC, lambda x, y, t: np.ones_like(x))
        out = (op.matrix @ ones.flat).reshape(SPEC.shape)
        mask = interior_mask(SPEC, margin=2)
        assert np.abs(out[mask]).max() <= 1e-13

    def test_checkerboard_kernel_mode(self):
        op = build_sublaplacian(SPEC)
        assert np.abs(op.matrix @ checkerboard(SPEC)).max() <= 1e-13


class TestSpectralFunction:
    def test_identity_profile(self):
        out = _model(SPEC).power(1.0)
        np.testing.assert_allclose(out, build_sublaplacian(SPEC).matrix, atol=1e-10)

    def test_inverse_root_on_diagonal(self):
        # in the eigenbasis the power is diagonal; check the smallest and
        # the largest live eigenvalue
        model = _model(SPEC)
        w, v, live = model.eig()
        inv_sqrt = model.power(-0.5)
        for j in (np.flatnonzero(live)[0], w.size - 1):
            np.testing.assert_allclose(
                inv_sqrt @ v[:, j], w[j] ** -0.5 * v[:, j], atol=1e-12 * w[j] ** -0.5
            )

    def test_pseudo_inverse_kernel_policy(self):
        model = _model(SPEC)
        w, _, live = model.eig()
        assert np.array_equal(live, np.abs(w) > KERNEL_THRESHOLD * np.abs(w).max())
        assert not live.all()
        assert np.abs(model.power(-0.5) @ unit_checkerboard(SPEC)).max() < 1e-12

    def test_inverse_root_matches_dense_oracle(self):
        oracle = dense_inverse_sqrt(build_sublaplacian(SPEC).matrix)
        gap = np.linalg.norm(_model(SPEC).power(-0.5) - oracle) / np.linalg.norm(oracle)
        assert gap <= 1e-13

    def test_kernel_complement_projection(self):
        proj = _model(SPEC).power(0.0)
        np.testing.assert_allclose(proj, proj.T, atol=1e-14)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-13)
        assert np.abs(proj @ unit_checkerboard(SPEC)).max() < 1e-13


class TestRiesz:
    def test_empirical_norm_near_one(self):
        for ell in (1, 2):
            op = build_riesz(SPEC, ell)
            assert 0.5 <= np.linalg.norm(op.matrix, 2) <= 1.5

    def test_kills_kernel_modes(self):
        op = build_riesz(SPEC, 1)
        assert np.abs(op.matrix @ unit_checkerboard(SPEC)).max() < 1e-12

    def test_built_once_per_grid(self):
        first = build_riesz(SPEC, 1).matrix
        assert build_riesz(SPEC, 1).matrix is first
        assert not first.flags.writeable

    def test_squares_sum_to_kernel_complement_projection(self):
        total = sum(
            build_riesz(SPEC, ell).matrix.T @ build_riesz(SPEC, ell).matrix
            for ell in (1, 2)
        )
        f = bump(SPEC)
        v = f.flat / np.linalg.norm(f.flat)
        assert np.linalg.norm(total @ v - v) <= 0.2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_riesz(SPEC, 3)


class TestMultiplicationAndCommutator:
    def test_commutator_with_constant_vanishes(self):
        c = GridFunction.from_callable(SPEC, lambda x, y, t: 2.5 * np.ones_like(x))
        assert np.abs(_commutator(build_riesz(SPEC, 1).matrix, c)).max() < 1e-12

    def test_field_commutator_acts_as_identity_on_low_degree(self):
        # the averaging stencil of [X, M_x] equals the identity on functions
        # at most linear in x
        x_op, _, _ = sparse_fields(SPEC)
        coord = GridFunction.from_callable(SPEC, lambda x, y, t: x).flat
        mask = interior_mask(SPEC).reshape(-1)
        for fn in (
            lambda x, y, t: np.ones_like(x),
            lambda x, y, t: x,
            lambda x, y, t: y * t,
        ):
            u = GridFunction.from_callable(SPEC, fn).flat
            out = x_op @ (coord * u) - coord * (x_op @ u)
            np.testing.assert_allclose(out[mask], u[mask], atol=1e-13)


class TestSobolev:
    def test_constant_is_flat(self):
        c = GridFunction.from_callable(SPEC, lambda x, y, t: np.ones_like(x))
        # boundary rows see the zero exterior, so restrict to a bump instead
        assert sobolev_seminorm(c * 0.0) == 0.0

    def test_scaling(self):
        f = bump(SPEC)
        assert sobolev_seminorm(3.0 * f) == pytest.approx(
            3.0 * sobolev_seminorm(f), rel=1e-12
        )

    def test_refinement_stability(self):
        # wide bump so the 13-point default grid resolves the gradient
        def wide(spec):
            return GridFunction.from_callable(
                spec, lambda x, y, t: np.exp(-0.5 * (x * x + y * y + t * t))
            )

        coarse = sobolev_seminorm(wide(GridSpec.cube(13)))
        fine = sobolev_seminorm(wide(GridSpec.cube(15)))
        assert coarse > 0.0
        assert abs(fine - coarse) / coarse <= 0.05


class TestPoincare:
    def test_constant_function(self):
        c = GridFunction.from_callable(SPEC, lambda x, y, t: 4.0 * np.ones_like(x))
        assert poincare_ratio(c, 1.0, "ball") == 0.0
        assert poincare_ratio(c, 1.5, "annulus") == 0.0

    def test_shift_invariance(self):
        # keep the gauge regions clear of the boundary slabs, where the
        # zero-exterior stencil would differentiate the added constant
        f = bump(SPEC)
        g = f + 5.0
        for mode in ("ball", "annulus"):
            assert poincare_ratio(f, 0.8, mode) == pytest.approx(
                poincare_ratio(g, 0.8, mode), rel=1e-10
            )

    def test_bump_family_stable_under_refinement(self):
        radii = (0.8, 1.2, 1.6)
        scales = (0.5, 0.75, 1.0)

        def family_max(spec):
            worst = 0.0
            for a in scales:
                f = GridFunction.from_callable(
                    spec, lambda x, y, t, a=a: np.exp(-a * (x * x + y * y + t * t))
                )
                for r in radii:
                    worst = max(worst, poincare_ratio(f, r, "ball"))
            return worst

        coarse = family_max(GridSpec.cube(13))
        fine = family_max(GridSpec.cube(15))
        assert 0.0 < coarse < math.inf
        assert abs(fine - coarse) / coarse <= 0.2

    def test_empty_region(self):
        # a ball always holds the origin, so only the annulus can be empty
        f = bump(SPEC)
        with pytest.raises(ValueError, match="region"):
            poincare_ratio(f, 1e-3, "annulus")
        with pytest.raises(ValueError):
            poincare_ratio(f, 1.0, "shell")
        with pytest.raises(ValueError):
            poincare_ratio(f, -1.0, "ball")


class TestApproximationSequence:
    def test_constant_goes_to_zero(self):
        c = GridFunction.from_callable(SPEC, lambda x, y, t: 3.0 * np.ones_like(x))
        out = approximation_sequence(c, 2.0)
        assert np.abs(out.values).max() < 1e-14

    def test_sup_bound(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(SPEC.shape)
        f = GridFunction(SPEC, vals)
        out = approximation_sequence(f, 2.0)
        assert out.max_abs() <= 2.0 * f.max_abs() + 1e-12

    def test_cutoff_support(self):
        ones = GridFunction.from_callable(SPEC, lambda x, y, t: np.ones_like(x))
        out = approximation_sequence(ones + bump(SPEC), 1.5)
        gauge = koranyi_gauge(SPEC)
        assert np.abs(out.values[gauge > 1.5]).max() == 0.0

    def test_seminorm_recovery_for_small_support(self):
        # once the plateau covers the support and the shell misses it,
        # the sequence reproduces the function exactly
        spec = GridSpec.cube(11)
        gauge = koranyi_gauge(spec)
        f = GridFunction(spec, np.exp(-8.0 * gauge**4) * (gauge <= 1.0))
        target = sobolev_seminorm(f)
        values = [sobolev_seminorm(approximation_sequence(f, m)) for m in (1.0, 1.5, 2.0)]
        gaps = [abs(v - target) for v in values]
        assert gaps[-1] < 1e-12
        assert gaps[0] >= gaps[-1]

    def test_empty_shell(self):
        f = bump(SPEC)
        with pytest.raises(ValueError, match="shell"):
            approximation_sequence(f, 50.0)


class TestQuarterRotation:
    def test_permutation_and_order_four(self):
        u, _ = quarter_rotation(SPEC, 1)
        assert sparse.issparse(u)
        identity = sparse.identity(SPEC.size)
        assert abs(u.T @ u - identity).max() == 0.0
        assert abs(u @ u @ u @ u - identity).max() == 0.0

    def test_conjugation_exact(self):
        _, report = quarter_rotation(SPEC, 1)
        assert report.interior_residual <= 1e-12
        assert report.full_residual <= 1e-12
        assert report.target == "second_field"

    def test_second_field_turns_negative(self):
        _, report = quarter_rotation(SPEC, 2)
        assert report.full_residual <= 1e-12
        assert report.target == "minus_first_field"

    def test_rotates_coordinates(self):
        u, _ = quarter_rotation(SPEC, 1)
        f = GridFunction.from_callable(SPEC, lambda x, y, t: x + 10.0 * y + 100.0 * t)
        rotated = u @ f.flat
        expected = GridFunction.from_callable(
            SPEC, lambda x, y, t: -y + 10.0 * x + 100.0 * t
        )
        np.testing.assert_allclose(rotated, expected.flat, atol=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            quarter_rotation(SPEC, 3)


class TestRieszDecomposition:
    def test_split_identity_on_kernel_complement(self):
        report = riesz_decomposition_residual(SPEC, bump(SPEC), 1)
        assert report.relative_residual <= 1e-9
        assert report.kernel_dimension >= 1

    def test_second_direction(self):
        report = riesz_decomposition_residual(SPEC, bump(SPEC), 2)
        assert report.relative_residual <= 1e-9

    def test_leibniz_defect_is_order_one(self):
        # centered differences do not satisfy the product rule as matrices;
        # this is why the derivative term stays in commutator form
        report = riesz_decomposition_residual(SPEC, bump(SPEC), 1)
        assert report.leibniz_defect > 0.1


class TestCwikelSurrogate:
    def test_family_ratio_bounded(self):
        from heislab.schatten import singular_values, weak_quasinorm

        inv_sqrt = dense_inverse_sqrt(build_sublaplacian(SPEC).matrix)
        family = [
            lambda x, y, t: np.exp(-(x * x + y * y + t * t)),
            lambda x, y, t: np.exp(-2.0 * (x * x + y * y + t * t)),
            lambda x, y, t: x * np.exp(-(x * x + y * y + t * t)),
            lambda x, y, t: t * np.exp(-2.0 * (x * x + y * y + t * t)),
            lambda x, y, t: (x * x + y * y) * np.exp(-2.0 * (x * x + y * y + t * t)),
        ]
        ratios = []
        for fn in family:
            f = GridFunction.from_callable(SPEC, fn)
            product = f.flat[:, None] * inv_sqrt
            quasi = weak_quasinorm(singular_values(product), 4.0)
            ratios.append(quasi / f.norm_lp(4.0))
        assert max(ratios) / min(ratios) <= 5.0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        op = build_sublaplacian(GridSpec.cube(5))
        target = tmp_path / "op.bin"
        save_operator(op, target)
        back = load_operator(target)
        np.testing.assert_allclose(back.matrix, op.matrix)
        assert back.kind == op.kind
        assert back.spec == op.spec
        assert back.meta["symmetry_residual"] == op.meta["symmetry_residual"]


class TestGridFunctionBasics:
    def test_norms_and_margin(self):
        f = bump(SPEC)
        assert f.norm_lp(4.0) > 0.0
        mask_fn = GridFunction(SPEC, np.pad(np.ones((3, 3, 3)), 3))
        assert mask_fn.interior_margin() == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="finite"):
            GridFunction(SPEC, np.full(SPEC.shape, np.nan))
        with pytest.raises(ValueError, match="shape"):
            GridFunction(SPEC, np.zeros((2, 2, 2)))

    def test_operator_shape_guard(self):
        with pytest.raises(ValueError):
            GridOperator(SPEC, np.eye(10))
        with pytest.raises(ValueError, match="asymmetry"):
            GridOperator(SPEC, np.triu(np.ones((SPEC.size, SPEC.size))), self_adjoint=True)
