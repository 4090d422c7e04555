import math

import numpy as np
import pytest

from heislab import oscillator
from heislab.oscillator import (
    FiberOperator,
    enumerate_basis,
    fiber_adjoint,
    fiber_mul,
    matrix_unit,
    momentum_matrix,
    oscillator_matrix,
    pooled_schatten_powers,
    position_matrix,
    riesz_symbol,
    tensor_scalar,
    tr_sigma,
)

from oracles import fiber_identity, fiber_schatten_norm


def interior_mask(basis):
    return np.array([sum(a) <= basis.K - 1 for a in basis.indices])


class TestEnumerateBasis:
    def test_one_dimensional(self):
        basis = enumerate_basis(1, 3)
        assert basis.dim == 4
        assert basis.indices == ((0,), (1,), (2,), (3,))

    def test_two_dimensional_grade_one(self):
        basis = enumerate_basis(2, 1)
        assert basis.dim == 3
        assert basis.indices == ((0, 0), (0, 1), (1, 0))

    def test_counts_match_binomial(self):
        for n, K in [(1, 5), (2, 2), (2, 6), (3, 4)]:
            basis = enumerate_basis(n, K)
            assert basis.dim == math.comb(K + n, n)

    def test_graded_ordering(self):
        basis = enumerate_basis(3, 5)
        grades = [sum(a) for a in basis.indices]
        assert grades == sorted(grades)
        assert basis.index_of((0,) * 3) == 0

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_basis(4, 40)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 3)
        with pytest.raises(ValueError):
            enumerate_basis(1, -1)


class TestLadderMatrices:
    def test_momentum_ground_state_coupling(self):
        basis = enumerate_basis(1, 3)
        p = momentum_matrix(basis, 1)
        assert p[basis.index_of((1,)), basis.index_of((0,))] == pytest.approx(1j / math.sqrt(2))

    def test_momentum_lowering_entry(self):
        basis = enumerate_basis(1, 3)
        p = momentum_matrix(basis, 1)
        assert p[basis.index_of((1,)), basis.index_of((2,))] == pytest.approx(-1j)

    def test_momentum_is_imaginary_skew_symmetric(self):
        basis = enumerate_basis(2, 4)
        for j in (1, 2):
            p = momentum_matrix(basis, j)
            np.testing.assert_allclose(p.T, -p, atol=1e-15)
            np.testing.assert_allclose(p.conj().T, p, atol=1e-15)
            assert np.allclose(p.real, 0.0)

    def test_top_grade_column_stays_inside(self):
        # a column of full degree K couples downward only
        basis = enumerate_basis(2, 3)
        p = momentum_matrix(basis, 1)
        col = p[:, basis.index_of((3, 0))]
        grades = np.array([sum(a) for a in basis.indices])
        assert np.all(col[grades > 2] == 0.0)

    def test_position_ground_state_coupling(self):
        basis = enumerate_basis(1, 3)
        q = position_matrix(basis, 1)
        assert q[basis.index_of((1,)), basis.index_of((0,))] == pytest.approx(math.sqrt(0.5))

    def test_position_real_symmetric(self):
        basis = enumerate_basis(2, 4)
        q = position_matrix(basis, 2)
        assert q.dtype == float
        np.testing.assert_allclose(q, q.T, atol=1e-15)

    def test_degree_zero_position_vanishes(self):
        basis = enumerate_basis(1, 0)
        np.testing.assert_array_equal(position_matrix(basis, 1), np.zeros((1, 1)))

    def test_coordinate_out_of_range(self):
        basis = enumerate_basis(2, 2)
        with pytest.raises(ValueError):
            momentum_matrix(basis, 3)


class TestOscillator:
    def test_diagonal_n1(self):
        basis = enumerate_basis(1, 2)
        np.testing.assert_array_equal(oscillator_matrix(basis), np.diag([1.0, 3.0, 5.0]))

    def test_entry_n2(self):
        basis = enumerate_basis(2, 3)
        h = oscillator_matrix(basis)
        idx = basis.index_of((1, 1))
        assert h[idx, idx] == 6.0

    def test_ground_energy(self):
        for n in (1, 2, 3):
            basis = enumerate_basis(n, 3)
            assert np.min(np.diag(oscillator_matrix(basis))) == n

    def test_oscillator_identity_on_interior_columns(self):
        for n, K in [(1, 5), (2, 4)]:
            basis = enumerate_basis(n, K)
            total = sum(
                momentum_matrix(basis, j) @ momentum_matrix(basis, j)
                + position_matrix(basis, j) @ position_matrix(basis, j)
                for j in range(1, n + 1)
            )
            h = oscillator_matrix(basis)
            cols = interior_mask(basis)
            np.testing.assert_allclose(total[:, cols], h[:, cols].astype(complex), atol=1e-12)


class TestCanonicalCommutation:
    def test_interior_block_is_exact(self):
        for n, K in [(1, 4), (2, 3)]:
            basis = enumerate_basis(n, K)
            mask = interior_mask(basis)
            for j in range(1, n + 1):
                p = momentum_matrix(basis, j)
                q = position_matrix(basis, j)
                comm = p @ q - q @ p
                block = comm[np.ix_(mask, mask)]
                np.testing.assert_allclose(
                    block, -1j * np.eye(mask.sum()), atol=1e-12
                )

    def test_top_grade_violates(self):
        basis = enumerate_basis(1, 4)
        p = momentum_matrix(basis, 1)
        q = position_matrix(basis, 1)
        comm = p @ q - q @ p
        assert np.linalg.norm(comm + 1j * np.eye(basis.dim)) > 0.5

    def test_distinct_coordinates_commute(self):
        basis = enumerate_basis(2, 3)
        p1 = momentum_matrix(basis, 1)
        q2 = position_matrix(basis, 2)
        mask = interior_mask(basis)
        comm = (p1 @ q2 - q2 @ p1)[np.ix_(mask, mask)]
        np.testing.assert_allclose(comm, 0.0, atol=1e-13)


class TestMatrixUnits:
    def test_rank_one_projection(self):
        basis = enumerate_basis(2, 2)
        e00 = matrix_unit(basis, (0, 0), (0, 0))
        np.testing.assert_array_equal(e00 @ e00, e00)
        assert np.linalg.matrix_rank(e00) == 1

    def test_unit_algebra(self):
        basis = enumerate_basis(1, 3)
        a, b, c = (1,), (2,), (0,)
        np.testing.assert_array_equal(
            matrix_unit(basis, a, b) @ matrix_unit(basis, b, c), matrix_unit(basis, a, c)
        )

    def test_outside_cutoff(self):
        basis = enumerate_basis(1, 2)
        with pytest.raises(ValueError, match="cutoff"):
            matrix_unit(basis, (3,), (0,))

    def test_ladder_relation(self):
        # p_j + i q_j equals i sum sqrt(2 alpha_j + 2) E_{alpha+e_j, alpha}
        for n, K in [(1, 4), (2, 3)]:
            basis = enumerate_basis(n, K)
            for j in range(1, n + 1):
                ladder = momentum_matrix(basis, j) + 1j * position_matrix(basis, j)
                expected = np.zeros_like(ladder)
                for alpha in basis.indices:
                    if sum(alpha) < K:
                        upper = alpha[: j - 1] + (alpha[j - 1] + 1,) + alpha[j:]
                        expected += (
                            1j
                            * math.sqrt(2.0 * alpha[j - 1] + 2.0)
                            * matrix_unit(basis, upper, alpha)
                        )
                np.testing.assert_allclose(ladder, expected, atol=1e-15)

    def test_ladder_on_ground_state(self):
        basis = enumerate_basis(1, 2)
        ladder = momentum_matrix(basis, 1) + 1j * position_matrix(basis, 1)
        ground = np.zeros(basis.dim)
        ground[basis.index_of((0,))] = 1.0
        out = ladder @ ground
        expected = np.zeros(basis.dim, dtype=complex)
        expected[basis.index_of((1,))] = 1j * math.sqrt(2.0)
        np.testing.assert_allclose(out, expected, atol=1e-15)


class TestRieszSymbol:
    def test_blocks_are_contractions(self):
        for n, K in [(1, 6), (2, 4)]:
            basis = enumerate_basis(n, K)
            for ell in range(1, 2 * n + 1):
                sym = riesz_symbol(basis, ell)
                for block in (sym.minus, sym.plus):
                    assert np.linalg.norm(block, 2) <= 1.0 + 1e-12

    def test_ground_coupling_entry(self):
        # i * p * H^{-1/2} at (index(1), index(0)): i * (i/sqrt 2) * 1 = -1/sqrt 2
        basis = enumerate_basis(1, 4)
        sym = riesz_symbol(basis, 1)
        entry = sym.plus[basis.index_of((1,)), basis.index_of((0,))]
        assert entry == pytest.approx(-1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(sym.minus, sym.plus)

    def test_sign_flip_component(self):
        basis = enumerate_basis(1, 4)
        sym = riesz_symbol(basis, 2)
        np.testing.assert_allclose(sym.minus, -sym.plus)

    def test_index_out_of_range(self):
        basis = enumerate_basis(1, 3)
        with pytest.raises(ValueError):
            riesz_symbol(basis, 3)


class TestFiberAlgebra:
    def setup_method(self):
        self.basis = enumerate_basis(1, 3)
        rng = np.random.default_rng(42)
        shape = (self.basis.dim, self.basis.dim)
        self.x = FiberOperator(
            self.basis,
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        )
        self.y = FiberOperator(
            self.basis,
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        )

    def test_identity_neutral(self):
        e = fiber_identity(self.basis)
        prod = fiber_mul(self.x, e)
        np.testing.assert_allclose(prod.minus, self.x.minus)
        np.testing.assert_allclose(prod.plus, self.x.plus)

    def test_adjoint_of_product(self):
        lhs = fiber_adjoint(fiber_mul(self.x, self.y))
        rhs = fiber_mul(fiber_adjoint(self.y), fiber_adjoint(self.x))
        np.testing.assert_allclose(lhs.minus, rhs.minus)
        np.testing.assert_allclose(lhs.plus, rhs.plus)

    def test_sign_component_squares_to_identity(self):
        z = tensor_scalar(self.basis, np.eye(self.basis.dim), "z")
        sq = fiber_mul(z, z)
        e = fiber_identity(self.basis)
        np.testing.assert_array_equal(sq.minus, e.minus)
        np.testing.assert_array_equal(sq.plus, e.plus)

    def test_basis_mismatch(self):
        other = fiber_identity(enumerate_basis(1, 4))
        with pytest.raises(ValueError, match="different bases"):
            fiber_mul(self.x, other)

    def test_trace_examples(self):
        e00 = matrix_unit(self.basis, (0,), (0,))
        assert tr_sigma(tensor_scalar(self.basis, e00, "one")) == pytest.approx(2.0)
        assert tr_sigma(tensor_scalar(self.basis, e00, "z")) == pytest.approx(0.0)
        basis = enumerate_basis(1, 2)
        assert tr_sigma(fiber_identity(basis)) == pytest.approx(6.0)

    def test_trace_is_tracial(self):
        assert tr_sigma(fiber_mul(self.x, self.y)) == pytest.approx(
            tr_sigma(fiber_mul(self.y, self.x)), abs=1e-12
        )


def schatten_power(x, p):
    """The kernel on a single operator: one row, one symbol."""
    return pooled_schatten_powers(np.ones((1, 1)), [x], p)[0]


def random_fiber(rng, basis):
    shape = (basis.dim, basis.dim)
    return FiberOperator(
        basis,
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )


class TestFiberSchattenNorm:
    def test_oscillator_inverse_root_fourth_power(self):
        K = 40
        basis = enumerate_basis(1, K)
        h_inv_sqrt = np.diag(np.diag(oscillator_matrix(basis)) ** -0.5)
        x = tensor_scalar(basis, h_inv_sqrt, "one")
        expected = 2.0 * sum((2.0 * k + 1.0) ** -2 for k in range(K + 1))
        assert schatten_power(x, 4) == pytest.approx(expected, rel=1e-12)
        # the tail limit is 2 * pi^2 / 8; at K = 40 the partial sum is within 1%
        assert schatten_power(x, 4) == pytest.approx(math.pi**2 / 4.0, rel=1e-2)

    def test_single_block_rank_one(self):
        basis = enumerate_basis(1, 2)
        e00 = matrix_unit(basis, (0,), (0,))
        x = FiberOperator(basis, e00, np.zeros_like(e00))
        for p in (2, 4, 6):
            assert schatten_power(x, p) == pytest.approx(1.0)
        assert fiber_schatten_norm(x, 1.0) == pytest.approx(1.0)

    def test_adjoint_invariance(self):
        basis = enumerate_basis(1, 3)
        x = random_fiber(np.random.default_rng(3), basis)
        assert fiber_schatten_norm(x, 3.0) == pytest.approx(
            fiber_schatten_norm(fiber_adjoint(x), 3.0), rel=1e-12
        )
        assert schatten_power(x, 4) == pytest.approx(
            schatten_power(fiber_adjoint(x), 4), rel=1e-12
        )

    def test_rejects_quasinorm_exponent(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError):
            fiber_schatten_norm(fiber_identity(basis), 0.5)


class TestPooledSchattenPowers:
    @pytest.mark.parametrize("n, K", [(1, 5), (2, 3)])
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_matches_svd_oracle_on_random_mixes(self, n, K, p):
        rng = np.random.default_rng(17)
        basis = enumerate_basis(n, K)
        symbols = [random_fiber(rng, basis) for _ in range(3)]
        coeff = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        powers = pooled_schatten_powers(coeff, symbols, p)
        for row, value in zip(coeff, powers):
            mixed = FiberOperator(
                basis,
                sum(c * s.minus for c, s in zip(row, symbols)),
                sum(c * s.plus for c, s in zip(row, symbols)),
            )
            assert value == pytest.approx(fiber_schatten_norm(mixed, p) ** p, rel=1e-13)

    @pytest.mark.parametrize("p", [3, 4.5, 0])
    def test_rejects_all_but_even_integer_exponents(self, p):
        basis = enumerate_basis(1, 2)
        with pytest.raises(ValueError, match="even integer"):
            pooled_schatten_powers(np.ones((1, 1)), [fiber_identity(basis)], p)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_rows_do_not_depend_on_the_chunking(self, monkeypatch, p):
        # chunks of two rows (the least), of seven with one row left over,
        # and one chunk for all: the same bytes, so bochner_norm's sum over
        # the rows cannot move
        rng = np.random.default_rng(5)
        basis = enumerate_basis(1, 6)
        symbols = [random_fiber(rng, basis) for _ in range(3)]
        coeff = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        row_bytes = 16 * basis.dim**2
        whole = pooled_schatten_powers(coeff, symbols, p)
        for rows in (1, 2, 7, 49, 50):
            monkeypatch.setattr(oscillator, "_MIX_BYTES", rows * row_bytes)
            chunked = pooled_schatten_powers(coeff, symbols, p)
            np.testing.assert_array_equal(chunked, whole)
