import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.doi import (
    SingularSymbolError,
    SpectralDecomposition,
    build_a_fiber,
    doi_apply,
    make_symbol,
    phi_n_symbol,
    resolvent_quadrature_A,
)
from heislab.oscillator import enumerate_basis


def random_hermitian(rng, dim, lo=None, hi=None):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if lo is None:
        return 0.5 * (g + g.conj().T)
    # prescribed spectrum, random eigenbasis
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(lo, hi, size=dim)
    return (q * lam) @ q.conj().T


class TestSpectralDecomposition:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for dim in (2, 5, 9):
            mat = random_hermitian(rng, dim)
            dec = SpectralDecomposition.from_matrix(mat)
            np.testing.assert_allclose(dec.matrix(), mat, atol=1e-12)
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            SpectralDecomposition.from_matrix([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SpectralDecomposition.from_matrix(np.zeros((2, 3)))

    def test_from_diagonal_is_exact(self):
        dec = SpectralDecomposition.from_diagonal([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(dec.matrix().real, np.diag([3.0, 1.0, 2.0]))

    def test_rejects_unsorted_spectrum(self):
        with pytest.raises(ValueError, match="sorted"):
            SpectralDecomposition([2.0, 1.0], np.eye(2))

    def test_rejects_non_unitary_vectors(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SpectralDecomposition([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]])


class TestDoiApply:
    def test_flat_spectrum_halves(self):
        dec = SpectralDecomposition.from_diagonal([1.0, 1.0, 1.0])
        a = np.arange(9.0).reshape(3, 3)
        np.testing.assert_allclose(doi_apply(dec, dec, "frac_lambda", a), a / 2.0)

    def test_multiplicative_in_the_symbol(self):
        rng = np.random.default_rng(7)
        d0 = SpectralDecomposition.from_matrix(random_hermitian(rng, 6, 1.0, 3.0))
        d1 = SpectralDecomposition.from_matrix(random_hermitian(rng, 6, 1.0, 3.0))
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))

        def product(lam, mu):
            return _psi_table(lam, mu) * lam / (lam + mu)

        via_product = doi_apply(d0, d1, make_symbol(product), a)
        composed = doi_apply(d0, d1, "psi", doi_apply(d0, d1, "frac_lambda", a))
        np.testing.assert_allclose(via_product, composed, atol=1e-12)

    def test_linear_in_symbol_and_argument(self):
        rng = np.random.default_rng(8)
        dec = SpectralDecomposition.from_matrix(random_hermitian(rng, 5, 1.0, 2.0))
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))

        def combo(lam, mu):
            return 2.0 * lam / (lam + mu) + 3.0 * np.minimum(lam, mu) / (lam + mu)

        lhs = doi_apply(dec, dec, make_symbol(combo), a)
        rhs = 2.0 * doi_apply(dec, dec, "frac_lambda", a) + 3.0 * doi_apply(
            dec, dec, "min_over_sum", a
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        np.testing.assert_allclose(
            doi_apply(dec, dec, "psi", a + b),
            doi_apply(dec, dec, "psi", a) + doi_apply(dec, dec, "psi", b),
            atol=1e-12,
        )

    def test_rectangular_argument(self):
        d0 = SpectralDecomposition.from_diagonal([1.0, 2.0])
        d1 = SpectralDecomposition.from_diagonal([1.0, 2.0, 3.0])
        a = np.ones((2, 3))
        out = doi_apply(d0, d1, "frac_lambda", a)
        expected = np.array([[1 / 2, 1 / 3, 1 / 4], [2 / 3, 1 / 2, 2 / 5]])
        np.testing.assert_allclose(out, expected)

    def test_shape_mismatch(self):
        dec = SpectralDecomposition.from_diagonal([1.0, 2.0])
        with pytest.raises(ValueError, match="incompatible"):
            doi_apply(dec, dec, "psi", np.ones((3, 3)))

    def test_singular_symbol_reported(self):
        dec = SpectralDecomposition.from_diagonal([0.0, 1.0])
        with pytest.raises(SingularSymbolError):
            doi_apply(dec, dec, "frac_lambda", np.eye(2))

    def test_commutator_identity(self):
        # [B, A] B^{-1} recovered from the fraction symbol applied to
        # B^{-1} [B^2, A] B^{-1}, for spectra bounded away from zero.
        rng = np.random.default_rng(2024)
        for _ in range(10):
            dim = int(rng.integers(2, 13))
            b = random_hermitian(rng, dim, 1.0, 2.0)
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b_inv = np.linalg.inv(b)
            lhs = (b @ a - a @ b) @ b_inv
            inner = b_inv @ (b @ b @ a - a @ b @ b) @ b_inv
            rhs = doi_apply(
                SpectralDecomposition.from_matrix(b),
                SpectralDecomposition.from_matrix(b),
                "frac_lambda",
                inner,
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_two_by_two_commutator_oracle(self):
        b = np.diag([1.0, 2.0])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b_inv = np.diag([1.0, 0.5])
        inner = b_inv @ (b @ b @ a - a @ b @ b) @ b_inv
        dec = SpectralDecomposition.from_diagonal([1.0, 2.0])
        out = doi_apply(dec, dec, "frac_lambda", inner)
        np.testing.assert_allclose(out, [[0.0, -0.5], [1.0, 0.0]], atol=1e-14)


def _psi_table(lam, mu):
    return 2.0 * lam**0.25 * mu**0.25 / (np.sqrt(lam) + np.sqrt(mu))


def sgn_diff(lam, mu):
    """The sign symbol ``sgn(lam - mu)``; its DOI is triangular truncation."""
    return np.sign(lam - mu)


def divided_difference(x, y):
    """The divided difference of ``x arctan x`` read off ``phi_n_symbol``:
    with ``m = 1`` it is ``pi/2 - phi_n(x^2, y^2, 1) / psi(x^2, y^2)``."""
    a0, a1 = np.float64(x * x), np.float64(y * y)
    return 0.5 * math.pi - phi_n_symbol(a0, a1, 1.0) / _psi_table(a0, a1)


class TestSymbols:
    def test_psi_is_one_on_the_diagonal(self):
        sym = make_symbol("psi")
        table = sym.table(np.array([1.0, 4.0, 9.0]), np.array([1.0, 4.0, 9.0]))
        np.testing.assert_allclose(np.diag(table), 1.0)

    @given(
        st.floats(0.5, 50.0),
        st.floats(0.5, 50.0),
        st.floats(0.25, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_psi_scale_invariance(self, a, b, r):
        assert _psi_table(np.float64(r * a), np.float64(r * b)) == pytest.approx(
            _psi_table(np.float64(a), np.float64(b)), rel=1e-12
        )

    def test_fraction_decomposition(self):
        # lam/(lam+mu) = 1/2 + sgn(lam-mu)/2 - sgn(lam-mu) * min/(lam+mu)
        rng = np.random.default_rng(5)
        lam = rng.uniform(0.5, 9.0, size=7)
        mu = rng.uniform(0.5, 9.0, size=7)
        frac = make_symbol("frac_lambda").table(lam, mu)
        sgn = make_symbol(sgn_diff).table(lam, mu)
        mos = make_symbol("min_over_sum").table(lam, mu)
        np.testing.assert_allclose(frac, 0.5 + 0.5 * sgn - sgn * mos, atol=1e-15)

    def test_sign_of_zero_gap(self):
        table = make_symbol(sgn_diff).table(np.array([2.0]), np.array([2.0]))
        assert table[0, 0] == 0.0

    @given(st.floats(0.01, 20.0), st.floats(0.01, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_divided_difference_consistency(self, x, y):
        gap = x - y
        if abs(gap) < 1e-7:
            return
        lhs = divided_difference(x, y) * gap
        rhs = x * math.atan(x) - y * math.atan(y)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_divided_difference_near_diagonal_is_stable(self):
        x = 3.0
        derivative = math.atan(x) + x / (1.0 + x * x)
        assert divided_difference(x, x + 1e-10) == pytest.approx(derivative, rel=1e-9)

    def test_phi_n_diagonal_value(self):
        assert phi_n_symbol(1.0, 1.0, 1.0) == pytest.approx(math.pi / 4.0 - 0.5, abs=1e-15)

    def test_phi_n_large_cutoff_limit(self):
        a, b = 3.0, 7.0
        assert phi_n_symbol(a, b, 1e9) == pytest.approx(
            0.5 * math.pi * _psi_table(np.float64(a), np.float64(b)), rel=1e-8
        )

    def test_phi_n_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            phi_n_symbol(-1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            phi_n_symbol(1.0, 1.0, 0.5)

    def test_phi_n_table_matches_scalar_values(self):
        lam = np.array([1.0, 2.0, 7.5])
        mu = np.array([0.5, 5.0])
        table = phi_n_symbol(lam[:, None], mu[None, :], 25.0)
        assert table.shape == (3, 2)
        for i, a in enumerate(lam):
            for j, b in enumerate(mu):
                assert table[i, j] == pytest.approx(phi_n_symbol(a, b, 25.0), rel=1e-14)

    def test_make_symbol_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            make_symbol("does_not_exist")
        with pytest.raises(TypeError):
            make_symbol(17)

    def test_custom_scalar_callable(self):
        dec = SpectralDecomposition.from_diagonal([1.0, 2.0])
        out = doi_apply(dec, dec, lambda lam, mu: lam * mu, np.ones((2, 2)))
        np.testing.assert_allclose(out, [[1.0, 2.0], [2.0, 4.0]])


class TestTriangularTruncation:
    # triangular truncation is the DOI of the sign symbol sgn(lambda - mu)
    def test_two_by_two_pattern(self):
        dec = SpectralDecomposition.from_diagonal([1.0, 2.0])
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            doi_apply(dec, dec, sgn_diff, a), [[0.0, -2.0], [3.0, 0.0]]
        )

    def test_flat_spectrum_truncates_to_zero(self):
        dec = SpectralDecomposition.from_diagonal([2.0, 2.0, 2.0])
        a = np.arange(9.0).reshape(3, 3)
        np.testing.assert_allclose(doi_apply(dec, dec, sgn_diff, a), 0.0, atol=1e-15)

    def test_twice_gives_off_diagonal_part(self):
        rng = np.random.default_rng(13)
        dec = SpectralDecomposition.from_diagonal([1.0, 2.0, 5.0, 9.0])
        a = rng.standard_normal((4, 4))
        twice = doi_apply(dec, dec, sgn_diff, doi_apply(dec, dec, sgn_diff, a))
        np.testing.assert_allclose(twice, a - np.diag(np.diag(a)), atol=1e-14)


class TestAveragedFiber:
    def test_ground_coupling_oracle(self):
        basis = enumerate_basis(1, 6)
        a1 = build_a_fiber(basis, 1)
        expected = -math.sqrt(2.0) / (math.sqrt(3.0) + 1.0)
        entry = a1.plus[basis.index_of((1,)), basis.index_of((0,))]
        assert entry == pytest.approx(expected, rel=1e-14)
        assert entry == pytest.approx(-0.5176380902050415, rel=1e-12)

    def test_blocks_are_contractions(self):
        for n, K in [(1, 6), (2, 3)]:
            basis = enumerate_basis(n, K)
            for k in range(1, 2 * n + 1):
                fib = build_a_fiber(basis, k)
                for block in (fib.minus, fib.plus):
                    assert np.linalg.norm(block, 2) <= 1.0 + 1e-12

    def test_sign_component_pattern(self):
        basis = enumerate_basis(1, 5)
        fib = build_a_fiber(basis, 2)
        np.testing.assert_allclose(fib.minus, -fib.plus)

    def test_bad_arguments(self):
        basis = enumerate_basis(1, 3)
        with pytest.raises(ValueError):
            build_a_fiber(basis, 3)


def scalar_partial_integral(a, m):
    # closed form of the symmetric resolvent-product integral at one eigenvalue
    return math.atan(m / math.sqrt(a)) - m * math.sqrt(a) / (m * m + a)


class TestResolventQuadrature:
    def test_scalar_oracle(self):
        dec = SpectralDecomposition.from_diagonal([1.0])
        out = resolvent_quadrature_A(np.array([[1.0]]), dec, 1.0, nodes=32)
        assert out[0, 0].real == pytest.approx(math.pi / 4.0 - 0.5, abs=1e-12)

    def test_scalar_oracle_off_unit(self):
        a, m = 2.5, 8.0
        dec = SpectralDecomposition.from_diagonal([a])
        out = resolvent_quadrature_A(np.array([[1.0]]), dec, m, nodes=32)
        assert out[0, 0].real == pytest.approx(scalar_partial_integral(a, m), abs=1e-12)

    def test_zero_input(self):
        dec = SpectralDecomposition.from_diagonal([1.0, 3.0])
        out = resolvent_quadrature_A(np.zeros((2, 2)), dec, 10.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_closed_form_symbol(self):
        spectrum = np.array([1.0, 2.0, 7.5, 20.0, 50.0])
        dec = SpectralDecomposition.from_diagonal(spectrum)
        rng = np.random.default_rng(21)
        v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for m in (1.0, 10.0, 100.0):
            out = resolvent_quadrature_A(v, dec, m, nodes=32)
            table = phi_n_symbol(spectrum[:, None], spectrum[None, :], m)
            np.testing.assert_allclose(out, table * v, atol=1e-8)

    def test_richardson_extrapolation_reaches_limit(self):
        spectrum = np.array([1.0, 4.0, 50.0])
        dec = SpectralDecomposition.from_diagonal(spectrum)
        v = np.ones((3, 3))
        m = 1000.0
        coarse = resolvent_quadrature_A(v, dec, m, nodes=24)
        fine = resolvent_quadrature_A(v, dec, 2.0 * m, nodes=24)
        limit = 0.5 * math.pi * _psi_table(spectrum[:, None], spectrum[None, :])
        np.testing.assert_allclose(2.0 * fine - coarse, limit, atol=1e-6)

    def test_finite_cutoff_gap_matches_prediction(self):
        # the deviation from the infinite-cutoff limit is itself closed-form
        spectrum = np.array([1.0, 9.0])
        dec = SpectralDecomposition.from_diagonal(spectrum)
        v = np.ones((2, 2))
        m = 500.0
        out = resolvent_quadrature_A(v, dec, m, nodes=32)
        psi = _psi_table(spectrum[:, None], spectrum[None, :])
        predicted_gap = 0.5 * math.pi * psi - phi_n_symbol(
            spectrum[:, None], spectrum[None, :], m
        )
        observed_gap = 0.5 * math.pi * psi - out.real
        np.testing.assert_allclose(observed_gap, predicted_gap, atol=1e-9)

    def test_hermitian_input_stays_hermitian(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = 0.5 * (g + g.conj().T)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        dec = SpectralDecomposition.from_matrix((q * [1.0, 2.0, 3.0, 4.0]) @ q.T)
        out = resolvent_quadrature_A(v, dec, 20.0)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_preconditions(self):
        dec = SpectralDecomposition.from_diagonal([0.5, 2.0])
        with pytest.raises(ValueError, match=r"\[1, inf\)"):
            resolvent_quadrature_A(np.eye(2), dec, 10.0)
        good = SpectralDecomposition.from_diagonal([1.0, 2.0])
        with pytest.raises(ValueError, match="16"):
            resolvent_quadrature_A(np.eye(2), good, 10.0, nodes=8)
        with pytest.raises(ValueError, match="cutoff"):
            resolvent_quadrature_A(np.eye(2), good, -1.0)
        with pytest.raises(ValueError, match="incompatible"):
            resolvent_quadrature_A(np.eye(3), good, 10.0)
