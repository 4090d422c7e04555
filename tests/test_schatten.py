import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.schatten import (
    SingularSpectrum,
    dixmier_approximant,
    fit_weak_decay,
    singular_values,
    weak_quasinorm,
)


def harmonic(n):
    return SingularSpectrum(1.0 / np.arange(1.0, n + 1.0))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSingularValues:
    def test_identity(self):
        s = singular_values(np.eye(3))
        np.testing.assert_allclose(s.values, [1.0, 1.0, 1.0])

    def test_positive_diagonal(self):
        s = singular_values(np.diag([1.0, 0.5, 1.0 / 3.0]))
        np.testing.assert_allclose(s.values, [1.0, 0.5, 1.0 / 3.0])

    def test_nilpotent_jordan_block(self):
        # A^* A = diag(0, 4), so the singular values are 2 and 0.
        s = singular_values(np.array([[0.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_allclose(s.values, [2.0, 0.0], atol=1e-15)

    def test_rectangular_length(self):
        rng = np.random.default_rng(42)
        a = random_complex(rng, (3, 7))
        assert len(singular_values(a)) == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_direct_sum_matches_block_diagonal(self):
        from scipy.linalg import block_diag

        rng = np.random.default_rng(11)
        blocks = [random_complex(rng, shape) for shape in ((3, 5), (4, 2), (2, 2))]
        summed = singular_values(*blocks)
        # 3 + 2 + 2 block values, padded with exact zeros to min(9, 9)
        assert len(summed) == 9
        assert np.array_equal(summed.values[7:], [0.0, 0.0])
        np.testing.assert_allclose(
            summed.values, singular_values(block_diag(*blocks)).values, atol=1e-12
        )

    def test_direct_sum_clamps_against_the_largest_block_value(self):
        s = singular_values(np.diag([2.0, 0.5]), np.array([[1e-14]]))
        np.testing.assert_array_equal(s.values, [2.0, 0.5, 0.0])
        assert s.clamped == 1

    def test_empty_blocks_are_skipped(self):
        s = singular_values(np.zeros((0, 2)), np.eye(2))
        np.testing.assert_array_equal(s.values, [1.0, 1.0])
        # a 0 x 2 and a 3 x 0 block sum to the 3 x 2 zero matrix
        s = singular_values(np.zeros((0, 2)), np.zeros((3, 0)))
        np.testing.assert_array_equal(s.values, [0.0, 0.0])
        with pytest.raises(ValueError, match="nonempty"):
            singular_values(np.zeros((0, 2)), np.zeros((0, 3)))

    def test_clamp_count(self):
        s = singular_values(np.diag([1.0, 1e-14, 0.0]))
        np.testing.assert_array_equal(s.values, [1.0, 0.0, 0.0])
        assert s.clamped == 1

    def test_unitary_invariance(self):
        rng = np.random.default_rng(42)
        a = random_complex(rng, (8, 8))
        u, _ = np.linalg.qr(random_complex(rng, (8, 8)))
        v, _ = np.linalg.qr(random_complex(rng, (8, 8)))
        np.testing.assert_allclose(
            singular_values(u @ a @ v).values,
            singular_values(a).values,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_subadditivity_of_shifted_indices(self):
        # mu(k+j; A+B) <= mu(k; A) + mu(j; B), spot check on random 8x8.
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_complex(rng, (8, 8))
            b = random_complex(rng, (8, 8))
            ma = singular_values(a).values
            mb = singular_values(b).values
            ms = singular_values(a + b).values
            for k in range(8):
                for j in range(8 - k):
                    assert ms[k + j] <= ma[k] + mb[j] + 1e-12


class TestSpectrumValidation:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            SingularSpectrum(np.array([1.0, 2.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SingularSpectrum(np.array([1.0, -0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SingularSpectrum(np.array([]))

    def test_values_immutable(self):
        s = harmonic(4)
        with pytest.raises(ValueError):
            s.values[0] = 2.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
    def test_sorted_input_always_accepted(self, values):
        s = SingularSpectrum(np.sort(values)[::-1])
        assert len(s) == len(values)


class TestWeakQuasinorm:
    def test_harmonic_is_one(self):
        assert weak_quasinorm(harmonic(500), 1.0) == pytest.approx(1.0)

    def test_flat_spectrum(self):
        s = SingularSpectrum(np.ones(3))
        assert weak_quasinorm(s, 2.0) == pytest.approx(math.sqrt(3.0))

    def test_zero_spectrum(self):
        s = SingularSpectrum(np.zeros(3))
        assert weak_quasinorm(s, 1.5) == 0.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            weak_quasinorm(harmonic(3), 0.0)

    def test_hoelder_product_bound_on_diagonals(self):
        # (k+1)^{1/r} mu(k; AB) <= 4 (k+1)^{1/p} mu(A) (k+1)^{1/q} mu(B)
        # for 1/r = 1/p + 1/q; checked on diagonal factors where the singular
        # values of the product are the sorted entrywise products.
        rng = np.random.default_rng(42)
        for p, q in [(1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (4.0, 4.0)]:
            r = 1.0 / (1.0 / p + 1.0 / q)
            for _ in range(10):
                da = np.sort(rng.uniform(0.01, 2.0, size=16))[::-1]
                db = np.sort(rng.uniform(0.01, 2.0, size=16))[::-1]
                lhs = weak_quasinorm(singular_values(np.diag(da * db)), r)
                rhs = weak_quasinorm(singular_values(np.diag(da)), p) * weak_quasinorm(
                    singular_values(np.diag(db)), q
                )
                assert lhs <= 4.0 * rhs + 1e-12

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30),
        st.floats(min_value=0.25, max_value=8.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60)
    def test_homogeneity(self, values, p, c):
        mu = np.sort(values)[::-1]
        scaled = weak_quasinorm(SingularSpectrum(c * mu), p)
        base = weak_quasinorm(SingularSpectrum(mu), p)
        assert scaled == pytest.approx(c * base, rel=1e-12)


class TestDixmierApproximant:
    def test_harmonic_calibration(self):
        s = harmonic(10**4)
        value = dixmier_approximant(s, 10**4)
        assert abs(value - 1.0) < 0.15

    def test_error_decreases_with_window(self):
        s = harmonic(10**5)
        errors = [abs(dixmier_approximant(s, n) - 1.0) for n in (10**2, 10**3, 10**4, 10**5)]
        assert errors == sorted(errors, reverse=True)

    def test_summable_spectrum_drains(self):
        mu = 1.0 / np.arange(1.0, 10**5 + 1.0) ** 2
        s = SingularSpectrum(mu)
        assert dixmier_approximant(s, 10**5) < dixmier_approximant(s, 10**2)
        assert dixmier_approximant(s, 10**5) < 0.15

    def test_zero(self):
        assert dixmier_approximant(SingularSpectrum(np.zeros(10)), 10) == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="at least one"):
            dixmier_approximant(harmonic(5), 0)
        with pytest.raises(ValueError, match="exceeds"):
            dixmier_approximant(harmonic(5), 6)


class TestWeakFit:
    def test_power_law_slope_recovered(self):
        k = np.arange(1.0, 2001.0)
        s = SingularSpectrum(k**-0.25)
        fit = fit_weak_decay(s, fit_range=(10, 100))
        assert fit.slope == pytest.approx(-0.25, abs=1e-6)
        assert fit.fit_range == (10, 100)
