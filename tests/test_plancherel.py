import math

import numpy as np
import pytest
from scipy import integrate

from heislab.oscillator import (
    FiberOperator,
    enumerate_basis,
    matrix_unit,
    oscillator_matrix,
    tensor_scalar,
)
from heislab.plancherel import (
    NonIntegrableError,
    PlancherelQuadrature,
    _incursion_level,
    incursion_distribution,
    incursion_profile,
    tau_radial,
    weak_distribution_brute,
    weak_norm_lift,
)

from oracles import fiber_identity, fiber_schatten_norm


def random_fiber(rng, basis):
    shape = (basis.dim, basis.dim)
    return FiberOperator(
        basis,
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )


class TestQuadrature:
    def test_geometry(self):
        q = PlancherelQuadrature.geometric(1)
        assert np.all(q.nodes != 0.0)
        assert np.all(q.weights >= 0.0)
        np.testing.assert_array_equal(np.sort(q.nodes), -np.sort(-q.nodes)[::-1])

    def test_smooth_profile_integral(self):
        # integral of |s| e^{-|s|} over the line is 2
        q = PlancherelQuadrature.geometric(1)
        total = q.integrate_profile(lambda s: math.exp(-abs(s)))
        assert total == pytest.approx(2.0, abs=1e-8)

    def test_unit_cutoff_is_exact(self):
        q = PlancherelQuadrature.geometric(1, s_min=1e-4)
        total = q.integrate_profile(lambda s: 1.0 if abs(s) <= 1.0 else 0.0)
        assert total == pytest.approx(1.0 - 1e-8, rel=1e-14)

    def test_dimension_two_weight(self):
        # integral of s^2 e^{-|s|} over the line is 2 Gamma(3) = 4
        q = PlancherelQuadrature.geometric(2)
        total = q.integrate_profile(lambda s: math.exp(-abs(s)))
        assert total == pytest.approx(4.0, abs=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError, match="s = 0"):
            PlancherelQuadrature(np.array([-1.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError, match="symmetric"):
            PlancherelQuadrature(np.array([-1.0, 2.0]), np.ones(2))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PlancherelQuadrature(np.array([-1.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="matching"):
            PlancherelQuadrature(np.array([-1.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError):
            PlancherelQuadrature.geometric(1, s_min=1.0, s_max=0.1)

    def test_reordering_leaves_sums_alone(self):
        rng = np.random.default_rng(0)
        q = PlancherelQuadrature.geometric(1, nodes_per_decade=8)
        perm = rng.permutation(q.size)
        shuffled = PlancherelQuadrature(q.nodes[perm], q.weights[perm])
        a = q.integrate_profile(lambda s: math.exp(-abs(s)))
        b = shuffled.integrate_profile(lambda s: math.exp(-abs(s)))
        assert a == pytest.approx(b, rel=1e-13)


class TestTauRadial:
    def test_exponential(self):
        assert tau_radial(lambda s: math.exp(-s), 1) == pytest.approx(1.0, abs=1e-8)

    def test_squared_exponential(self):
        # Gamma(2) / 2^2
        assert tau_radial(lambda s: math.exp(-2.0 * s), 1) == pytest.approx(0.25, abs=1e-8)

    def test_zero_profile(self):
        assert tau_radial(lambda s: 0.0, 1) == 0.0

    def test_dimension_two(self):
        # Gamma(3) = 2
        assert tau_radial(lambda s: math.exp(-s), 2) == pytest.approx(2.0, abs=1e-8)

    def test_divergent_at_origin(self):
        with pytest.raises(NonIntegrableError):
            tau_radial(lambda s: s**-3.0 if s > 0 else math.inf, 1)

    def test_divergent_at_infinity(self):
        with pytest.raises(NonIntegrableError):
            tau_radial(lambda s: 1.0, 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            tau_radial(lambda s: 0.0, -1)


def quad_radial(g, n):
    """The oracle: QUADPACK's infinite-range rule on the same integral."""
    total, _ = integrate.quad(lambda s: g(s) * s**n, 0.0, np.inf, limit=200)
    return total


# profile, dimension, exact integral, relative bound
ORACLE_PROFILES = {
    # integrable singularity at 0: the bound is tau_radial's own acceptance
    "exp_over_root": (lambda s: math.exp(-s) / math.sqrt(s), 0, math.sqrt(math.pi), 1e-7),
    "rational": (lambda s: (1.0 + s) ** -4, 1, 1.0 / 6.0, 1e-12),
    "gaussian": (lambda s: math.exp(-s * s), 2, math.sqrt(math.pi) / 4.0, 1e-12),
    # interior jump
    "unit_step": (lambda s: 1.0 if s < 1.0 else 0.0, 1, 0.5, 1e-12),
}


class TestTauRadialOracle:
    """The Gauss-Legendre bisection against scipy's quad and the exact values."""

    @pytest.mark.parametrize("name", sorted(ORACLE_PROFILES))
    def test_matches_quad_and_exact(self, name):
        g, n, exact, bound = ORACLE_PROFILES[name]
        value = tau_radial(g, n)
        assert abs(value - exact) <= bound * exact
        assert abs(value - quad_radial(g, n)) <= bound * exact

    def test_log_divergence_raises(self):
        # integral of 1/(1 + s) diverges logarithmically at infinity
        with pytest.raises(NonIntegrableError):
            tau_radial(lambda s: 1.0 / (1.0 + s), 0)


class TestWeakNormLift:
    def test_rank_one_oracle(self):
        basis = enumerate_basis(1, 2)
        e00 = matrix_unit(basis, (0,), (0,))
        x = FiberOperator(basis, e00, np.zeros_like(e00))
        quasinorm, dist = weak_norm_lift(x, 1)
        assert quasinorm == pytest.approx(0.5**0.25, abs=1e-12)
        assert dist(2.0) == pytest.approx(0.5 * 2.0**-4, rel=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        basis = enumerate_basis(1, 3)
        x = random_fiber(rng, basis)
        base, _ = weak_norm_lift(x, 1)
        scaled, _ = weak_norm_lift(FiberOperator(basis, 3.5 * x.minus, 3.5 * x.plus), 1)
        assert scaled == pytest.approx(3.5 * base, rel=1e-12)

    def test_orthogonal_doubling(self):
        basis = enumerate_basis(1, 2)
        e00 = matrix_unit(basis, (0,), (0,))
        one_block = FiberOperator(basis, e00, np.zeros_like(e00))
        both_blocks = FiberOperator(basis, e00, e00)
        a, _ = weak_norm_lift(one_block, 1)
        b, _ = weak_norm_lift(both_blocks, 1)
        assert b == pytest.approx(2.0**0.25 * a, rel=1e-12)

    def test_matches_pooled_schatten_norm(self):
        rng = np.random.default_rng(8)
        for n in (1, 2):
            basis = enumerate_basis(n, 2)
            x = random_fiber(rng, basis)
            quasinorm, _ = weak_norm_lift(x, n)
            p = 2 * n + 2
            expected = (1.0 / (n + 1)) ** (1.0 / p) * fiber_schatten_norm(x, p)
            assert quasinorm == pytest.approx(expected, rel=1e-12)

    def test_brute_force_distribution_agreement(self):
        rng = np.random.default_rng(11)
        for trial in range(4):
            basis = enumerate_basis(1, int(rng.integers(2, 6)))
            x = random_fiber(rng, basis)
            _, dist = weak_norm_lift(x, 1)
            for t in (0.7, 2.0, 9.0):
                assert dist(t) == pytest.approx(
                    weak_distribution_brute(x, 1, t), rel=1e-10
                )

    def test_zero_operator(self):
        basis = enumerate_basis(1, 1)
        zero = FiberOperator(
            basis, np.zeros((basis.dim, basis.dim)), np.zeros((basis.dim, basis.dim))
        )
        quasinorm, dist = weak_norm_lift(zero, 1)
        assert quasinorm == 0.0
        assert dist(1.0) == 0.0

    def test_inverse_root_oscillator_tail(self):
        basis = enumerate_basis(1, 40)
        h_inv_sqrt = np.diag(np.diag(oscillator_matrix(basis)) ** -0.5)
        x = tensor_scalar(basis, h_inv_sqrt, "one")
        quasinorm, _ = weak_norm_lift(x, 1)
        assert quasinorm**4 == pytest.approx(math.pi**2 / 8.0, rel=1e-2)

    def test_rejects_bad_level(self):
        basis = enumerate_basis(1, 1)
        _, dist = weak_norm_lift(fiber_identity(basis), 1)
        with pytest.raises(ValueError):
            dist(0.0)
        with pytest.raises(ValueError):
            weak_distribution_brute(fiber_identity(basis), 1, -1.0)


class TestIncursion:
    def test_half_level(self):
        s_half = 1.0 - 2.0**-0.25
        assert incursion_distribution(1, s_half) == pytest.approx(0.5, abs=1e-10)

    def test_vanishes_at_top(self):
        assert incursion_distribution(1, 0.999) < 1e-15

    def test_monotone_decreasing(self):
        s = np.linspace(0.01, 0.99, 50)
        vals = incursion_distribution(1, s)
        assert np.all(np.diff(vals) < 0.0)

    def test_decay_exponent(self):
        report = incursion_profile(1)
        assert report.fitted_exponent == pytest.approx(-0.5, abs=0.05)
        assert report.target_exponent == -0.5
        report2 = incursion_profile(2)
        assert report2.fitted_exponent == pytest.approx(-1.0 / 3.0, abs=0.05)

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_inverse(self, n):
        # incursion_profile samples these heights; its levels map back to them
        heights = np.geomspace(1e2, 1e6, 25)
        back = incursion_distribution(n, _incursion_level(n, heights))
        np.testing.assert_allclose(back, heights, rtol=1e-12, atol=0.0)

    def test_decay_exponent_matches_root_finding(self):
        # the fitted exponent of 25 brentq inversions (xtol 2e-12) was
        # -0.5 + 0.0036820752148
        report = incursion_profile(1)
        assert abs(report.fitted_exponent + 0.5 - 0.0036820752148) <= 1e-9

    def test_rejects_levels_outside_unit_interval(self):
        with pytest.raises(ValueError):
            incursion_distribution(1, 0.0)
        with pytest.raises(ValueError):
            incursion_distribution(1, [0.5, 1.5])
