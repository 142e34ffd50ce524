"""One-body function tests: frozen oracle values, identities, derivative signs.

Frozen constants were computed with the adaptive-integration oracles in
``oracles.py`` (absolute tolerance 1e-14) before the quadrature path
existed; the live oracle is also consulted where the runtime cost is small.
"""

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

from nishimori_dbm.special_functions import (
    F_MAX,
    PRUNE_RATIO,
    QuadratureRule,
    big_f,
    big_f_and_prime,
    big_f_inverse,
    big_f_prime,
    default_rule,
    log2cosh,
    nishimori_residual,
    psi,
)

from oracles import big_f_quad, bisect, psi_quad

# adaptive-integration oracle values, frozen
PSI_AT_1 = 1.3563163602131139
BIG_F_AT_1 = 0.5504004907933273
F_INVERSE_AT_HALF = 0.8508444376141608

LOG2 = np.log(2.0)


class TestQuadratureRule:
    def test_moments(self):
        rule = default_rule()
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert abs(float(rule.weights @ rule.nodes)) < 1e-12
        assert abs(float(rule.weights @ rule.nodes**2) - 1.0) < 1e-12

    def test_order_configurable(self):
        rule = QuadratureRule.gauss_hermite(64)
        assert rule.order == 64
        assert abs(psi(1.0, rule) - PSI_AT_1) < 1e-8

    def test_default_rule_is_pruned(self):
        rule = default_rule()
        assert rule.order == 1600
        assert rule.nodes.size == 232
        assert np.all(rule.weights >= PRUNE_RATIO * rule.weights.max())
        assert np.max(np.abs(rule.nodes)) == pytest.approx(9.0895, abs=1e-4)
        # the moment checks of __post_init__ ran on the pruned rule; repeat them
        QuadratureRule(nodes=rule.nodes, weights=rule.weights, order=rule.order)

    def test_pruning_moves_no_expectation(self):
        nodes, weights = roots_hermitenorm(1600)
        full = QuadratureRule(nodes=nodes, weights=weights / weights.sum(), order=1600)
        hs = np.concatenate([[0.0], np.logspace(-6, 2, 33)])
        for kernel, tol in ((big_f, 1e-16), (big_f_prime, 1e-16), (psi, 4e-16)):
            np.testing.assert_allclose(kernel(hs), kernel(hs, full), rtol=tol, atol=tol)

    def test_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]),
                           order=2)  # E[z] != 0
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([0.7, 0.7]),
                           order=2)  # weights don't sum to 1


class TestPsi:
    def test_at_zero_is_log2(self):
        assert psi(0.0) == pytest.approx(LOG2, abs=1e-15)

    def test_slope_one_half_at_origin(self):
        # psi'(0) = (1 + F(0)) / 2 = 1/2
        x = 1e-8
        assert abs((psi(x) - psi(0.0)) - 0.5 * x) < 1e-12

    def test_against_integration_oracle(self):
        assert abs(psi(1.0) - PSI_AT_1) < 1e-12
        assert abs(psi(0.37) - psi_quad(0.37)) < 1e-12

    def test_result_at_least_log2(self):
        for x in np.linspace(0.0, 30.0, 10):
            assert psi(x) >= LOG2 - 1e-15

    def test_clamps_tiny_negative(self):
        assert psi(-5e-15) == pytest.approx(LOG2, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            psi(-1e-10)

    def test_asymptotic_branch(self):
        assert psi(2e4) == pytest.approx(2e4, rel=1e-14)

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(psi(xs), [psi(float(v)) for v in xs], rtol=0,
                                   atol=1e-15)


class TestBigF:
    def test_at_zero(self):
        assert big_f(0.0) == 0.0

    def test_saturates(self):
        assert big_f(50.0) > 0.99
        assert big_f(50.0) < 1.0

    def test_against_integration_oracle(self):
        assert abs(big_f(1.0) - BIG_F_AT_1) < 1e-12
        assert abs(big_f(2.6) - big_f_quad(2.6)) < 1e-12

    def test_strictly_increasing(self):
        hs = np.linspace(0.0, 20.0, 30)
        vals = big_f(hs)
        assert np.all(np.diff(vals) > 0.0)

    def test_stays_below_one(self):
        assert big_f(1e6) < 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            big_f(-1e-10)


class TestBigFPrime:
    def test_at_zero_is_one(self):
        assert big_f_prime(0.0) == pytest.approx(1.0, abs=1e-13)

    def test_matches_finite_difference(self):
        h, d = 0.7, 1e-5
        fd = (big_f(h + d) - big_f(h - d)) / (2.0 * d)
        assert abs(big_f_prime(h) - fd) < 1e-8

    def test_decreasing(self):
        assert big_f_prime(2.0) < big_f_prime(1.0)

    def test_positive(self):
        for h in np.linspace(0.0, 30.0, 10):
            assert big_f_prime(h) > 0.0


class TestBigFInverse:
    def test_at_zero(self):
        assert big_f_inverse(0.0) == 0.0

    def test_round_trip(self):
        assert abs(big_f_inverse(big_f(1.3)) - 1.3) < 1e-9

    def test_against_bisection_oracle(self):
        # bisection against the adaptive-integration F, tolerance 1e-10
        oracle = bisect(lambda h: big_f_quad(h) - 0.5, 0.0, 4.0)
        assert abs(oracle - F_INVERSE_AT_HALF) < 1e-12
        assert abs(big_f_inverse(0.5) - oracle) < 1e-10

    def test_monotone(self):
        ys = np.linspace(0.01, 0.95, 20)
        hs = big_f_inverse(ys)
        assert np.all(np.diff(hs) > 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            big_f_inverse(-0.01)
        with pytest.raises(ValueError):
            big_f_inverse(1.0 - 1e-13)


# h from 0 through the asymptotic cutoff 1e4 and beyond
PARITY_GRID = [0.0, 1e-300, *np.logspace(-6, 2, 17).tolist(), 1e4 - 1.0, 1e4 + 1.0, 1e6]
KERNELS = [psi, big_f, big_f_prime]


def close(a, b, rel=4e-16):
    return abs(a - b) <= rel * max(1.0, abs(b))


class TestKernelParity:
    """Float, np.float64 and array arguments give the same values."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
    def test_scalar_and_array_paths_agree(self, kernel):
        array = kernel(np.array(PARITY_GRID))
        for h, a in zip(PARITY_GRID, array):
            f, f64 = kernel(h), kernel(np.float64(h))
            assert type(f) is float and type(f64) is float
            assert f == f64
            assert close(f, a), (h, f, a)

    def test_fused_equals_separate_kernels(self):
        for h in PARITY_GRID:
            f, f_prime = big_f_and_prime(h)
            assert type(f) is float and type(f_prime) is float
            assert close(f, big_f(h)) and close(f_prime, big_f_prime(h))
        f, f_prime = big_f_and_prime(np.array(PARITY_GRID))
        assert f.shape == f_prime.shape == (len(PARITY_GRID),)
        for h, fa, fpa in zip(PARITY_GRID, f, f_prime):
            assert close(fa, big_f(h)) and close(fpa, big_f_prime(h))

    @pytest.mark.parametrize("kernel", KERNELS + [big_f_and_prime],
                             ids=lambda f: f.__name__)
    def test_clamp_and_domain_on_both_paths(self, kernel):
        at_zero = np.array(kernel(0.0))
        np.testing.assert_array_equal(np.array(kernel(-1e-15)), at_zero)
        np.testing.assert_array_equal(np.array(kernel(np.array([-1e-15]))).ravel(),
                                      at_zero.ravel())
        with pytest.raises(ValueError):
            kernel(-1e-13)
        with pytest.raises(ValueError):
            kernel(np.array([0.5, -1e-13]))

    def test_f_max_cap_on_both_paths(self):
        array = big_f(np.array(PARITY_GRID))
        fused = big_f_and_prime(np.array(PARITY_GRID))[0]
        assert np.all(array <= F_MAX) and np.all(fused <= F_MAX)
        for h in PARITY_GRID:
            assert big_f(h) <= F_MAX and big_f_and_prime(h)[0] <= F_MAX
        assert big_f(1e6) == big_f(1e4 + 1.0) == F_MAX
        # at 1e4 - 1 every node is saturated and the quadrature sum is 1.0
        assert big_f(1e4 - 1.0) == big_f(np.array([1e4 - 1.0]))[0] == F_MAX


class TestNaNRejected:
    """NaN raises ValueError on the scalar and the array path of every kernel."""

    NAN_ARGS = [float("nan"), np.float64("nan"), np.array(np.nan), np.array([0.5, np.nan])]

    @pytest.mark.parametrize("kernel", KERNELS + [big_f_and_prime, big_f_inverse],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("arg", NAN_ARGS, ids=["float", "float64", "0-d", "1-d"])
    def test_raises(self, kernel, arg):
        with pytest.raises(ValueError):
            kernel(arg)

    def test_nishimori_residual(self):
        with pytest.raises(ValueError):
            nishimori_residual(float("nan"), 1)


class TestNishimoriResidual:
    def test_zero_at_origin(self):
        assert nishimori_residual(0.0, 1) == 0.0

    @pytest.mark.parametrize("h,n", [(1.0, 1), (4.0, 3)])
    def test_identity_residual_small(self, h, n):
        assert nishimori_residual(h, n) < 1e-10

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            nishimori_residual(1.0, 0)


class TestModuleInvariants:
    def test_residual_grid(self):
        worst = max(
            nishimori_residual(h, n)
            for h in np.logspace(-6, 2, 25)
            for n in (1, 2, 3)
        )
        assert worst < 1e-10

    def test_psi_convex(self):
        d = 1e-3
        for x in np.linspace(0.5, 50.0, 25):
            assert psi(x + d) - 2 * psi(x) + psi(x - d) >= -1e-10

    def test_psi_third_derivative_nonpositive(self):
        d = 1e-2
        for x in np.linspace(0.1, 50.0, 25):
            third = (psi(x + 1.5 * d) - 3 * psi(x + 0.5 * d)
                     + 3 * psi(x - 0.5 * d) - psi(x - 1.5 * d))
            assert third <= 1e-8

    def test_f_equals_two_psi_prime_minus_one(self):
        d = 1e-5
        for h in np.linspace(0.1, 20.0, 15):
            two_psi_prime = (psi(h + d) - psi(h - d)) / d
            assert abs(big_f(h) - two_psi_prime + 1.0) < 1e-6

    def test_round_trip_grid(self):
        for y in np.arange(0.01, 1.0, 0.01):
            assert abs(big_f(big_f_inverse(y)) - y) < 1e-9


def test_log2cosh_stable_at_large_arguments():
    assert log2cosh(1000.0) == pytest.approx(1000.0, rel=1e-15)
    assert log2cosh(-1000.0) == pytest.approx(1000.0, rel=1e-15)
    assert log2cosh(0.0) == pytest.approx(LOG2, abs=1e-16)
