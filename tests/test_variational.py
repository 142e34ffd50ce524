"""Variational pressure, pi machinery, and the three solvers.

The independent transcription oracle below re-implements the pressure
functional directly from its defining sums with the adaptive-integration
psi, sharing no code with the package's evaluation path.
"""

import math

import numpy as np
import pytest

from nishimori_dbm.model import ModelSpec, build_effective, spectral_radius_oo
from nishimori_dbm import variational
from nishimori_dbm.special_functions import big_f
from nishimori_dbm.variational import (
    Method,
    Phase,
    consistency_map,
    grad_p_var,
    grad_pi,
    hessian_pi,
    hessian_pi_symmetrized,
    nested_bisection_chain,
    p_var,
    pi_value,
    scalar_solution,
    solve_fixed_point,
    solve_nested_bisection,
    solve_pi_ascent,
)

from oracles import big_f_quad, bisect, psi_quad, scalar_root_quad

# frozen oracle values (adaptive integration + bisection)
M_STAR_MU4 = 0.6184475093488229          # positive root of m = F(2m)
X_BAR_MU4_H01 = 0.6651377858821612       # root of x = F(2x + 0.1)
SCALAR_SOLUTION_2_1 = 0.8509393611080913  # root of x = F(2x + 1)


def p_var_transcription(x, spec):
    """Direct transcription of the pressure functional on the quad oracle."""
    k = spec.k
    mu_full = spec.mu_matrix()
    m = mu_full * spec.alpha[None, :]
    total = 0.0
    for r in range(k):
        total += spec.alpha[r] * psi_quad(float(m[r] @ x + spec.h[r]))
    for r in range(k - 1):
        delta = spec.alpha[r] * spec.mu[r] * spec.alpha[r + 1]
        total += 0.5 * delta * ((1 - x[r]) * (1 - x[r + 1]) - 2 * x[r] * x[r + 1])
    return total


def random_spec(rng, k, h_low=0.0, h_high=1.0, mu_high=3.0):
    alpha = rng.uniform(0.15, 1.0, size=k)
    alpha /= alpha.sum()
    return ModelSpec(k=k, alpha=alpha, mu=rng.uniform(0.1, mu_high, size=k - 1),
                     h=rng.uniform(h_low, h_high, size=k))


BALANCED_MU4 = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.0, 0.0])
BALANCED_MU4_H = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.1, 0.1])
# base K = 4 chain of the solver cross-check benchmark
BASE_K4_H = ModelSpec(k=4, alpha=[0.3, 0.2, 0.25, 0.25], mu=[2.4, 1.1, 2.9],
                      h=[0.15, 0.4, 0.05, 0.3])


class TestPVar:
    def test_at_origin_zero_field(self):
        spec = ModelSpec(k=3, alpha=[0.2, 0.5, 0.3], mu=[1.2, 2.4], h=[0.0] * 3)
        expected = np.log(2.0) + 0.5 * (0.2 * 1.2 * 0.5 + 0.5 * 2.4 * 0.3)
        assert p_var(np.zeros(3), spec) == pytest.approx(expected, abs=1e-14)

    def test_against_transcription_oracle(self):
        x = np.array([0.5, 0.5])
        assert p_var(x, BALANCED_MU4) == pytest.approx(
            p_var_transcription(x, BALANCED_MU4), abs=1e-9)
        rng = np.random.default_rng(1)
        spec = random_spec(rng, 4, h_low=0.1)
        x = rng.random(4) * 0.8
        assert p_var(x, spec) == pytest.approx(p_var_transcription(x, spec), abs=1e-9)

    def test_odd_even_bilinear_identity(self):
        # the pairwise sum equals the parity bilinear form of the same pressure
        rng = np.random.default_rng(2)
        for k in (2, 4, 5):
            spec = random_spec(rng, k, h_low=0.1)
            em = build_effective(spec)
            x = rng.random(k) * 0.9
            odd, even = np.arange(0, k, 2), np.arange(1, k, 2)
            d_oe = em.delta[np.ix_(odd, even)]
            bilinear = (
                float((1 - x[odd]) @ d_oe @ (1 - x[even])) / 2.0
                - float(x[odd] @ d_oe @ x[even])
            )
            body = float(spec.alpha @ [psi_quad(v) for v in em.m @ x + spec.h])
            direct = p_var(x, spec)
            assert direct == pytest.approx(body + bilinear, abs=1e-9)
            pair = sum(
                0.5 * em.delta[r, r + 1] * ((1 - x[r]) * (1 - x[r + 1])
                                            - 2 * x[r] * x[r + 1])
                for r in range(k - 1)
            )
            assert bilinear == pytest.approx(pair, abs=1e-12)

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            p_var(np.array([0.5, 1.0]), BALANCED_MU4)


class TestGradPVar:
    def test_zero_at_origin_zero_field(self):
        g = grad_p_var(np.zeros(2), BALANCED_MU4)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_finite_difference(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 4, h_low=0.1)
        x = rng.random(4) * 0.7
        g = grad_p_var(x, spec)
        step = 1e-5
        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            fd = (p_var(x + e, spec) - p_var(x - e, spec)) / (2 * step)
            assert g[i] == pytest.approx(fd, abs=1e-6)

    def test_vanishes_at_solver_output(self):
        sol = solve_fixed_point(BALANCED_MU4, tol=1e-11)
        assert np.max(np.abs(grad_p_var(sol.x_bar, BALANCED_MU4))) < 1e-9


class TestConsistencyMap:
    def test_fixed_point_at_zero(self):
        np.testing.assert_allclose(consistency_map(np.zeros(2), BALANCED_MU4), 0.0)

    def test_positive_under_field(self):
        t = consistency_map(np.zeros(2), BALANCED_MU4_H)
        np.testing.assert_allclose(t, big_f(0.1), atol=1e-14)
        assert np.all(t > 0)

    def test_monotone(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, 4, h_low=0.05)
        for _ in range(10):
            x = rng.random(4) * 0.5
            y = x + rng.random(4) * 0.4
            assert np.all(consistency_map(x, spec) <= consistency_map(y, spec) + 1e-15)


class TestSolveFixedPoint:
    def test_subcritical_returns_zero(self):
        # every coupling below 2 forces the zero solution at h = 0
        rng = np.random.default_rng(5)
        for k in (2, 3, 4):
            alpha = rng.dirichlet(np.ones(k))
            spec = ModelSpec(k=k, alpha=alpha, mu=rng.uniform(0.1, 1.9, size=k - 1),
                             h=[0.0] * k)
            sol = solve_fixed_point(spec, init=np.full(k, 0.9), tol=1e-10)
            assert np.max(sol.x_bar) < 1e-6
            assert sol.phase is Phase.ZERO_SOLUTION

    def test_k2_against_bisection_oracle(self):
        sol = solve_fixed_point(BALANCED_MU4, tol=1e-12)
        live = bisect(lambda m: big_f_quad(2.0 * m) - m, 1e-6, 1.0 - 1e-9)
        assert live == pytest.approx(M_STAR_MU4, abs=1e-11)
        np.testing.assert_allclose(sol.x_bar, M_STAR_MU4, atol=1e-8)
        assert sol.phase is Phase.BROKEN_SYMMETRY
        assert sol.converged

    def test_field_driven_matches_nested_bisection(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, 3, h_low=0.5, h_high=0.5)
        fp = solve_fixed_point(spec, tol=1e-11)
        nb = solve_nested_bisection(spec)
        assert np.all(fp.x_bar > 0)
        np.testing.assert_allclose(fp.x_bar, nb.x_bar, atol=1e-8)
        assert fp.phase is Phase.FIELD_DRIVEN

    def test_iteration_cap_reports_nonconvergence(self):
        sol = solve_fixed_point(BALANCED_MU4_H, tol=1e-10, max_iter=3)
        assert not sol.converged
        assert sol.residual > 0

    def test_exact_fixed_point_needs_no_step(self):
        sol = solve_fixed_point(BALANCED_MU4, init=np.zeros(2), tol=1e-10)
        assert sol.iterations == 1
        assert sol.residual == 0.0 and sol.error_estimate == 0.0
        assert sol.converged

    def test_singular_jacobian_reports_infinite_error(self):
        # at rho = 1 and x = (0, 1e-300), F' rounds to 1 in both layers, so
        # I - D M is exactly singular while T(x) - x is not zero
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[2.0], h=[0.0, 0.0])
        sol = solve_fixed_point(spec, init=[0.0, 1e-300], tol=1e-10, max_iter=1)
        assert sol.error_estimate == np.inf
        assert not sol.converged


class TestNearCriticality:
    """Balanced K = 2 machine at h = 0, tol = 1e-9, across rho = (mu / 2)^2 = 1.

    Both layers solve x = F(mu x / 2); at mu = 2 the root x = 0 is double and
    Newton from above slows to rate 1/2.  A residual-based stop would leave
    x ~ 2e-6 at mu = 1.999 and a 0.4% error at mu = 2.001.
    """

    TOL = 1e-9

    def solve(self, mu):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[mu], h=[0.0, 0.0])
        return solve_fixed_point(spec, tol=self.TOL)

    def test_just_below_is_zero(self):
        sol = self.solve(1.999)
        assert sol.phase is Phase.ZERO_SOLUTION
        assert np.max(sol.x_bar) <= self.TOL
        assert sol.converged

    def test_at_the_double_root(self):
        sol = self.solve(2.0)
        assert np.max(sol.x_bar) <= 10 * self.TOL
        assert sol.converged

    @pytest.mark.parametrize("mu", [2.001, 2.01])
    def test_just_above_matches_oracle(self, mu):
        sol = self.solve(mu)
        np.testing.assert_allclose(sol.x_bar, scalar_root_quad(mu / 2, 0.0),
                                   atol=10 * self.TOL, rtol=0)
        assert sol.phase is Phase.BROKEN_SYMMETRY
        assert sol.converged

    @pytest.mark.parametrize("mu", [1.999, 2.0, 2.001, 2.01])
    def test_error_estimate_bounds_half_the_error(self, mu):
        # the estimate is the next Newton correction: about the error at a
        # simple root, half of it at the double root mu = 2, where T(x) - x
        # ~ x^2 ~ 1e-18 carries a relative rounding error of about 1%;
        # 1e-13 is the agreement between the package's rule and the oracle
        sol = self.solve(mu)
        exact = scalar_root_quad(mu / 2, 0.0) if mu > 2.0 else 0.0
        error = float(np.max(np.abs(sol.x_bar - exact)))
        assert error <= 2.04 * sol.error_estimate + 1e-13
        assert sol.error_estimate <= self.TOL


class TestNearCriticalityPiAscent(TestNearCriticality):
    """The same checks for Newton ascent on pi; the K = 2 chain is even.

    pi is flat to rounding near rho = 1, so a line search without a
    rounding allowance, or a stop on a backtracked step, ends far from the
    fixed point.
    """

    def solve(self, mu):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[mu], h=[0.0, 0.0])
        return solve_pi_ascent(spec, tol=self.TOL)


class TestPi:
    def test_at_origin(self):
        assert pi_value(np.array([0.0]), BALANCED_MU4) == pytest.approx(
            np.log(2.0) + 0.5, abs=1e-14)

    def test_lower_bound_property(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 4, h_low=0.05)
        for _ in range(20):
            x_o = rng.uniform(0.0, 0.9, size=2)
            bound = pi_value(x_o, spec)
            for _ in range(5):
                x = np.empty(4)
                x[0::2] = x_o
                x[1::2] = rng.uniform(0.0, 0.95, size=2)
                assert bound <= p_var(x, spec) + 1e-12

    def test_k2_against_grid_minimization_oracle(self):
        # two-stage grid search over x_e on the transcription oracle
        x_o = np.array([0.4])

        def value(xe):
            return p_var_transcription(np.array([0.4, xe]), BALANCED_MU4)

        coarse = np.linspace(0.0, 0.999, 200)
        best = coarse[int(np.argmin([value(xe) for xe in coarse]))]
        fine = np.linspace(max(best - 0.01, 0.0), min(best + 0.01, 0.999), 400)
        oracle = min(value(xe) for xe in fine)
        assert pi_value(x_o, BALANCED_MU4) == pytest.approx(oracle, abs=1e-6)

    def test_requires_even_k(self):
        spec = ModelSpec(k=3, alpha=[1 / 3] * 3, mu=[1.0, 1.0], h=[0.0] * 3)
        with pytest.raises(ValueError, match="even"):
            pi_value(np.array([0.1, 0.1]), spec)

    def test_singular_m_oe_points_to_decoupling(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.0, 1.0, 0.0], h=[0.0] * 4)
        with pytest.raises(ValueError, match="decouple"):
            pi_value(np.array([0.1, 0.1]), spec)


class TestGradPi:
    def test_finite_difference(self):
        rng = np.random.default_rng(8)
        spec = random_spec(rng, 4, h_low=0.05)
        x_o = rng.uniform(0.1, 0.7, size=2)
        g = grad_pi(x_o, spec)
        step = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (pi_value(x_o + e, spec) - pi_value(x_o - e, spec)) / (2 * step)
            assert g[i] == pytest.approx(fd, abs=1e-6)

    def test_vanishes_at_solution(self):
        rng = np.random.default_rng(9)
        spec = random_spec(rng, 4, h_low=0.2)
        sol = solve_fixed_point(spec, tol=1e-12)
        assert np.max(np.abs(grad_pi(sol.x_bar[0::2], spec))) < 1e-8

    def test_positive_along_perron_direction_when_supercritical(self):
        # rho > 1 at h = 0: pi increases from the origin along v
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[3.0, 3.0, 3.0], h=[0.0] * 4)
        from nishimori_dbm.model import perron_vector
        v = perron_vector(build_effective(spec))
        for eps in (1e-3, 1e-2):
            assert float(grad_pi(eps * v, spec) @ v) > 0.0


class TestHessianPi:
    def test_negative_definite_when_subcritical(self):
        rng = np.random.default_rng(10)
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.5, 1.2, 1.7],
                         h=[0.1, 0.0, 0.2, 0.05])
        assert spectral_radius_oo(build_effective(spec)) < 1.0
        for _ in range(5):
            x_o = rng.uniform(0.05, 0.8, size=2)
            assert np.all(np.linalg.eigvalsh(hessian_pi_symmetrized(x_o, spec)) < 0.0)
            assert np.all(np.linalg.eigvals(hessian_pi(x_o, spec)).real < 0.0)

    def test_origin_signs_match_m2_block(self):
        # at the origin with h = 0, D is the identity and the Hessian signs
        # are those of -1 + [M^2]^(oo)
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[2.5, 2.5, 2.5], h=[0.0] * 4)
        em = build_effective(spec)
        from nishimori_dbm.model import m_squared_oo
        ref = np.linalg.eigvals(-np.eye(2) + m_squared_oo(em))
        got = np.linalg.eigvalsh(
            hessian_pi_symmetrized(np.full(2, 1e-12), spec))
        assert np.sum(ref.real > 0) == np.sum(got > 0)

    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 4, h_low=0.05)
        x_o = rng.uniform(0.2, 0.6, size=2)
        h_mat = hessian_pi(x_o, spec)
        step = 1e-4
        fd = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd[:, i] = (grad_pi(x_o + e, spec) - grad_pi(x_o - e, spec)) / (2 * step)
        np.testing.assert_allclose(h_mat, fd, atol=1e-4)

    def test_symmetrized_shares_inertia(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 6, h_low=0.05, mu_high=3.5)
        x_o = rng.uniform(0.1, 0.7, size=3)
        eig_h = np.linalg.eigvals(hessian_pi(x_o, spec)).real
        eig_s = np.linalg.eigvalsh(hessian_pi_symmetrized(x_o, spec))
        assert np.sum(eig_h > 0) == np.sum(eig_s > 0)


class TestSolvePiAscent:
    def test_subcritical_zero(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.4, 1.1, 1.6], h=[0.0] * 4)
        sol = solve_pi_ascent(spec, tol=1e-10)
        assert np.max(sol.x_bar) < 1e-6
        assert sol.phase is Phase.ZERO_SOLUTION

    def test_supercritical_positive(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[3.0, 2.8, 3.0], h=[0.0] * 4)
        sol = solve_pi_ascent(spec, tol=1e-10)
        assert np.all(sol.x_bar > 0.01)
        assert sol.phase is Phase.BROKEN_SYMMETRY

    def test_matches_fixed_point_under_field(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[1.9, 0.7, 2.6],
                         h=[0.1, 0.2, 0.3, 0.4])
        fp = solve_fixed_point(spec, tol=1e-11)
        pa = solve_pi_ascent(spec, tol=1e-10)
        np.testing.assert_allclose(pa.x_bar, fp.x_bar, atol=1e-7)
        assert pa.method is Method.PI_ASCENT

    def test_rejects_odd_k(self):
        spec = ModelSpec(k=3, alpha=[1 / 3] * 3, mu=[1.0, 1.0], h=[0.0] * 3)
        with pytest.raises(ValueError, match="even"):
            solve_pi_ascent(spec)

    def test_one_f_inverse_per_evaluated_point(self, monkeypatch):
        # pi is evaluated once at the start and once per line-search trial;
        # gradient and Hessian reuse the F^{-1} of the accepted point
        calls = {"finv": 0, "value": 0}
        finv, value = variational.big_f_inverse, variational._PiChain.value

        def counted_finv(*args, **kwargs):
            calls["finv"] += 1
            return finv(*args, **kwargs)

        def counted_value(*args, **kwargs):
            calls["value"] += 1
            return value(*args, **kwargs)

        monkeypatch.setattr(variational, "big_f_inverse", counted_finv)
        monkeypatch.setattr(variational._PiChain, "value", counted_value)
        sol = solve_pi_ascent(BASE_K4_H, tol=1e-10)
        assert sol.converged
        trials = calls["value"] - 1
        assert calls["finv"] <= sol.iterations + trials + 1


class TestScalarSolution:
    def test_monotone_in_both_arguments(self):
        assert scalar_solution(2.0, 0.5) > scalar_solution(1.0, 0.5)
        assert scalar_solution(1.0, 1.0) > scalar_solution(1.0, 0.5)

    def test_saturates_at_large_field(self):
        assert scalar_solution(1.0, 50.0) > 0.99

    def test_against_bisection_oracle(self):
        live = scalar_root_quad(2.0, 1.0)
        assert live == pytest.approx(SCALAR_SOLUTION_2_1, abs=1e-10)
        assert scalar_solution(2.0, 1.0) == pytest.approx(live, abs=1e-10)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            scalar_solution(0.0, 1.0)
        with pytest.raises(ValueError):
            scalar_solution(1.0, 0.0)


class TestOneKernelPassPerNewtonStep:
    """The Newton loops take F and F' from one fused call per step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"big_f": 0, "big_f_prime": 0, "big_f_and_prime": 0}
        for name in counts:
            original = getattr(variational, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(variational, name, counted)
        return counts

    def test_scalar_solution(self, calls):
        x = scalar_solution(2.0, 0.1)
        assert x == pytest.approx(X_BAR_MU4_H01, abs=1e-10)
        # the start F(t + h), then 5 Newton steps of one fused call each
        assert calls == {"big_f": 1, "big_f_prime": 0, "big_f_and_prime": 5}

    def test_fixed_point(self, calls):
        sol = solve_fixed_point(BALANCED_MU4_H, tol=1e-10)
        assert sol.converged and sol.iterations == 5
        # one fused call per iteration, plus the one in _finish
        assert calls == {"big_f": 0, "big_f_prime": 0,
                         "big_f_and_prime": sol.iterations + 1}

    @pytest.mark.parametrize("spec", [BALANCED_MU4_H, BASE_K4_H], ids=["k2", "k4"])
    def test_pi_ascent(self, calls, spec):
        sol = solve_pi_ascent(spec, tol=1e-10)
        assert sol.converged
        # per iteration one fused call at the even arguments and one F' at
        # the odd ones; F for the final even layers; the fused call in _finish
        assert calls == {"big_f": 1, "big_f_prime": sol.iterations,
                         "big_f_and_prime": sol.iterations + 1}


class TestSolveNestedBisection:
    def test_k2_matches_fixed_point(self):
        fp = solve_fixed_point(BALANCED_MU4_H, tol=1e-12)
        nb = solve_nested_bisection(BALANCED_MU4_H)
        np.testing.assert_allclose(nb.x_bar, fp.x_bar, atol=1e-8)
        assert nb.method is Method.NESTED_BISECTION
        assert nb.phase is Phase.FIELD_DRIVEN

    def test_chain_identities_at_output(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, 4, h_low=0.05)
        x, chain = nested_bisection_chain(spec)
        lhs = spec.alpha[:-1] * x[:-1] * chain.a
        rhs = spec.alpha[1:] * x[1:]
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)
        mx = build_effective(spec).m @ x
        np.testing.assert_allclose(mx, chain.theta * x, atol=1e-8)
        assert np.all(chain.a > 0)

    def test_requires_positive_fields(self):
        with pytest.raises(ValueError, match="h_r > 0"):
            solve_nested_bisection(BALANCED_MU4)

    def test_level_evaluation_budget_k4(self):
        # level evaluations are deterministic; one cold bracketed root solve
        # per level took 1,537 on this chain
        assert solve_nested_bisection(BASE_K4_H).iterations <= 500

    def test_level_evaluation_budget_k5(self):
        spec = ModelSpec(k=5, alpha=[0.2] * 5, mu=[2.0] * 4, h=[0.05] * 5)
        nb = solve_nested_bisection(spec)
        fp = solve_fixed_point(spec, tol=1e-13)
        assert nb.converged
        assert nb.iterations <= 4000  # 18,179 with cold bracketed solves
        np.testing.assert_allclose(nb.x_bar, fp.x_bar, atol=1e-12, rtol=0)

    def test_extreme_ratios_stay_finite(self):
        # ratios a_r of 35 and 0.03 and fields seven decades apart; the level
        # search must stay where exp(log a_r) is finite
        spec = ModelSpec(k=3, alpha=[0.01, 0.98, 0.01], mu=[20.0, 0.05],
                         h=[1e-5, 0.3, 50.0])
        nb = solve_nested_bisection(spec)
        fp = solve_fixed_point(spec, tol=1e-13)
        assert nb.converged
        np.testing.assert_allclose(nb.x_bar, fp.x_bar, atol=1e-12, rtol=0)

    def test_level_root_bisects_a_crawling_secant(self):
        # secant steps on expm1 from above shrink by less than half, so the
        # search bisects; the secant across that bisection proposes a step
        # of 1e-15 at u = -326, which must not end the search
        calls = []

        def gap(u):
            calls.append(u)
            return math.expm1(u)

        root, _ = variational._level_root(gap, 40.0, None)
        assert abs(root) < 1e-12
        assert len(calls) <= 30

    def test_respects_k_cap(self):
        rng = np.random.default_rng(14)
        spec = random_spec(rng, 7, h_low=0.1)
        with pytest.raises(ValueError, match="cap"):
            solve_nested_bisection(spec)


class TestSolverAgreementAndProperties:
    def test_unreachable_tol_reports_nonconvergence(self):
        # at tol = 1e-30 only an exact floating-point fixed point would
        # converge; on this chain every solver ends a few ulps away
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.5], h=[0.1, 0.1])
        solutions = [
            solve_fixed_point(spec, tol=1e-30, max_iter=50),
            solve_pi_ascent(spec, tol=1e-30, max_iter=50),
            solve_nested_bisection(spec, tol=1e-30),
        ]
        for sol in solutions:
            assert not sol.converged, sol.method
            assert 0.0 < sol.error_estimate < 1e-14
            np.testing.assert_allclose(sol.x_bar, solutions[0].x_bar, atol=1e-14)

    def test_three_solvers_agree(self):
        rng = np.random.default_rng(15)
        for k in (2, 3, 4, 5):
            spec = random_spec(rng, k, h_low=0.05)
            fp = solve_fixed_point(spec, tol=1e-11)
            others = [solve_nested_bisection(spec)]
            if k % 2 == 0:
                others.append(solve_pi_ascent(spec, tol=1e-10))
            for other in others:
                np.testing.assert_allclose(other.x_bar, fp.x_bar, atol=1e-7)
            assert fp.gradient_norm < 1e-8

    def test_monotone_in_h(self):
        rng = np.random.default_rng(16)
        spec = random_spec(rng, 4, h_low=0.05, h_high=0.5)
        base = solve_fixed_point(spec, tol=1e-11).x_bar
        for s in range(4):
            h2 = spec.h.copy()
            h2[s] += 0.4
            bumped = solve_fixed_point(spec.with_updates(h=h2), tol=1e-11).x_bar
            assert np.all(bumped >= base - 1e-9)

    def test_phase_dichotomy_even_k(self):
        rng = np.random.default_rng(17)
        tested = 0
        while tested < 6:
            spec = random_spec(rng, 4, h_low=0.0, h_high=0.0, mu_high=4.0)
            rho = spectral_radius_oo(build_effective(spec))
            if abs(rho - 1.0) < 0.05:
                continue
            sol = solve_fixed_point(spec, tol=1e-10)
            if rho < 1.0:
                assert sol.phase is Phase.ZERO_SOLUTION
            else:
                assert sol.phase is Phase.BROKEN_SYMMETRY
                assert np.all(sol.x_bar > 0)
            tested += 1

    def test_saddle_structure(self):
        rng = np.random.default_rng(18)
        spec = random_spec(rng, 4, h_low=0.1)
        sol = solve_fixed_point(spec, tol=1e-12)
        p0 = p_var(sol.x_bar, spec)
        pi0 = pi_value(sol.x_bar[0::2], spec)
        for _ in range(30):
            pert_e = sol.x_bar.copy()
            pert_e[1::2] = np.clip(
                pert_e[1::2] + rng.uniform(-1e-2, 1e-2, 2), 0.0, 0.999)
            assert p_var(pert_e, spec) >= p0 - 1e-12
            pert_o = np.clip(sol.x_bar[0::2] + rng.uniform(-1e-2, 1e-2, 2),
                             0.0, 0.999)
            assert pi_value(pert_o, spec) <= pi0 + 1e-12

    def test_psi_sum_convex_along_segments(self):
        from nishimori_dbm.special_functions import psi
        rng = np.random.default_rng(19)
        spec = random_spec(rng, 5, h_low=0.0, h_high=0.0)
        em = build_effective(spec)

        def f(x):
            return float(spec.alpha @ psi(np.maximum(em.m @ x, 0.0)))

        for _ in range(25):
            x1, x2 = rng.random(5) * 0.9, rng.random(5) * 0.9
            lam = rng.random()
            assert f(lam * x1 + (1 - lam) * x2) <= lam * f(x1) + (1 - lam) * f(x2) + 1e-12


class TestDecoupledChains:
    def test_zero_edge_segments_agree_with_fixed_point(self):
        spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[3.0, 0.0, 2.8],
                         h=[0.2, 0.2, 0.2, 0.2])
        fp = solve_fixed_point(spec, tol=1e-11)
        pa = solve_pi_ascent(spec, tol=1e-10)
        nb = solve_nested_bisection(spec)
        np.testing.assert_allclose(pa.x_bar, fp.x_bar, atol=1e-7)
        np.testing.assert_allclose(nb.x_bar, fp.x_bar, atol=1e-7)

    def test_zero_alpha_layer_filled_from_consistency(self):
        spec = ModelSpec(k=4, alpha=[0.3, 0.3, 0.0, 0.4], mu=[2.8, 1.0, 1.0],
                         h=[0.3, 0.3, 0.3, 0.3])
        fp = solve_fixed_point(spec, tol=1e-11)
        nb = solve_nested_bisection(spec)
        np.testing.assert_allclose(nb.x_bar, fp.x_bar, atol=1e-7)
        # the dead layer's order parameter solves its own consistency row
        em = build_effective(spec)
        expected = big_f(float((em.m @ fp.x_bar)[2] + spec.h[2]))
        assert fp.x_bar[2] == pytest.approx(expected, abs=1e-9)

    def test_pi_ascent_rejects_odd_segments(self):
        spec = ModelSpec(k=4, alpha=[0.3, 0.3, 0.4, 0.0], mu=[1.0, 1.0, 1.0],
                         h=[0.0] * 4)
        with pytest.raises(ValueError, match="odd length"):
            solve_pi_ascent(spec)


def test_solution_serialization_round_trip():
    sol = solve_fixed_point(BALANCED_MU4_H, tol=1e-10)
    record = sol.to_dict()
    assert record["phase"] == "field_driven"
    assert record["method"] == "fixed_point"
    assert record["converged"] is True
    assert record["error_estimate"] == sol.error_estimate <= 1e-10
    np.testing.assert_allclose(record["x_bar"], sol.x_bar)
