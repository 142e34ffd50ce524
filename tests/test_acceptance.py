"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Heavy statistical criteria share session-scoped
data and pinned seeds; their tolerances are trend + band checks, while
criteria 1-5 are exact property/oracle checks.

Criterion 2's amplitude clause compares the symmetry-broken solution of
the balanced two-layer machine with the independent adaptive-integration +
bisection root in ``oracles.py``, to 1e-9 absolute, the scan's tolerance.
No fixed lower bound on the amplitude would do: the branch x = F(mu x / 2)
leaves zero linearly, x ~ (mu - 2) / 2 because F(h) = h - h^2 + O(h^3), so
the exact amplitude at mu = 2.1 is 0.0491 and a bound such as 0.1 there is
unreachable by any correct solver.
"""

import math
import time

import numpy as np
import pytest

from nishimori_dbm.model import ModelSpec, build_effective, spectral_radius_oo
from nishimori_dbm.phase import (
    maximizer_conditions,
    optimize_form_factors,
    perron_instability_check,
    scan,
)
from nishimori_dbm.simulator import SystemSize, quenched_run
from nishimori_dbm.special_functions import nishimori_residual, psi
from nishimori_dbm.variational import (
    hessian_pi_symmetrized,
    p_var,
    solve_fixed_point,
    solve_nested_bisection,
    solve_pi_ascent,
)
from oracles import scalar_root_quad

BENCH_SPEC = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.1, 0.1])
SEED_ENUM = 20260810
SEED_GIBBS = 20260811
SEED_PRESSURE = 20260812


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {criterion}] {name}: {status} - {detail}")


# ---------------------------------------------------------------------------
# shared heavy data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def enumeration_reports():
    """200-sample enumeration runs at N = 8, 16, 24 (shared by criteria 6, 7)."""
    reports = {}
    for n in (8, 16, 24):
        reports[n] = quenched_run(
            BENCH_SPEC, SystemSize.from_spec(BENCH_SPEC, n), 200, SEED_ENUM,
            engine="enumeration",
        )
    return reports


@pytest.fixture(scope="session")
def theory_solution():
    return solve_fixed_point(BENCH_SPEC, tol=1e-11)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_quadrature_identity_suite():
    start = time.perf_counter()
    worst_residual = max(
        nishimori_residual(h, n)
        for h in np.logspace(-6, 2, 25)
        for n in (1, 2, 3)
    )
    d2 = 1e-3
    min_second = min(
        psi(x + d2) - 2 * psi(x) + psi(x - d2)
        for x in np.linspace(0.5, 50.0, 40)
    )
    d3 = 1e-2
    max_third = max(
        psi(x + 1.5 * d3) - 3 * psi(x + 0.5 * d3)
        + 3 * psi(x - 0.5 * d3) - psi(x - 1.5 * d3)
        for x in np.linspace(0.1, 50.0, 40)
    )
    elapsed = time.perf_counter() - start
    ok = worst_residual < 1e-10 and min_second >= -1e-10 and max_third <= 1e-8 \
        and elapsed < 5.0
    report(1, "quadrature identity suite", ok,
           f"residual {worst_residual:.2e}, min d2 {min_second:.2e}, "
           f"max d3 {max_third:.2e}, {elapsed:.2f}s")
    assert worst_residual < 1e-10
    assert min_second >= -1e-10
    assert max_third <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_phase_boundary():
    broken_mus = [2.1, 2.5, 3.0]
    start = time.perf_counter()
    template = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])
    zero_points = scan(template, "mu_edge", [1.0, 1.5, 1.9], tol=1e-9)
    broken_points = scan(template, "mu_edge", broken_mus, tol=1e-9)
    rho_grid = np.round(np.arange(1.90, 2.105, 0.01), 10)
    rhos = [
        spectral_radius_oo(build_effective(template.with_updates(mu=[m])))
        for m in rho_grid
    ]
    crossing = next(
        float(rho_grid[i]) for i in range(len(rho_grid)) if rhos[i] >= 1.0
    )
    elapsed = time.perf_counter() - start

    # balanced K = 2 at zero field: both layers solve x = F(mu x / 2)
    oracle = np.array([scalar_root_quad(m / 2.0, 0.0) for m in broken_mus])
    x_broken = np.array([p.x_bar for p in broken_points])
    deviation = float(np.max(np.abs(x_broken - oracle[:, None])))
    mins = {m: float(np.min(x)) for m, x in zip(broken_mus, x_broken)}

    zero_ok = all(np.max(p.x_bar) < 1e-6 for p in zero_points)
    broken_ok = (
        deviation < 1e-9
        and min(mins.values()) > 1e-2
        and bool(np.all(np.diff(x_broken, axis=0) > 0.0))
    )
    crossing_ok = abs(crossing - 2.0) <= 0.01
    ok = zero_ok and broken_ok and crossing_ok and elapsed < 10.0
    report(2, "phase boundary", ok,
           f"zero side ok={zero_ok}, min components {mins}, "
           f"max deviation from oracle {deviation:.2e}, "
           f"rho crossing at mu={crossing}, {elapsed:.2f}s")
    assert zero_ok
    assert crossing_ok
    assert elapsed < 10.0
    # The broken branch must match the quad + bisection oracle, sit clearly
    # off zero and grow with mu.  Onset is linear, x ~ (mu - 2) / 2 (0.0491
    # at mu = 2.1), so a fixed bound such as 0.1 there is unreachable.  The
    # solver stops once its Newton correction is below tol, which from
    # above bounds the error, so the deviation is held to the scan's tol.
    assert broken_ok, (
        f"broken branch {x_broken.tolist()} vs oracle {oracle.tolist()}: "
        f"max deviation {deviation:.2e}"
    )


def test_criterion_3_form_factor_optimum():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    failures = []
    for i in range(10):
        k = (3, 4, 5, 6)[i % 4]
        mu = rng.uniform(0.3, 3.0, size=k - 1)
        alpha_star, rho_star = optimize_form_factors(mu)
        bound = float(np.max(mu) ** 2 / 4.0)
        conds = maximizer_conditions(alpha_star, mu, atol=1e-3)
        if abs(rho_star - bound) > 1e-6 or not conds:
            failures.append((k, mu.round(3).tolist(), rho_star, bound, conds))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(3, "form-factor optimum", ok,
           f"10 random couplings, K in 3..6, {elapsed:.1f}s"
           + (f"; failures: {failures}" if failures else ""))
    assert not failures
    assert elapsed < 120.0


def test_criterion_4_solver_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    worst_dev = 0.0
    worst_grad = 0.0
    for i in range(20):
        k = (2, 3, 4, 5)[i % 4]
        alpha = rng.uniform(0.15, 1.0, size=k)
        alpha /= alpha.sum()
        spec = ModelSpec(k=k, alpha=alpha, mu=rng.uniform(0.1, 3.0, size=k - 1),
                         h=rng.uniform(0.05, 1.0, size=k))
        fp = solve_fixed_point(spec, tol=1e-11)
        solutions = [fp, solve_nested_bisection(spec)]
        if k % 2 == 0:
            solutions.append(solve_pi_ascent(spec, tol=1e-10))
        for sol in solutions:
            worst_dev = max(worst_dev, float(np.max(np.abs(sol.x_bar - fp.x_bar))))
            worst_grad = max(worst_grad, sol.gradient_norm)
    elapsed = time.perf_counter() - start
    ok = worst_dev < 1e-7 and worst_grad < 1e-8 and elapsed < 300.0
    report(4, "solver cross-validation", ok,
           f"20 specs, max deviation {worst_dev:.2e}, "
           f"max gradient {worst_grad:.2e}, {elapsed:.1f}s")
    assert worst_dev < 1e-7
    assert worst_grad < 1e-8
    assert elapsed < 300.0


def test_criterion_5_hessian_sign_dichotomy():
    start = time.perf_counter()
    rng = np.random.default_rng(55)

    def spec_with_rho(target):
        alpha = rng.uniform(0.15, 1.0, size=4)
        alpha /= alpha.sum()
        mu = rng.uniform(0.5, 2.0, size=3)
        h = rng.uniform(0.0, 0.5, size=4) if target < 1 else np.zeros(4)
        spec = ModelSpec(k=4, alpha=alpha, mu=mu, h=h)
        rho = spectral_radius_oo(build_effective(spec))
        return spec.with_updates(mu=mu * math.sqrt(target / rho))

    neg_ok = True
    for _ in range(10):
        spec = spec_with_rho(rng.uniform(0.3, 0.85))
        for _ in range(5):
            x_o = rng.uniform(0.05, 0.8, size=2)
            eig = np.linalg.eigvalsh(hessian_pi_symmetrized(x_o, spec))
            neg_ok = neg_ok and bool(np.all(eig < 0.0))

    pos_ok = True
    for _ in range(10):
        spec = spec_with_rho(rng.uniform(1.2, 3.0))
        eig = np.linalg.eigvalsh(
            hessian_pi_symmetrized(np.zeros(2), spec))
        check = perron_instability_check(spec)
        pos_ok = pos_ok and bool(np.max(eig) > 0.0) and check.verdict == "unstable"

    elapsed = time.perf_counter() - start
    ok = neg_ok and pos_ok and elapsed < 60.0
    report(5, "Hessian sign dichotomy", ok,
           f"subcritical negative definite: {neg_ok}, "
           f"supercritical unstable: {pos_ok}, {elapsed:.1f}s")
    assert neg_ok
    assert pos_ok
    assert elapsed < 60.0


def test_criterion_6_finite_n_convergence(enumeration_reports, theory_solution):
    start = time.perf_counter()
    x_bar = theory_solution.x_bar
    gaps = {
        n: np.abs(rep.m_mean - x_bar) for n, rep in enumeration_reports.items()
    }
    trend_ok = bool(
        np.all(gaps[16] < gaps[8]) and np.all(gaps[24] < gaps[16])
    )

    gibbs = quenched_run(
        BENCH_SPEC, SystemSize.from_spec(BENCH_SPEC, 2000), 100, SEED_GIBBS,
        engine="block_gibbs", sweeps=2000, burn_in=400,
    )
    gibbs_gap = np.abs(gibbs.m_mean - x_bar)
    gibbs_tol = np.maximum(0.02, 4.0 * gibbs.m_stderr)
    gibbs_ok = bool(np.all(gibbs_gap < gibbs_tol))
    elapsed = time.perf_counter() - start
    ok = trend_ok and gibbs_ok and elapsed < 900.0
    report(6, "finite-N convergence to theory", ok,
           f"enumeration gaps {gaps[8].round(3)} -> {gaps[16].round(3)} -> "
           f"{gaps[24].round(3)}; Gibbs gap {gibbs_gap.round(4)} vs tol "
           f"{gibbs_tol.round(4)}, {elapsed:.0f}s")
    assert trend_ok
    assert gibbs_ok
    assert elapsed < 900.0


def test_criterion_7_nishimori_identities(enumeration_reports):
    layer_ok = True
    site_ok = True
    details = []
    for n, rep in enumeration_reports.items():
        for r in range(rep.spec.k):
            combined = math.hypot(rep.m_stderr[r], rep.q_stderr[r])
            gap = abs(rep.m_mean[r] - rep.q_mean[r])
            layer_ok = layer_ok and gap < 4.0 * combined
        site_gap = abs(rep.nishimori_site_gap)
        site_ok = site_ok and site_gap < 4.0 * rep.nishimori_site_stderr
        details.append(f"N={n}: |Em-Eq|max "
                       f"{np.max(np.abs(rep.m_mean - rep.q_mean)):.4f}, "
                       f"site gap {site_gap:.4f}")
    ok = layer_ok and site_ok
    report(7, "Nishimori identities at finite N", ok, "; ".join(details))
    assert layer_ok
    assert site_ok


def test_criterion_8_pressure_convergence(theory_solution):
    start = time.perf_counter()
    p_theory = p_var(theory_solution.x_bar, BENCH_SPEC)
    reports = {
        n: quenched_run(BENCH_SPEC, SystemSize.from_spec(BENCH_SPEC, n), 200,
                        SEED_PRESSURE, engine="enumeration")
        for n in (10, 20)
    }
    gap10 = abs(reports[10].p_mean - p_theory)
    gap20 = abs(reports[20].p_mean - p_theory)
    var_ratio = reports[10].p_variance / reports[20].p_variance
    elapsed = time.perf_counter() - start
    ok = gap20 < 0.05 and gap20 < gap10 and 1.0 < var_ratio < 4.0 \
        and elapsed < 600.0
    report(8, "pressure convergence", ok,
           f"gap N=10 {gap10:.4f} -> N=20 {gap20:.4f} (target < 0.05), "
           f"Var ratio {var_ratio:.2f} in (1, 4), {elapsed:.1f}s")
    assert gap20 < 0.05
    assert gap20 < gap10
    assert 1.0 < var_ratio < 4.0
    assert elapsed < 600.0
