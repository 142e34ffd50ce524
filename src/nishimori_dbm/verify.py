"""Named invariant checks bundled behind the ``verify`` CLI command.

Each check returns (ok, detail).  They restate the structural identities
of the solution as executable facts: quadrature exactness diagnostics,
derivative signs of the one-body functions, matrix identities, agreement
of the three solvers, the spectral phase dichotomy, and determinism of
the scan output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import phase as phase_mod
from . import variational as var
from .model import ModelSpec, build_effective, odd_even_split, rho_oo, spectral_radius_oo
from .special_functions import (
    big_f,
    big_f_inverse,
    default_rule,
    nishimori_residual,
    psi,
)

__all__ = ["CheckResult", "run_all", "format_table", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _random_spec(rng, k, h_low=0.0, h_high=1.0, mu_high=3.0) -> ModelSpec:
    alpha = rng.uniform(0.2, 1.0, size=k)
    alpha /= alpha.sum()
    mu = rng.uniform(0.2, mu_high, size=k - 1)
    h = rng.uniform(h_low, h_high, size=k)
    return ModelSpec(k=k, alpha=alpha, mu=mu, h=h)


def check_quadrature_moments():
    rule = default_rule()
    errs = (
        abs(rule.weights.sum() - 1.0),
        abs(float(rule.weights @ rule.nodes)),
        abs(float(rule.weights @ rule.nodes**2) - 1.0),
    )
    return max(errs) < 1e-12, f"max moment error {max(errs):.2e}"


def check_nishimori_identities():
    worst = max(
        nishimori_residual(h, n)
        for h in np.logspace(-6, 2, 25)
        for n in (1, 2, 3)
    )
    return worst < 1e-10, f"worst residual {worst:.2e}"


def check_psi_convexity():
    grid = np.linspace(0.0, 50.0, 41)
    d = 1e-3
    worst = min(
        psi(x + d) - 2.0 * psi(x) + psi(max(x - d, 0.0))
        for x in grid[1:]
    )
    return worst > -1e-10, f"min second difference {worst:.2e}"


def check_psi_third_derivative():
    grid = np.linspace(0.1, 50.0, 40)
    d = 1e-2
    worst = max(
        psi(x + 1.5 * d) - 3.0 * psi(x + 0.5 * d) + 3.0 * psi(x - 0.5 * d) - psi(x - 1.5 * d)
        for x in grid
    )
    return worst < 1e-8, f"max third difference {worst:.2e}"


def check_f_is_two_psi_prime_minus_one():
    delta = 1e-5
    worst = max(
        abs(big_f(h) - (psi(h + delta) - psi(h - delta)) / (2.0 * delta) * 2.0 + 1.0)
        for h in np.linspace(0.1, 20.0, 30)
    )
    return worst < 1e-6, f"max |F - (2 psi' - 1)| {worst:.2e}"


def check_f_inverse_roundtrip():
    ys = np.arange(0.01, 1.0, 0.01)
    worst = max(abs(big_f(big_f_inverse(y)) - y) for y in ys)
    return worst < 1e-9, f"max roundtrip error {worst:.2e}"


def check_delta_equals_alpha_m():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in (2, 3, 4, 5, 6):
        spec = _random_spec(rng, k)
        em = build_effective(spec)
        worst = max(worst, np.abs(em.delta - np.diag(spec.alpha) @ em.m).max())
    return worst < 1e-14, f"max |Delta - alpha M| {worst:.2e}"


def check_rho_oo_equals_ee():
    rng = np.random.default_rng(12)
    worst = 0.0
    for k in (2, 4, 6):
        spec = _random_spec(rng, k)
        em = build_effective(spec)
        m2 = odd_even_split(em.m @ em.m)
        rho_oo = spectral_radius_oo(em)
        rho_ee = float(np.max(np.abs(np.linalg.eigvals(m2.ee))))
        worst = max(worst, abs(rho_oo - rho_ee))
    return worst < 1e-10, f"max |rho_oo - rho_ee| {worst:.2e}"


def check_rho_reversal_invariance():
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in (2, 3, 4, 5):
        spec = _random_spec(rng, k)
        rev = ModelSpec(k=k, alpha=spec.alpha[::-1], mu=spec.mu[::-1], h=spec.h[::-1])
        worst = max(worst, abs(
            spectral_radius_oo(build_effective(spec))
            - spectral_radius_oo(build_effective(rev))))
    return worst < 1e-10, f"max reversal mismatch {worst:.2e}"


def check_subcritical_simplex():
    # every mu_{r,r+1} < 2 forces rho < 1 for any alpha on the simplex
    rng = np.random.default_rng(14)
    grid = phase_mod._simplex_grid_array(4, 8)
    worst = max(float(rho_oo(grid, rng.uniform(0.1, 1.999, size=3)).max())
                for _ in range(5))
    return worst < 1.0, f"max rho over subcritical simplex grid {worst:.6f}"


def check_solver_agreement():
    rng = np.random.default_rng(15)
    worst = 0.0
    for k in (2, 3, 4):
        spec = _random_spec(rng, k, h_low=0.05)
        sols = [var.solve_fixed_point(spec, tol=1e-11)]
        if k % 2 == 0:
            sols.append(var.solve_pi_ascent(spec, tol=1e-10))
        sols.append(var.solve_nested_bisection(spec))
        for s in sols[1:]:
            worst = max(worst, np.abs(s.x_bar - sols[0].x_bar).max())
    return worst < 1e-7, f"max cross-solver deviation {worst:.2e}"


def check_gradient_stationarity():
    rng = np.random.default_rng(16)
    worst = 0.0
    for k in (2, 4):
        spec = _random_spec(rng, k, h_low=0.05)
        sol = var.solve_fixed_point(spec, tol=1e-11)
        worst = max(worst, sol.gradient_norm)
    return worst < 1e-9, f"max gradient norm at solutions {worst:.2e}"


def check_monotonicity_in_h():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(3):
        spec = _random_spec(rng, 4, h_low=0.05, h_high=0.6)
        base = var.solve_fixed_point(spec, tol=1e-11).x_bar
        s = rng.integers(0, 4)
        h2 = spec.h.copy()
        h2[s] += 0.3
        bumped = var.solve_fixed_point(spec.with_updates(h=h2), tol=1e-11).x_bar
        ok = ok and np.all(bumped >= base - 1e-9)
    return ok, "x_bar componentwise non-decreasing in every h_r"


def check_phase_dichotomy():
    rng = np.random.default_rng(18)
    ok = True
    detail = []
    for _ in range(4):
        spec = _random_spec(rng, 4, h_low=0.0, h_high=0.0)
        rho = spectral_radius_oo(build_effective(spec))
        if abs(rho - 1.0) < 0.05:
            continue
        sol = var.solve_fixed_point(spec, tol=1e-10)
        if rho < 1.0:
            ok = ok and sol.phase is var.Phase.ZERO_SOLUTION
        else:
            ok = ok and sol.phase is var.Phase.BROKEN_SYMMETRY
        detail.append(f"rho={rho:.3f}->{sol.phase.value}")
    return ok, "; ".join(detail)


def check_saddle_structure():
    rng = np.random.default_rng(19)
    spec = _random_spec(rng, 4, h_low=0.1)
    sol = var.solve_fixed_point(spec, tol=1e-12)
    x = sol.x_bar
    p0 = var.p_var(x, spec)
    ok = True
    for _ in range(20):
        pert = x.copy()
        pert[1::2] = np.clip(x[1::2] + rng.uniform(-1e-2, 1e-2, size=2), 0.0, 0.999)
        ok = ok and var.p_var(pert, spec) >= p0 - 1e-12
    x_o = x[0::2]
    pi0 = var.pi_value(x_o, spec)
    for _ in range(20):
        pert = np.clip(x_o + rng.uniform(-1e-2, 1e-2, size=2), 0.0, 0.999)
        ok = ok and var.pi_value(pert, spec) <= pi0 + 1e-12
    return ok, "p_var rises under even perturbations, pi falls under odd ones"


def check_psi_sum_convexity():
    rng = np.random.default_rng(20)
    spec = _random_spec(rng, 4, h_low=0.0, h_high=0.0)
    em = build_effective(spec)

    def f(x):
        return float(spec.alpha @ psi(np.maximum(em.m @ x, 0.0)))

    ok = True
    for _ in range(30):
        x1 = rng.random(4) * 0.9
        x2 = rng.random(4) * 0.9
        lam = rng.random()
        ok = ok and f(lam * x1 + (1 - lam) * x2) <= lam * f(x1) + (1 - lam) * f(x2) + 1e-12
    return ok, "sum_r alpha_r psi((Mx)_r) convex along random segments"


def check_hessian_sign_subcritical():
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(3):
        spec = _random_spec(rng, 4, h_low=0.0, h_high=0.3, mu_high=1.8)
        if spectral_radius_oo(build_effective(spec)) >= 0.95:
            continue
        for _ in range(3):
            x_o = rng.uniform(0.05, 0.7, size=2)
            eig = np.linalg.eigvalsh(var.hessian_pi_symmetrized(x_o, spec))
            ok = ok and np.all(eig < 0.0)
    return ok, "symmetrized Hessian negative definite for rho < 1"


def check_perron_direction():
    spec_un = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.0, 0.0])
    spec_st = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])
    rep_un = phase_mod.perron_instability_check(spec_un)
    rep_st = phase_mod.perron_instability_check(spec_st)
    ok = rep_un.verdict == "unstable" and rep_st.verdict == "stable"
    return ok, f"rho=4 -> {rep_un.verdict}, rho=0.25 -> {rep_st.verdict}"


def check_scan_determinism():
    spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])
    grid = np.arange(1.0, 3.01, 0.25)
    a = phase_mod.format_scan_csv(phase_mod.scan(spec, "mu_edge", grid, tol=1e-9))
    b = phase_mod.format_scan_csv(phase_mod.scan(spec, "mu_edge", grid, tol=1e-9))
    return a == b, "two scans byte-identical"


def check_pi_lower_bound():
    rng = np.random.default_rng(22)
    spec = _random_spec(rng, 4, h_low=0.05)
    ok = True
    for _ in range(10):
        x_o = rng.uniform(0.05, 0.8, size=2)
        bound = var.pi_value(x_o, spec)
        for _ in range(10):
            x = np.empty(4)
            x[0::2] = x_o
            x[1::2] = rng.uniform(0.0, 0.95, size=2)
            ok = ok and bound <= var.p_var(x, spec) + 1e-12
    return ok, "pi(x_o) <= p_var(x_o, x_e) on random even components"


ALL_CHECKS = [
    ("quadrature_moments", check_quadrature_moments),
    ("nishimori_identities", check_nishimori_identities),
    ("psi_convexity", check_psi_convexity),
    ("psi_third_derivative", check_psi_third_derivative),
    ("f_equals_2psi_prime_minus_1", check_f_is_two_psi_prime_minus_one),
    ("f_inverse_roundtrip", check_f_inverse_roundtrip),
    ("delta_equals_alpha_m", check_delta_equals_alpha_m),
    ("rho_oo_equals_ee", check_rho_oo_equals_ee),
    ("rho_reversal_invariance", check_rho_reversal_invariance),
    ("subcritical_simplex", check_subcritical_simplex),
    ("solver_agreement", check_solver_agreement),
    ("gradient_stationarity", check_gradient_stationarity),
    ("monotonicity_in_h", check_monotonicity_in_h),
    ("phase_dichotomy", check_phase_dichotomy),
    ("saddle_structure", check_saddle_structure),
    ("psi_sum_convexity", check_psi_sum_convexity),
    ("hessian_sign_subcritical", check_hessian_sign_subcritical),
    ("perron_direction", check_perron_direction),
    ("scan_determinism", check_scan_determinism),
    ("pi_lower_bound", check_pi_lower_bound),
]


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't abort the table
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  [{r.seconds:6.2f}s]  {r.detail}")
    n_fail = sum(not r.ok for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
