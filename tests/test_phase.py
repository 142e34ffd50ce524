"""Phase scans, form-factor optimization, and the Perron instability check."""

import itertools
import math

import numpy as np
import pytest

from nishimori_dbm import phase
from nishimori_dbm.model import ModelSpec, _perron_bounds, rho_oo
from nishimori_dbm.phase import (
    _simplex_grid_array,
    format_scan_csv,
    maximizer_conditions,
    optimize_form_factors,
    perron_instability_check,
    scan,
    write_scan_csv,
)
from nishimori_dbm.variational import Phase
from oracles import full_grid_optimize

BALANCED_K2 = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])


class TestScan:
    def test_mu_axis_phase_flip(self):
        grid = np.round(np.arange(1.0, 3.001, 0.1), 10)
        points = scan(BALANCED_K2, "mu_edge", grid, tol=1e-9)
        by_mu = {round(p.grid_value, 3): p for p in points}
        assert by_mu[1.9].phase is Phase.ZERO_SOLUTION
        assert by_mu[2.1].phase is Phase.BROKEN_SYMMETRY
        # rho monotone along a single-edge axis
        rhos = [p.rho for p in points]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_h_axis_all_field_driven(self):
        points = scan(BALANCED_K2, "h_uniform", [0.1, 0.5, 1.0], tol=1e-9)
        for p in points:
            assert p.phase is Phase.FIELD_DRIVEN
            assert np.all(p.x_bar > 0)

    def test_alpha_axis(self):
        rows = [[0.5, 0.5], [0.3, 0.7], [0.8, 0.2]]
        template = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[3.0], h=[0.0, 0.0])
        points = scan(template, "alpha_simplex", rows, tol=1e-9)
        assert points[0].rho == pytest.approx(9.0 / 4.0, abs=1e-12)
        assert points[1].rho == pytest.approx(9.0 * 0.21, abs=1e-12)

    def test_failed_points_marked_and_scan_continues(self):
        rows = [[0.5, 0.5], [0.6, 0.6], [0.3, 0.7]]  # middle row off the simplex
        template = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])
        points = scan(template, "alpha_simplex", rows)
        assert points[1].error is not None
        assert points[0].error is None and points[2].error is None

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            scan(BALANCED_K2, "beta_axis", [1.0])

    def test_csv_deterministic_and_thread_invariant(self, tmp_path):
        grid = np.arange(0.5, 3.0, 0.3)  # avoids the marginal point mu = 2
        a = format_scan_csv(scan(BALANCED_K2, "mu_edge", grid))
        b = format_scan_csv(scan(BALANCED_K2, "mu_edge", grid))
        assert a == b
        path = tmp_path / "scan.csv"
        write_scan_csv(scan(BALANCED_K2, "mu_edge", grid), path)
        assert path.read_text() == a

    def test_csv_layout(self):
        points = scan(BALANCED_K2, "mu_edge", [2.5])
        lines = format_scan_csv(points).splitlines()
        assert lines[0] == "grid_value,rho,x_bar_1,x_bar_2,pressure,phase"
        fields = lines[1].split(",")
        assert fields[0] == "2.5"
        assert float(fields[1]) == pytest.approx(2.5**2 / 4.0)
        assert fields[-1] == "broken_symmetry"
        # 17 significant digits round-trip doubles exactly
        assert float(fields[2]) == points[0].x_bar[0]


class TestOptimizeFormFactors:
    def test_k3_localizes_on_strong_edge(self):
        alpha, rho = optimize_form_factors([1.0, 3.0])
        assert rho == pytest.approx(9.0 / 4.0, abs=1e-6)
        np.testing.assert_allclose(alpha, [0.0, 0.5, 0.5], atol=1e-3)
        conds = maximizer_conditions(alpha, [1.0, 3.0])
        assert {"condition": "a", "r_star": 2} in conds

    def test_k4_condition_b(self):
        mu = [2.0, 2.0, 1.0]
        alpha, rho = optimize_form_factors(mu)
        assert rho == pytest.approx(1.0, abs=1e-6)
        conds = maximizer_conditions(alpha, mu)
        assert any(c["condition"] == "a" and c["r_star"] in (1, 2) for c in conds) \
            or any(c["condition"] == "b" and c["r_star"] == 2 for c in conds)

    @pytest.mark.parametrize("k,c", [(3, 1.0), (5, 2.2)])
    def test_uniform_couplings(self, k, c):
        alpha, rho = optimize_form_factors([c] * (k - 1))
        assert rho == pytest.approx(c * c / 4.0, abs=1e-6)
        assert maximizer_conditions(alpha, [c] * (k - 1))

    def test_never_exceeds_closed_form_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            mu = rng.uniform(0.2, 3.0, size=4)
            _, rho = optimize_form_factors(mu)
            assert rho <= np.max(mu) ** 2 / 4.0 + 1e-9

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            optimize_form_factors([0.0, 0.0])

    @pytest.mark.parametrize("grid_step", [0.0, -0.1, 2.0, math.nan, math.inf])
    def test_rejects_grid_step_outside_unit_interval(self, grid_step):
        # these divided by zero, returned NaN, or failed inside NumPy
        with pytest.raises(ValueError, match="grid_step"):
            optimize_form_factors([1.0, 3.0], grid_step=grid_step)

    @pytest.mark.parametrize("mu", [[1.0, math.inf], [math.nan, 1.0], [-math.inf, 2.0],
                                    [1.0, 2.0, math.nan]])
    def test_rejects_non_finite_couplings(self, mu, monkeypatch):
        # these returned alpha = (0, 0, 1) with rho = NaN; the check must
        # come before the grid is built
        def no_grid(*args):
            raise AssertionError("grid built for non-finite couplings")

        monkeypatch.setattr(phase, "_simplex_grid_array", no_grid)
        with pytest.raises(ValueError, match="finite"):
            optimize_form_factors(mu)

    @pytest.mark.parametrize("mu", [[2.0, 2.0, 1.0], [1.5] * 4])
    def test_flat_family_keeps_grid_row(self, mu):
        # Nelder-Mead finds members of the maximizer family whose rho is
        # larger by one rounding step; they must not displace the grid row
        grid = _simplex_grid_array(len(mu) + 1, 40)
        lam = rho_oo(grid, mu)
        alpha, rho = optimize_form_factors(mu)
        np.testing.assert_array_equal(alpha, grid[int(np.argmax(lam))])
        assert rho == lam.max()

    def test_isolated_maximizer_exact(self):
        alpha, rho = optimize_form_factors([1.0, 3.0])
        np.testing.assert_array_equal(alpha, [0.0, 0.5, 0.5])
        assert rho == 2.25


def _pruning_mu(k, kind):
    """Couplings of a K-layer chain: seeded random, every other edge zero,
    or flat."""
    if kind == "flat":
        return np.full(k - 1, 1.7)
    mu = np.random.default_rng(100 + k).uniform(0.2, 3.0, size=k - 1)
    if kind == "zeros":
        mu[1::2] = 0.0
    return mu


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("grid_step", [1 / 40, 1.0, 1 / 3, 1 / 7])
@pytest.mark.parametrize("kind", ["random", "zeros", "flat"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_pruned_grid_equals_full_grid(k, kind, grid_step, refine):
    mu = _pruning_mu(k, kind)
    alpha, rho = optimize_form_factors(mu, grid_step=grid_step, refine=refine)
    ref_alpha, ref_rho = full_grid_optimize(mu, grid_step=grid_step, refine=refine)
    np.testing.assert_array_equal(alpha, ref_alpha)
    assert rho == ref_rho


@pytest.mark.parametrize("k", [2, 3, 6])
def test_unit_grid_has_zero_lower_bounds(k):
    # every row of the grid_step = 1 grid is one layer, with no coupled
    # pair, so the largest lower bound is 0 and pruning keeps every row
    lower, upper = _perron_bounds(_simplex_grid_array(k, 1), np.ones(k - 1))
    assert not lower.any() and not upper.any()


def _itertools_simplex_grid(k, steps):
    """Stars and bars through itertools: the order the grid must keep."""
    rows = []
    for bars in itertools.combinations(range(steps + k - 1), k - 1):
        edges = (-1,) + bars + (steps + k - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(k)])
    return np.array(rows, dtype=float) / steps


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_simplex_grid_matches_itertools_construction(k):
    np.testing.assert_array_equal(_simplex_grid_array(k, 40), _itertools_simplex_grid(k, 40))


class TestPerronInstabilityCheck:
    def test_unstable_at_rho_four(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.0, 0.0])
        report = perron_instability_check(spec)
        assert report.verdict == "unstable"
        assert report.rho == pytest.approx(4.0)
        assert np.all(report.delta_pi > 0)

    def test_stable_at_rho_quarter(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[1.0], h=[0.0, 0.0])
        report = perron_instability_check(spec)
        assert report.verdict == "stable"
        assert np.all(report.delta_pi < 0)

    def test_matches_quadratic_prediction(self):
        for mu in (1.0, 4.0):
            spec = ModelSpec(k=4, alpha=[0.25] * 4, mu=[mu] * 3, h=[0.0] * 4)
            report = perron_instability_check(spec)
            i = report.epsilons.index(1e-3)
            assert report.delta_pi[i] == pytest.approx(report.predicted[i], rel=0.2)

    def test_requires_zero_field(self):
        spec = ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.1, 0.1])
        with pytest.raises(ValueError, match="h = 0"):
            perron_instability_check(spec)

    def test_requires_even_k(self):
        spec = ModelSpec(k=3, alpha=[1 / 3] * 3, mu=[4.0, 4.0], h=[0.0] * 3)
        with pytest.raises(ValueError, match="even"):
            perron_instability_check(spec)
