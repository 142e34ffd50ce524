"""Phase-diagram scans, form-factor optimization, and the instability check.

At zero field and even K the symmetry-broken phase occupies the region
rho([M^2]^(oo)) > 1.  The radius is exact everywhere here: ``model.rho_oo``
takes it as the top eigenvalue of the symmetric block [S^2]^(oo), to which
[M^2]^(oo) is diagonally similar, in one batched eigensolve over every
row of the simplex grid.  For a fixed coupling matrix the spectral radius can
be tuned through the form factors; its supremum over the simplex is
(max_r mu_{r,r+1})^2 / 4, attained only on specific sparse configurations:
either two adjacent layers of weight 1/2 across a maximal edge, or a
weight-1/2 layer flanked by neighbors of total weight 1/2 across two
maximal edges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model import ModelSpec, build_effective, perron_vector, rho_oo, spectral_radius_oo
from .special_functions import QuadratureRule, default_rule
from .variational import Phase, pi_value, solve_fixed_point

__all__ = [
    "PhasePoint",
    "scan",
    "write_scan_csv",
    "format_scan_csv",
    "optimize_form_factors",
    "maximizer_conditions",
    "InstabilityReport",
    "perron_instability_check",
]

SCAN_AXES = ("mu_edge", "alpha_simplex", "h_uniform")

# A Nelder-Mead candidate replaces the grid optimum only if its rho is
# larger by more than this many units in the last place of the grid rho;
# smaller gains are rounding noise, and on flat families of maximizers
# taking them would pick alpha* by that noise.
REFINE_MIN_GAIN_ULPS = 8


@dataclass(frozen=True)
class PhasePoint:
    """One solved grid point of a scan."""

    grid_value: object
    spec: ModelSpec
    rho: float
    x_bar: np.ndarray | None
    pressure: float | None
    phase: Phase | None
    converged: bool
    error: str | None = None


def _spec_at(template: ModelSpec, axis: str, value, edge: int) -> ModelSpec:
    if axis == "mu_edge":
        mu = template.mu.copy()
        mu[edge - 1] = float(value)
        return template.with_updates(mu=mu)
    if axis == "alpha_simplex":
        return template.with_updates(alpha=np.asarray(value, dtype=float))
    if axis == "h_uniform":
        return template.with_updates(h=np.full(template.k, float(value)))
    raise ValueError(f"unknown scan axis {axis!r}; expected one of {SCAN_AXES}")


def _solve_point(template, axis, value, edge, tol, rule) -> PhasePoint:
    try:
        spec = _spec_at(template, axis, value, edge)
        rho = spectral_radius_oo(build_effective(spec))
        sol = solve_fixed_point(spec, tol=tol, rule=rule)
        return PhasePoint(
            grid_value=value,
            spec=spec,
            rho=rho,
            x_bar=sol.x_bar,
            pressure=sol.pressure,
            phase=sol.phase,
            converged=sol.converged,
        )
    except Exception as exc:  # noqa: BLE001 - scan must keep going per point
        return PhasePoint(
            grid_value=value,
            spec=template,
            rho=float("nan"),
            x_bar=None,
            pressure=None,
            phase=None,
            converged=False,
            error=str(exc),
        )


def scan(spec_template: ModelSpec, axis: str, grid, edge: int = 1,
         tol: float = 1e-9,
         rule: QuadratureRule | None = None) -> list[PhasePoint]:
    """Solve the model along one parameter axis; one PhasePoint per value.

    ``axis`` is one of ``mu_edge`` (vary the coupling of the 1-based edge
    ``edge``), ``alpha_simplex`` (grid entries are simplex rows), or
    ``h_uniform`` (uniform field h = c * ones).  Failed points are marked
    and the scan continues; output order follows the grid.
    """
    if axis not in SCAN_AXES:
        raise ValueError(f"unknown scan axis {axis!r}; expected one of {SCAN_AXES}")
    if axis == "mu_edge" and not 1 <= edge <= spec_template.k - 1:
        raise ValueError(f"edge must be in [1, {spec_template.k - 1}]")
    rule = rule or default_rule()
    return [_solve_point(spec_template, axis, v, edge, tol, rule) for v in grid]


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def format_scan_csv(points: list[PhasePoint]) -> str:
    """CSV text: grid value, rho, x_bar per layer, pressure, phase."""
    if not points:
        return ""
    k = points[0].spec.k
    header = ["grid_value", "rho"] + [f"x_bar_{r}" for r in range(1, k + 1)] + [
        "pressure", "phase"]
    lines = [",".join(header)]
    for pt in points:
        if isinstance(pt.grid_value, (list, tuple, np.ndarray)):
            gval = ";".join(_fmt(v) for v in np.asarray(pt.grid_value).ravel())
        else:
            gval = _fmt(pt.grid_value)
        if pt.error is not None:
            row = [gval, "nan"] + ["nan"] * k + ["nan", f"error:{pt.error}"]
        else:
            row = [gval, _fmt(pt.rho)] + [_fmt(v) for v in pt.x_bar] + [
                _fmt(pt.pressure), pt.phase.value]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_scan_csv(points: list[PhasePoint], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scan_csv(points))


# ---------------------------------------------------------------------------
# form-factor optimization
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _simplex_grid_array(k: int, steps: int) -> np.ndarray:
    """Every alpha with entries in {0, 1/steps, ..., 1} summing to 1.

    Rows are in ascending lexicographic order of the integer counts, the
    order in which ``itertools.combinations`` places the bars of the
    stars-and-bars construction, so argmax ties break on the first row.
    Built one column at a time: each partial row is repeated once for
    every value 0..remainder its next entry can take.
    """
    counts = np.zeros((1, 0), dtype=np.int64)
    remainder = np.array([steps], dtype=np.int64)
    for _ in range(k - 1):
        repeats = remainder + 1
        parent = np.repeat(np.arange(len(remainder)), repeats)
        nxt = np.arange(parent.size) - np.repeat(np.cumsum(repeats) - repeats, repeats)
        counts = np.column_stack([counts[parent], nxt])
        remainder = remainder[parent] - nxt
    grid = np.column_stack([counts, remainder]) / steps
    grid.flags.writeable = False
    return grid


def _project_simplex(v: np.ndarray) -> np.ndarray:
    v = np.clip(v, 0.0, None)
    s = v.sum()
    if s <= 0.0:
        return np.full(v.shape, 1.0 / len(v))
    return v / s


def optimize_form_factors(mu, grid_step: float = 1.0 / 40.0,
                          refine: bool = True) -> tuple[np.ndarray, float]:
    """Maximize rho([M^2]^(oo)) over the form-factor simplex.

    Coarse simplex grid (step ``grid_step``, in (0, 1]) followed by
    Nelder-Mead refinement projected back onto the simplex.  The returned
    value equals (max_r mu_{r,r+1})^2 / 4 up to search resolution, attained
    at a sparse boundary configuration.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise ValueError("couplings must be nonnegative")
    if not np.any(mu > 0):
        raise ValueError("at least one coupling must be positive")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must lie in (0, 1], got {grid_step!r}")
    k = len(mu) + 1
    steps = int(round(1.0 / grid_step))
    grid = _simplex_grid_array(k, steps)
    lam = rho_oo(grid, mu)
    best_i = int(np.argmax(lam))
    alpha, best_rho = grid[best_i], float(lam[best_i])
    if refine:
        result = minimize(
            lambda v: -float(rho_oo(_project_simplex(v), mu)),
            alpha,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000},
        )
        candidate = _project_simplex(result.x)
        cand_rho = float(rho_oo(candidate, mu))
        if cand_rho - best_rho > REFINE_MIN_GAIN_ULPS * np.spacing(best_rho):
            alpha, best_rho = candidate, cand_rho
    return alpha.copy(), float(best_rho)


def maximizer_conditions(alpha, mu, atol: float = 1e-3) -> list[dict]:
    """Optimality patterns satisfied by a form-factor row, if any.

    Condition (a): alpha_{r} = alpha_{r+1} = 1/2 across a maximal edge.
    Condition (b): alpha_{r} = alpha_{r-1} + alpha_{r+1} = 1/2 with both
    adjacent couplings maximal.  Matching is within ``atol`` per component.
    """
    alpha = np.asarray(alpha, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_max = mu.max()
    matches = []
    for r in range(len(mu)):  # edge between layers r+1 and r+2 (1-based)
        if (abs(alpha[r] - 0.5) <= atol and abs(alpha[r + 1] - 0.5) <= atol
                and mu[r] >= mu_max - 1e-12):
            matches.append({"condition": "a", "r_star": r + 1})
    for r in range(1, len(alpha) - 1):  # interior layer r+1 (1-based)
        if (abs(alpha[r] - 0.5) <= atol
                and abs(alpha[r - 1] + alpha[r + 1] - 0.5) <= atol
                and mu[r - 1] >= mu_max - 1e-12 and mu[r] >= mu_max - 1e-12):
            matches.append({"condition": "b", "r_star": r + 1})
    return matches


# ---------------------------------------------------------------------------
# Perron-direction instability check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstabilityReport:
    """Measured pi increments along the Perron direction vs. the quadratic law."""

    verdict: str  # "stable" | "unstable" | "inconclusive"
    rho: float
    epsilons: tuple
    delta_pi: np.ndarray
    predicted: np.ndarray
    direction: np.ndarray

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rho": self.rho,
            "epsilons": list(self.epsilons),
            "delta_pi": self.delta_pi.tolist(),
            "predicted": self.predicted.tolist(),
            "direction": self.direction.tolist(),
        }


def perron_instability_check(spec: ModelSpec, epsilons=(1e-2, 1e-3, 1e-4),
                             rule: QuadratureRule | None = None) -> InstabilityReport:
    """Probe pi along the Perron eigenvector of [M^2]^(oo) at h = 0.

    The leading-order increment is (eps^2 / 2)(v, (alpha^(oo)/2) v)(rho - 1):
    positive increments for rho > 1 certify that the origin does not
    realize the sup, negative ones for rho < 1 are consistent with
    stability of the zero solution.
    """
    if np.any(spec.h != 0.0):
        raise ValueError("the instability check is defined at h = 0")
    if spec.k % 2 != 0:
        raise ValueError("the instability check requires an even number of layers")
    rule = rule or default_rule()
    em = build_effective(spec)
    v = perron_vector(em)  # rejects reducible chains
    rho = spectral_radius_oo(em)
    quad_coeff = float(v @ (0.5 * em.alpha_o * v))
    pi0 = pi_value(np.zeros(spec.k // 2), spec, rule)
    delta = np.array([pi_value(e * v, spec, rule) - pi0 for e in epsilons])
    predicted = np.array([0.5 * e * e * quad_coeff * (rho - 1.0) for e in epsilons])
    if rho > 1.0 and np.any(delta > 0.0):
        verdict = "unstable"
    elif rho < 1.0 and np.all(delta < 0.0):
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return InstabilityReport(
        verdict=verdict,
        rho=rho,
        epsilons=tuple(epsilons),
        delta_pi=delta,
        predicted=predicted,
        direction=v,
    )
