"""Seeded inputs of the four workloads, as plain JSON-ready data.

The same ``(workload, seed)`` always gives the same inputs.  Seeded chains
are drawn as bounded perturbations of fixed base chains, and near-critical
points are placed at fixed values of rho, so the work in one round barely
depends on the seed: run-to-run spread is compared across different seeds,
and a seed that happened to need twice the iterations would read as noise.

Only NumPy, SciPy and ``reference.rho_oo`` are used here, so both the
entry point ``run.py`` (which never imports the package) and the worker that
times the package can build identical inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from reference import rho_oo

WORKLOADS = ("critical-scan", "geometry", "solver-crosscheck", "finite-size")

# README / config example: balanced two-layer machine, mu in [1, 3], 21 points
README_GRID = np.linspace(1.0, 3.0, 21).tolist()
APPROACH_POINTS = [1.999, 2.001]
README_SPEC = {"alpha": [0.5, 0.5], "mu": [4.0], "h": [0.1, 0.1]}
DEMO_OPTIMIZE_CHAINS = [[1.0, 3.0], [2.0, 2.0, 1.0], [1.5, 1.5, 1.5, 1.5]]

# Points of the K = 4 critical scans, as values of rho([M^2]^(oo)); all keep
# |rho - 1| >= 2e-2, where the damped solver's error stays below 1e-6.
CHAIN_RHO_TARGETS = (0.6, 0.98, 1.02, 1.4)
# Points of the alpha_simplex path scans, kept further from rho = 1.
PATH_RHO_TARGETS = (0.5, 0.8, 1.25, 1.6)

BASE_ALPHA4 = np.array([0.3, 0.2, 0.25, 0.25])
# Largest relative perturbation of the seeded h > 0 specs of solver-crosscheck,
# whose nested-bisection work moves with the chain more than the other
# workloads' work does.
FIELD_SPREAD = 0.02


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _perturbed_alpha(rng, base, spread=0.1) -> list:
    alpha = np.asarray(base) * rng.uniform(1.0 - spread, 1.0 + spread, len(base))
    return (alpha / alpha.sum()).tolist()


def _spec(alpha, mu, h=None) -> dict:
    return {"alpha": list(alpha), "mu": list(mu),
            "h": [0.0] * len(alpha) if h is None else list(h)}


def _coupling_for_rho(alpha, mu, edge: int, target: float) -> float:
    """Coupling of the 1-based ``edge`` at which rho([M^2]^(oo)) = target."""
    def gap(c):
        trial = list(mu)
        trial[edge - 1] = c
        return rho_oo(alpha, trial) - target

    return brentq(gap, 0.0, 100.0, xtol=1e-15)


def _critical_scan(rng) -> dict:
    scans = [{"name": "k2-balanced", **_spec([0.5, 0.5], [1.0]), "axis": "mu_edge",
              "edge": 1, "grid": sorted(README_GRID + APPROACH_POINTS)}]
    for i in range(2):
        alpha = _perturbed_alpha(rng, BASE_ALPHA4)
        mu = (np.array([1.0, 2.0, 1.2]) * rng.uniform(0.9, 1.1, 3)).tolist()
        grid = [_coupling_for_rho(alpha, mu, 2, t) for t in CHAIN_RHO_TARGETS]
        scans.append({"name": f"k4-chain-{i}", **_spec(alpha, mu), "axis": "mu_edge",
                      "edge": 2, "grid": grid})
    return {"scans": scans}


def _alpha_for_rho_k2(mu: float, target: float) -> list:
    # rho = mu^2 a (1 - a) for alpha = (a, 1 - a); take the root a < 1/2
    a = 0.5 * (1.0 - np.sqrt(1.0 - 4.0 * target / mu**2))
    return [float(a), float(1.0 - a)]


def _geometry(rng) -> dict:
    # several seeded K = 5 chains: one round then lasts about as long as a
    # round of the other workloads, and the Nelder-Mead work averages out
    seeded = [np.array([1.2, 2.6, 1.8]), np.array([2.4, 1.3, 2.0]),
              np.array([1.4, 2.2, 2.8, 1.6]), np.array([2.6, 1.5, 1.9, 2.3]),
              np.array([1.7, 2.9, 1.2, 2.1]), np.array([2.0, 1.6, 2.5, 2.7])]
    optimize = [list(m) for m in DEMO_OPTIMIZE_CHAINS] + [
        (base * rng.uniform(0.9, 1.1, len(base))).tolist() for base in seeded]

    mu2 = float(rng.uniform(2.8, 3.2))
    k2_path = [_alpha_for_rho_k2(mu2, t) for t in PATH_RHO_TARGETS]
    # K = 4 path from heavy outer layers towards the pair across the
    # strongest edge, along which rho rises towards max(mu)^2 / 4
    mu_path = (np.array([1.0, 3.0, 1.0]) * rng.uniform(0.95, 1.05, 3)).tolist()
    start = np.array([0.4, 0.1, 0.1, 0.4])
    end = np.array([0.02, 0.48, 0.48, 0.02])

    def along(t):
        return (1.0 - t) * start + t * end

    k4_path = []
    for target in PATH_RHO_TARGETS:
        t = brentq(lambda t: rho_oo(along(t), mu_path) - target, 0.0, 1.0, xtol=1e-15)
        row = along(t)
        k4_path.append((row / row.sum()).tolist())
    alpha_scans = [
        {"name": "k2-path", **_spec(k2_path[0], [mu2]), "axis": "alpha_simplex",
         "grid": k2_path},
        {"name": "k4-path", **_spec(k4_path[0], mu_path), "axis": "alpha_simplex",
         "grid": k4_path},
    ]

    alpha_p = _perturbed_alpha(rng, BASE_ALPHA4)
    mu_p = (np.array([1.5, 2.0, 1.5]) * rng.uniform(0.9, 1.1, 3))
    unit = rho_oo(alpha_p, mu_p)
    perron = [_spec([0.5, 0.5], [1.5]), _spec([0.5, 0.5], [3.0])]
    for target in (0.7, 1.4):  # rho scales with the square of the couplings
        perron.append(_spec(alpha_p, (mu_p * np.sqrt(target / unit)).tolist()))
    return {"optimize": optimize, "alpha_scans": alpha_scans, "perron": perron}


def _scaled(rng, values, spread) -> list:
    values = np.asarray(values, dtype=float)
    return (values * rng.uniform(1.0 - spread, 1.0 + spread, len(values))).tolist()


def _field_spec(rng, alpha, mu, h) -> dict:
    return _spec(_perturbed_alpha(rng, alpha, FIELD_SPREAD), _scaled(rng, mu, FIELD_SPREAD),
                 _scaled(rng, h, FIELD_SPREAD))


def _solver_crosscheck(rng) -> dict:
    # four seeded K = 4 chains around two bases (the first is the chain of
    # demos/03_solvers_cross_check.py); the nested cascade's level count
    # changes by up to 10% per chain between factors in [0.9, 1.1], so the
    # factors stay within FIELD_SPREAD and the four chains average the rest
    bases = [(BASE_ALPHA4, [2.4, 1.1, 2.9], [0.15, 0.4, 0.05, 0.3]),
             ([0.2, 0.3, 0.2, 0.3], [1.8, 2.6, 1.5], [0.3, 0.1, 0.2, 0.25])]
    k4 = [_field_spec(rng, *bases[i % 2]) for i in range(4)]
    k3 = _field_spec(rng, [0.4, 0.3, 0.3], [2.5, 1.8], [0.1, 0.2, 0.15])
    a = float(rng.uniform(0.5 - FIELD_SPREAD, 0.5 + FIELD_SPREAD))
    reducible = _spec([a, 1.0 - a, 0.0, 0.0], _scaled(rng, [3.0, 2.0, 1.5], FIELD_SPREAD),
                      _scaled(rng, [0.1, 0.2, 0.05, 0.3], FIELD_SPREAD))
    specs = [("readme-k2", README_SPEC), ("k3", k3)] + [
        (f"k4-chain-{i}", spec) for i, spec in enumerate(k4)] + [("k4-reducible", reducible)]
    out = []
    for name, spec in specs:
        k = len(spec["alpha"])
        # the selection `solve --method all` makes
        methods = ["fixed_point"] + (["pi_ascent"] if k % 2 == 0 else []) + ["nested_bisection"]
        out.append({"name": name, **spec, "methods": methods})
    return {"specs": out, "tol": 1e-10}


def _finite_size(rng) -> dict:
    # alpha stays fixed: it sets the layer sizes and hence the work per sweep
    k4 = _spec([0.3, 0.2, 0.25, 0.25],
               (np.array([3.0, 2.5, 3.5]) * rng.uniform(0.9, 1.1, 3)).tolist(),
               (np.array([0.1, 0.2, 0.05, 0.15]) * rng.uniform(0.9, 1.1, 4)).tolist())
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    gibbs = {"engine": "block_gibbs", "n": 2000, "n_disorder": 12, "sweeps": 70,
             "burn_in": 20, "n_replicas": 2}
    return {"runs": [
        {"name": "gibbs-k2-n2000", "spec": README_SPEC, "base_seed": seeds[0], **gibbs},
        {"name": "gibbs-k4-n2000", "spec": k4, "base_seed": seeds[1], **gibbs},
        {"name": "enum-k2-n16", "spec": README_SPEC, "base_seed": seeds[2],
         "engine": "enumeration", "n": 16, "n_disorder": 48},
        {"name": "enum-k4-n24", "spec": k4, "base_seed": seeds[1],
         "engine": "enumeration", "n": 24, "n_disorder": 96},
        # same base seed as enum-k2-n16, hence the same disorder samples
        {"name": "gibbs-k2-n16", "spec": README_SPEC, "base_seed": seeds[2],
         "engine": "block_gibbs", "n": 16, "n_disorder": 48, "sweeps": 250,
         "burn_in": 50, "n_replicas": 2},
    ]}


_MAKERS = {
    "critical-scan": _critical_scan,
    "geometry": _geometry,
    "solver-crosscheck": _solver_crosscheck,
    "finite-size": _finite_size,
}


def make(workload: str, seed: int) -> dict:
    """Inputs of one workload for one seed."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _MAKERS[workload](_rng(seed, workload))
