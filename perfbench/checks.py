"""Reference values and output checks of the four workloads.

``references`` computes, before any timing, everything the checks compare
with; it uses ``reference.py`` only, never the package.  ``check_round``
turns one round's outputs into one verdict per operation.

Tolerances (see README.md for why each is right):

* x within ``X_TOL`` = 1e-6 (max norm) of the reference fixed point;
* zero-field phase equal to the one the independent rho rule predicts;
* rho within ``RHO_RTOL`` = 1e-9 relative of the dense eigensolve;
* optimal rho* = max(mu)^2 / 4 to ``RHO_RTOL``, alpha* on the simplex to
  ``SIMPLEX_TOL`` = 1e-12 and rho(alpha*) = rho*;
* delta_pi / predicted approaching 1 as eps -> 0, within ``PERRON_TOL`` at
  the smallest eps;
* enumeration equal to brute force to ``EXACT_TOL`` = 1e-10;
* statistical identities (E<m> = E<q>, Gibbs = exact) within the two-sided
  Student-t bound of false-alarm probability ``FALSE_ALARM`` = 1e-5.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import t as student_t

import reference as ref

X_TOL = 1e-6
RHO_RTOL = 1e-9
SIMPLEX_TOL = 1e-12
PERRON_TOL = 1e-2
EXACT_TOL = 1e-10
FALSE_ALARM = 1e-5

# Operations that fail on every round and every seed because of a known
# fault: solve_fixed_point stops on the residual, not the error, and near
# rho = 1 the error is about residual / (1 - contraction rate).
KNOWN_FAULTS = frozenset({
    "critical-scan:k2-balanced:mu=1.999",
    "critical-scan:k2-balanced:mu=2.0",
    "critical-scan:k2-balanced:mu=2.001",
})


def _with_edge(mu, edge, value):
    mu = list(mu)
    mu[edge - 1] = value
    return mu


def _point_specs(scan):
    """(alpha, mu, label) of every grid point of a scan input."""
    for value in scan["grid"]:
        if scan["axis"] == "mu_edge":
            yield scan["alpha"], _with_edge(scan["mu"], scan["edge"], value), f"mu={value!r}"
        else:
            yield value, scan["mu"], "alpha=" + ",".join(f"{a:.6f}" for a in value)


def _scan_references(scan):
    points = []
    for alpha, mu, label in _point_specs(scan):
        rho = ref.rho_oo(alpha, mu)
        if scan["name"] == "k2-balanced":
            x = np.full(2, ref.balanced_pair_fixed_point(mu[0]))
        else:
            x = ref.max_fixed_point(alpha, mu, np.zeros(len(alpha)))
        points.append({"label": label, "rho": rho, "x": x,
                       "phase": ref.zero_field_phase(rho)})
    return points


def _brute_force_samples(run, cache):
    spec = run["spec"]
    out = []
    for i in range(run["n_disorder"]):
        # runs that share spec, N and base seed share their disorder samples
        key = (repr(spec), run["n"], run["base_seed"], i)
        if key not in cache:
            sizes, pairs, fields = ref.disorder(spec["alpha"], spec["mu"], spec["h"],
                                                run["n"], run["base_seed"], i)
            cache[key] = ref.brute_force(sizes, pairs, fields)
        out.append(cache[key])
    return {key: np.array([s[key] for s in out]) for key in ("m", "q", "pressure")}


def references(workload: str, data: dict) -> dict:
    """Reference values of every output of one round, computed apart."""
    if workload == "critical-scan":
        return {"scans": [_scan_references(s) for s in data["scans"]]}
    if workload == "geometry":
        return {"scans": [_scan_references(s) for s in data["alpha_scans"]],
                "perron_rho": [ref.rho_oo(s["alpha"], s["mu"]) for s in data["perron"]]}
    if workload == "solver-crosscheck":
        return {"x": [ref.max_fixed_point(s["alpha"], s["mu"], s["h"]) for s in data["specs"]]}
    if workload == "finite-size":
        runs, cache = [], {}
        for run in data["runs"]:
            spec = run["spec"]
            entry = {"theory_x": ref.max_fixed_point(spec["alpha"], spec["mu"], spec["h"]),
                     "layer_sizes": list(ref.layer_sizes(spec["alpha"], run["n"]))}
            if run["n"] <= ref.BRUTE_FORCE_MAX_N:
                entry["exact"] = _brute_force_samples(run, cache)
            runs.append(entry)
        return {"runs": runs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def mean_zero_bound(d) -> tuple[float, float]:
    """(|mean d|, Student-t bound) for the hypothesis E d = 0 over samples."""
    d = np.asarray(d, dtype=float)
    n = len(d)
    se = float(np.std(d, ddof=1)) / math.sqrt(n)
    return abs(float(np.mean(d))), float(student_t.isf(FALSE_ALARM / 2.0, n - 1)) * se


def _x_error(x, x_ref) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(x_ref))))


def _check_scan(prefix, scan_out, scan_ref):
    results = []
    for got, want in zip(scan_out, scan_ref, strict=True):
        op = f"{prefix}:{want['label']}"
        if got["error"] is not None:
            results.append((op, False, f"error: {got['error']}"))
            continue
        problems = []
        if not got["converged"]:
            problems.append("not converged")
        err = _x_error(got["x"], want["x"])
        if not err <= X_TOL:
            problems.append(f"|x - x_ref| = {err:.3e} > {X_TOL:g}")
        if got["phase"] != want["phase"]:
            problems.append(f"phase {got['phase']} != {want['phase']}")
        if not abs(got["rho"] - want["rho"]) <= RHO_RTOL * want["rho"]:
            problems.append(f"rho {got['rho']!r} != {want['rho']!r}")
        results.append((op, not problems, "; ".join(problems)))
    return results


def _check_optimize(mu, got):
    problems = []
    alpha = np.asarray(got["alpha"])
    expected = max(mu) ** 2 / 4.0
    if not abs(got["rho"] - expected) <= RHO_RTOL * expected:
        problems.append(f"rho* {got['rho']!r} != max(mu)^2/4 = {expected!r}")
    if alpha.shape != (len(mu) + 1,) or np.any(alpha < 0) or \
            not abs(alpha.sum() - 1.0) <= SIMPLEX_TOL:
        problems.append(f"alpha* {alpha.tolist()} is not on the simplex")
    else:
        rho_at = ref.rho_oo(alpha, mu)
        if not abs(rho_at - got["rho"]) <= RHO_RTOL * expected:
            problems.append(f"rho(alpha*) = {rho_at!r} != reported {got['rho']!r}")
    return problems


def _check_perron(got, rho_ref):
    problems = []
    want = "unstable" if rho_ref > 1.0 else "stable"
    if got["verdict"] != want:
        problems.append(f"verdict {got['verdict']} != {want}")
    if not abs(got["rho"] - rho_ref) <= RHO_RTOL * rho_ref:
        problems.append(f"rho {got['rho']!r} != {rho_ref!r}")
    order = np.argsort(got["epsilons"])[::-1]  # largest eps first
    ratio = np.asarray(got["delta_pi"])[order] / np.asarray(got["predicted"])[order]
    gap = np.abs(ratio - 1.0)
    if not (np.all(np.diff(gap) < 0) and gap[-1] <= PERRON_TOL):
        problems.append(f"delta_pi/predicted = {ratio.tolist()} does not approach 1")
    return problems


def _check_run(run, got, want):
    problems = []
    if got["layer_sizes"] != want["layer_sizes"]:
        problems.append(f"layer sizes {got['layer_sizes']} != {want['layer_sizes']}")
    err = _x_error(got["theory_x"], want["theory_x"])
    if not err <= X_TOL:
        problems.append(f"theory |x - x_ref| = {err:.3e}")
    m = np.asarray(got["m"])
    q = np.asarray(got["q"])
    for r in range(m.shape[1]):
        gap, bound = mean_zero_bound(m[:, r] - q[:, r])
        if not gap <= bound:
            problems.append(f"layer {r + 1}: |E<m> - E<q>| = {gap:.3e} > {bound:.3e}")
    exact = want.get("exact")
    if exact is not None and run["engine"] == "enumeration":
        for key, values in (("m", m), ("q", q), ("pressure", np.asarray(got["p"]))):
            err = float(np.max(np.abs(values - exact[key])))
            if not err <= EXACT_TOL:
                problems.append(f"enumeration {key} differs from brute force by {err:.3e}")
    elif exact is not None:
        for key, values in (("m", m), ("q", q)):
            for r in range(values.shape[1]):
                gap, bound = mean_zero_bound(values[:, r] - exact[key][:, r])
                if not gap <= bound:
                    problems.append(f"layer {r + 1}: Gibbs {key} - exact = {gap:.3e} "
                                    f"> {bound:.3e}")
    return problems


def check_round(workload: str, data: dict, refs: dict, out: dict) -> list:
    """[(operation, ok, detail)] for one round's outputs."""
    results = []
    if workload == "critical-scan":
        for scan, got, want in zip(data["scans"], out["scans"], refs["scans"], strict=True):
            results += _check_scan(f"{workload}:{scan['name']}", got, want)
    elif workload == "geometry":
        for mu, got in zip(data["optimize"], out["optimize"], strict=True):
            problems = _check_optimize(mu, got)
            results.append((f"{workload}:optimize:{mu}", not problems, "; ".join(problems)))
        for scan, got, want in zip(data["alpha_scans"], out["scans"], refs["scans"],
                                   strict=True):
            results += _check_scan(f"{workload}:{scan['name']}", got, want)
        for i, (got, rho_ref) in enumerate(zip(out["perron"], refs["perron_rho"],
                                               strict=True)):
            problems = _check_perron(got, rho_ref)
            results.append((f"{workload}:perron-{i}", not problems, "; ".join(problems)))
    elif workload == "solver-crosscheck":
        for spec, got, x_ref in zip(data["specs"], out["specs"], refs["x"], strict=True):
            for method in spec["methods"]:
                sol = got[method]
                op = f"{workload}:{spec['name']}:{method}"
                if sol["error"] is not None:
                    results.append((op, False, f"error: {sol['error']}"))
                    continue
                problems = []
                if not sol["converged"]:
                    problems.append("not converged")
                if sol["phase"] != "field_driven":
                    problems.append(f"phase {sol['phase']} != field_driven")
                err = _x_error(sol["x"], x_ref)
                if not err <= X_TOL:
                    problems.append(f"|x - x_ref| = {err:.3e} > {X_TOL:g}")
                results.append((op, not problems, "; ".join(problems)))
    elif workload == "finite-size":
        for run, got, want in zip(data["runs"], out["runs"], refs["runs"], strict=True):
            problems = _check_run(run, got, want)
            results.append((f"{workload}:{run['name']}", not problems, "; ".join(problems)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return results
