"""One round of each workload: the calls into the package that are timed.

A round is one fixed pass over a workload's operations, the way a user
task makes them: a phase diagram, a full solver cross-check or a set of
quenched averages.  Every package function is looked up on the
``nishimori_dbm`` namespace at call time, so the layer tracer's wrappers
take effect when they are installed.  Outputs are returned as plain JSON
data for ``run.py`` to check.
"""

from __future__ import annotations

import numpy as np

import nishimori_dbm as nd

SCAN_TOL = 1e-9  # the phase_scan default of the CLI


def _floats(values) -> list:
    return [float(v) for v in np.ravel(values)]


def _spec(data: dict):
    return nd.ModelSpec(k=len(data["alpha"]), alpha=data["alpha"], mu=data["mu"],
                        h=data["h"])


def prepare(workload: str, data: dict) -> dict:
    """Turn JSON inputs into package objects; part of set-up, not of a round."""
    if workload in ("critical-scan", "geometry"):
        scans = data["scans"] if workload == "critical-scan" else data["alpha_scans"]
        prepared = {"scans": [dict(s, template=_spec(s)) for s in scans]}
        if workload == "geometry":
            prepared["optimize"] = [list(mu) for mu in data["optimize"]]
            prepared["perron"] = [_spec(s) for s in data["perron"]]
        return prepared
    if workload == "solver-crosscheck":
        return {"tol": data["tol"],
                "specs": [dict(s, spec=_spec(s)) for s in data["specs"]]}
    if workload == "finite-size":
        runs = []
        for run in data["runs"]:
            spec = _spec(run["spec"])
            runs.append(dict(run, model=spec, size=nd.SystemSize.from_spec(spec, run["n"])))
        return {"runs": runs}
    raise ValueError(f"unknown workload {workload!r}")


def _scan(entry: dict) -> list:
    kwargs = {"edge": entry["edge"]} if entry["axis"] == "mu_edge" else {}
    points = nd.scan(entry["template"], entry["axis"], entry["grid"], tol=SCAN_TOL, **kwargs)
    return [{
        "rho": float(p.rho),
        "x": None if p.x_bar is None else _floats(p.x_bar),
        "phase": None if p.phase is None else p.phase.value,
        "converged": bool(p.converged),
        "error": p.error,
    } for p in points]


def _critical_scan(prepared: dict) -> dict:
    return {"scans": [_scan(entry) for entry in prepared["scans"]]}


def _geometry(prepared: dict) -> dict:
    optimize = []
    for mu in prepared["optimize"]:
        alpha, rho = nd.optimize_form_factors(mu)
        optimize.append({"alpha": _floats(alpha), "rho": float(rho)})
    perron = []
    for spec in prepared["perron"]:
        rep = nd.perron_instability_check(spec)
        perron.append({"verdict": rep.verdict, "rho": float(rep.rho),
                       "epsilons": _floats(rep.epsilons),
                       "delta_pi": _floats(rep.delta_pi),
                       "predicted": _floats(rep.predicted)})
    return {"optimize": optimize,
            "scans": [_scan(entry) for entry in prepared["scans"]],
            "perron": perron}


def _solve(method: str, spec, tol: float):
    if method == "fixed_point":
        return nd.solve_fixed_point(spec, tol=tol)
    if method == "pi_ascent":
        return nd.solve_pi_ascent(spec, tol=tol)
    return nd.solve_nested_bisection(spec)


def _solver_crosscheck(prepared: dict) -> dict:
    results = []
    for entry in prepared["specs"]:
        per_method = {}
        for method in entry["methods"]:
            try:
                sol = _solve(method, entry["spec"], prepared["tol"])
            except (ValueError, RuntimeError) as exc:
                per_method[method] = {"error": str(exc)}
                continue
            per_method[method] = {"x": _floats(sol.x_bar), "phase": sol.phase.value,
                                  "converged": bool(sol.converged),
                                  "residual": float(sol.residual), "error": None}
        results.append(per_method)
    return {"specs": results}


def _finite_size(prepared: dict) -> dict:
    results = []
    for run in prepared["runs"]:
        kwargs = {}
        if run["engine"] == "block_gibbs":
            kwargs = {"sweeps": run["sweeps"], "burn_in": run["burn_in"],
                      "n_replicas": run["n_replicas"]}
        rep = nd.quenched_run(run["model"], run["size"], run["n_disorder"],
                              run["base_seed"], engine=run["engine"], **kwargs)
        results.append({
            "layer_sizes": list(rep.size.layer_sizes),
            "m": rep.m_samples.tolist(),
            "q": rep.q_samples.tolist(),
            "p": None if rep.p_samples is None else _floats(rep.p_samples),
            "theory_x": _floats(rep.theory_x),
        })
    return {"runs": results}


ROUNDS = {
    "critical-scan": _critical_scan,
    "geometry": _geometry,
    "solver-crosscheck": _solver_crosscheck,
    "finite-size": _finite_size,
}


def run_round(workload: str, prepared: dict) -> dict:
    """Execute one round and return its outputs."""
    return ROUNDS[workload](prepared)
