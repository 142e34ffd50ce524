"""Each workload's checks pass on the package's outputs and reject perturbed ones.

One round of every workload is run in-process on a fixed seed (about
twenty seconds in all).  Run with ``python -m pytest perfbench`` from the
root of the repository.
"""

import copy
import functools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import rounds  # noqa: E402

SEED = 20261018


@functools.lru_cache(maxsize=None)
def _round(workload):
    data = inputs.make(workload, SEED)
    refs = checks.references(workload, data)
    out = rounds.run_round(workload, rounds.prepare(workload, data))
    return data, refs, out


def _details(workload, out):
    """{failed operation: what was wrong} for perturbed outputs."""
    data, refs, _ = _round(workload)
    return {op: detail for op, ok, detail in checks.check_round(workload, data, refs, out)
            if not ok}


def _failed(workload, out):
    return set(_details(workload, out))


def _outputs(workload):
    return copy.deepcopy(_round(workload)[2])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_only_known_faults_fail(workload):
    failed = _failed(workload, _outputs(workload))
    expected = checks.KNOWN_FAULTS if workload == "critical-scan" else set()
    assert failed == expected


def test_critical_scan_rejects_shifted_x_and_swapped_phase():
    out = _outputs("critical-scan")
    k4 = out["scans"][1]
    broken = next(i for i, p in enumerate(k4) if p["phase"] == "broken_symmetry")
    zero = next(i for i, p in enumerate(k4) if p["phase"] == "zero_solution")
    k4[broken]["x"][0] += 1e-5
    k4[zero]["phase"] = "broken_symmetry"
    failed = _failed("critical-scan", out) - checks.KNOWN_FAULTS
    assert len(failed) == 2 and all(op.startswith("critical-scan:k4-chain-0:") for op in failed)


def test_critical_scan_known_faults_are_the_residual_stop():
    # the three kept failures are x errors of the damped solver near rho = 1
    data, refs, out = _round("critical-scan")
    details = {op: detail for op, ok, detail in
               checks.check_round("critical-scan", data, refs, out) if not ok}
    assert all("|x - x_ref|" in details[op] for op in checks.KNOWN_FAULTS)


def test_geometry_rejects_wrong_rho_star_and_swapped_verdict():
    out = _outputs("geometry")
    out["optimize"][3]["rho"] *= 1.0 + 1e-6
    out["perron"][0]["verdict"] = "unstable"
    out["scans"][1][2]["x"][1] -= 1e-5
    details = _details("geometry", out)
    assert len(details) == 3
    assert "rho*" in details[f"geometry:optimize:{_round('geometry')[0]['optimize'][3]}"]
    assert "verdict" in details["geometry:perron-0"]
    assert any(op.startswith("geometry:k4-path:") and "|x - x_ref|" in d
               for op, d in details.items())


def test_geometry_rejects_alpha_off_the_simplex():
    out = _outputs("geometry")
    out["optimize"][0]["alpha"][0] += 1e-9
    assert len(_failed("geometry", out)) == 1


def test_solver_crosscheck_rejects_shifted_x():
    for method in ("fixed_point", "pi_ascent", "nested_bisection"):
        out = _outputs("solver-crosscheck")
        out["specs"][2][method]["x"][3] += 1e-5
        assert _failed("solver-crosscheck", out) == {f"solver-crosscheck:k4-chain-0:{method}"}


def _offset_by_se(values, r, count=5.0, reference=None):
    """Shift column r by `count` standard errors of the checked difference,
    away from zero, so the perturbed gap is at least `count` SE."""
    values = np.asarray(values, dtype=float)
    diff = values[:, r] - reference[:, r]
    se = np.std(diff, ddof=1) / math.sqrt(len(diff))
    values[:, r] += count * se * (1.0 if diff.mean() >= 0 else -1.0)
    return values.tolist()


@pytest.mark.parametrize("run_name", ["enum-k4-n24", "enum-k2-n16", "gibbs-k2-n16"])
def test_finite_size_rejects_m_offset_by_five_standard_errors(run_name):
    data, refs, _ = _round("finite-size")
    names = [run["name"] for run in data["runs"]]
    i = names.index(run_name)
    out = _outputs("finite-size")
    run = out["runs"][i]
    m, q = np.asarray(run["m"]), np.asarray(run["q"])
    # against E<q> (the identity check) for every run with >= 48 samples ...
    run["m"] = _offset_by_se(m, 0, reference=q)
    assert _failed("finite-size", out) == {f"finite-size:{run_name}"}
    # ... and against the exact averages of the same disorder for the Gibbs run
    if run_name == "gibbs-k2-n16":
        run["m"] = _offset_by_se(m, 1, reference=refs["runs"][i]["exact"]["m"])
        details = _details("finite-size", out)
        assert set(details) == {f"finite-size:{run_name}"}
        assert "layer 2: Gibbs m - exact" in details[f"finite-size:{run_name}"]


def test_finite_size_rejects_enumeration_off_brute_force():
    out = _outputs("finite-size")
    out["runs"][2]["p"][5] += 1e-9
    assert _failed("finite-size", out) == {"finite-size:enum-k2-n16"}


def test_finite_size_rejects_wrong_theory_value():
    out = _outputs("finite-size")
    out["runs"][0]["theory_x"][1] += 1e-5
    assert _failed("finite-size", out) == {"finite-size:gibbs-k2-n2000"}
