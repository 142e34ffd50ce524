"""The layer tracer wraps from outside, restores cleanly and counts reproducibly.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import nishimori_dbm as nd  # noqa: E402
from nishimori_dbm import special_functions, variational  # noqa: E402

import tracer as tracing  # noqa: E402


def test_install_rebinds_every_importer_and_uninstall_restores():
    originals = (nd.big_f, special_functions.big_f, variational.big_f, nd.solve_fixed_point)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nd.big_f is special_functions.big_f is variational.big_f
        assert nd.big_f is not originals[0]
        assert nd.big_f.__wrapped__ is originals[0]
        spec = nd.ModelSpec(k=2, alpha=[0.5, 0.5], mu=[4.0], h=[0.1, 0.1])
        with tracer.span("round"):
            sol = nd.solve_fixed_point(spec, tol=1e-10)
    finally:
        tracer.uninstall()
    assert (nd.big_f, special_functions.big_f, variational.big_f,
            nd.solve_fixed_point) == originals

    a = tracer.arrays()
    names = a["names"][a["name_id"]]
    assert names[0] == "round" and a["parent"][0] == -1
    solve = int(np.flatnonzero(names == "variational.solve_fixed_point")[0])
    assert a["parent"][solve] == 0
    # the solver's own big_f calls (one per iteration, plus the final
    # residual) are children of its span, found through the module global
    children = names[a["parent"] == solve]
    assert np.count_nonzero(children == "special_functions.big_f") == sol.iterations + 1
    # self time is the span minus its direct children, and never negative
    self_s = tracer.self_times()
    duration = a["end"] - a["start"]
    assert self_s[solve] == pytest.approx(
        duration[solve] - duration[a["parent"] == solve].sum(), abs=1e-12)
    assert np.all(self_s >= -1e-9)
    assert self_s.sum() == pytest.approx(duration[0], rel=1e-9)

    metrics = tracing.layer_metrics(tracer, 0, len(tracer), nd.default_rule())
    assert metrics["variational.solve_fixed_point.solves"] == 1
    assert metrics["variational.solve_fixed_point.iterations"] == sol.iterations
    assert metrics["special_functions.big_f.calls"] >= sol.iterations + 1


def _traced_counts(seed):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "geometry",
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170, check=True)
    per_round = json.loads(proc.stdout.splitlines()[-1])["layer_counts_per_round"]
    return [{k: v for k, v in r.items() if tracing.per_layer_unit(k) == "count"}
            for r in per_round]


def test_counts_repeat_exactly_between_traced_runs():
    first = _traced_counts(7)
    second = _traced_counts(7)
    assert first == second
    assert first[0]["phase.optimize_form_factors.grid_rows"] > 0
    assert first[0]["special_functions.big_f.calls"] > 0
