"""Benchmark of nishimori_dbm: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload critical-scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The steps, in order:

1. build the workload's inputs from ``--seed`` and compute every reference
   value with ``reference.py`` (never the package), outside all timing;
2. start ``SETUP_PROBES`` fresh interpreters that only set up (import the
   package, build the default rule and the inputs) and time each until it
   reports ready;
3. start the timed worker, which sets up the same way and then runs whole
   rounds for ``--seconds``;
4. check every output of every round against the references.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (set-up time, first round, later rounds, peak memory);
with ``--trace 1`` they are the per-layer ones from a traced worker.
Inputs, spans and the full result are also written to ``perfbench/out/``.
The exit code is 0 when a result was printed, and 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Fixed BLAS thread count of every benchmark process: one thread per process
# keeps run-to-run noise from another tenant's load out of the matvecs.
BLAS_THREADS = 1
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 150

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import checks  # noqa: E402  (BLAS threads must be fixed before NumPy loads)
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402


class BenchError(RuntimeError):
    pass


def _worker_cmd(args, *extra) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def _run_worker(cmd) -> tuple[float, list]:
    """Run a worker to its end; return (seconds until it was ready, its lines).

    The worker prints ``ready <time.monotonic()>`` once set up; the monotonic
    clock is shared by all processes, so the difference to the start time
    here is the set-up time of the fresh interpreter.
    """
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the worker imports the package from src/ only
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return float(lines[0].split()[1]) - t0, lines[1:]


def machine_facts() -> dict:
    """What the machine and libraries are, read without changing anything."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": len(os.sched_getaffinity(0)), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nishimori_dbm", "__init__.py")):
        raise BenchError(f"no package source under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    data = inputs.make(args.workload, args.seed)
    refs = checks.references(args.workload, data)

    setup_s = [_run_worker(_worker_cmd(args, "--setup-only"))[0]
               for _ in range(SETUP_PROBES)]
    run_cmd = _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    if args.trace:
        run_cmd += ["--spans", stem + "-spans.npz"]
    ready_s, lines = _run_worker(run_cmd)
    setup_s.append(ready_s)
    result = json.loads(lines[-1])

    attempted = failed = 0
    unexpected = []
    for out in result["outputs"]:
        for op, ok, detail in checks.check_round(args.workload, data, refs, out):
            attempted += 1
            if not ok:
                failed += 1
                if op not in checks.KNOWN_FAULTS:
                    unexpected.append(f"{op}: {detail}")
    # every round repeats the same inputs, so their outputs must agree too
    consistent = all(out == result["outputs"][0] for out in result["outputs"])
    correct = not unexpected and consistent

    rounds = result["round_s"]
    if args.trace:
        later = range(1, len(rounds))
        traced = [rounds[i] for i in later if result["traced"][i]]
        plain = [rounds[i] for i in later if not result["traced"][i]]
        layers = dict(result["layers"])
        layers["process.cpu_s_per_round"] = statistics.median(
            result["cpu_s"][i] for i in later if result["traced"][i])
        layers["tracing.round_s"] = statistics.median(traced)
        layers["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: _metric(value, tracing.per_layer_unit(name))
                   for name, value in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "first_round_s": _metric(rounds[0], "s"),
            "round_s": _metric(statistics.median(rounds[1:]), "s"),
            "peak_rss_mib": _metric(result["peak_rss_kib"] / 1024.0, "MiB"),
        }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "setup_s": setup_s,
              "round_s": rounds, "cpu_s": result["cpu_s"], "traced": result["traced"],
              "unexpected_failures": unexpected, "outputs_consistent": consistent,
              "metrics": metrics}
    if args.trace:
        record["layer_counts_per_round"] = result["layer_counts_per_round"]
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in unexpected[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, blas threads {BLAS_THREADS}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
