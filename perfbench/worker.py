"""Timed process of the benchmark: set up, then run whole rounds.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this file in a fresh interpreter with the
BLAS thread count fixed in the environment.  Set-up imports the package
from ``src/`` of the checkout, builds the default quadrature rule and the
workload's inputs, then prints ``ready`` and the monotonic clock.  With
``--setup-only`` it stops there.  Otherwise it runs rounds back to back (a closed loop with one
client) until ``--seconds`` have passed and at least two rounds are done,
and prints one JSON line with the round times, outputs and peak memory.

With ``--trace 1`` the first round is traced, then untraced and traced
rounds alternate (at least one of each after the first), so the same
process gives both the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the spans of a traced run to this .npz file")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nishimori_dbm as nd
    import inputs
    import rounds

    rule = nd.default_rule()
    prepared = rounds.prepare(args.workload, inputs.make(args.workload, args.seed))
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    round_s, cpu_s, traced, span_ranges, outputs = [], [], [], [], []
    began = time.perf_counter()
    while True:
        index = len(round_s)
        trace_this = tracer is not None and index % 2 == 0
        if trace_this:
            tracer.install()
            first_span = len(tracer)
        c0 = time.process_time()
        t0 = time.perf_counter()
        if trace_this:
            with tracer.span("round"):
                out = rounds.run_round(args.workload, prepared)
        else:
            out = rounds.run_round(args.workload, prepared)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if trace_this:
            tracer.uninstall()
            span_ranges.append((first_span, len(tracer)))
        round_s.append(t1 - t0)
        cpu_s.append(c1 - c0)
        traced.append(trace_this)
        outputs.append(out)
        enough = len(round_s) >= (3 if tracer is not None else 2)
        if enough and t1 - began >= args.seconds:
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"round_s": round_s, "cpu_s": cpu_s, "traced": traced,
              "peak_rss_kib": peak_rss_kib, "outputs": outputs}
    if tracer is not None:
        per_round = [tracing.layer_metrics(tracer, a, b, rule) for a, b in span_ranges[1:]]
        layers = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        layers["phase.optimize_form_factors.first_call_ms"] = tracing.first_call_ms(
            tracer, "phase.optimize_form_factors")
        result["layers"] = layers
        result["layer_counts_per_round"] = per_round
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
