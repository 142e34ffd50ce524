"""Layer tracer installed on the package from outside.

Every public function of the traced modules is wrapped, and the wrapper is
bound in place of the original in every ``nishimori_dbm`` module that holds
the name, so calls between modules and inside one module both pass through
it.  A wrapper records one span: its name, start, end, the span that was
open when it was called, and for a few functions the size of the work
(elements, iterations, sweeps, states).  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("special_functions", "model", "variational", "phase", "simulator")


def _size(args, kwargs, name):
    value = args[0] if args else kwargs[name]
    if isinstance(value, np.ndarray):
        return value.size
    return 1 if isinstance(value, (float, int)) else int(np.size(value))


def _iterations(result, args, kwargs):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _grid_rows(result, args, kwargs):
    mu = args[0] if args else kwargs["mu"]
    grid_step = args[1] if len(args) > 1 else kwargs.get("grid_step", 1.0 / 40.0)
    k = len(mu) + 1
    steps = int(round(1.0 / grid_step))
    return {"grid_rows": math.comb(steps + k - 1, k - 1)}


def _gibbs(result, args, kwargs):
    disorder = args[0] if args else kwargs["disorder"]
    sweeps = args[1] if len(args) > 1 else kwargs["sweeps"]
    replicas = args[3] if len(args) > 3 else kwargs.get("n_replicas", 2)
    sizes = disorder.size.layer_sizes
    pair_entries = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    return {"sweeps": int(sweeps), "spins": int(disorder.size.n) * int(replicas),
            # each half-step reads every coupling block once per replica, so
            # a sweep reads every block twice per replica (float64)
            "coupling_bytes": 2 * int(replicas) * pair_entries * 8}


# span extras by traced name; the value is computed after the call returns
EXTRAS = {
    "special_functions.psi": lambda r, a, k: {"elements": _size(a, k, "x")},
    "special_functions.big_f": lambda r, a, k: {"elements": _size(a, k, "h")},
    "special_functions.big_f_prime": lambda r, a, k: {"elements": _size(a, k, "h")},
    "special_functions.big_f_inverse": lambda r, a, k: {"elements": _size(a, k, "y")},
    "variational.solve_fixed_point": _iterations,
    "variational.solve_pi_ascent": _iterations,
    "variational.solve_nested_bisection": _iterations,
    "phase.scan": lambda r, a, k: {"points": len(r)},
    "phase.optimize_form_factors": _grid_rows,
    "simulator.run_block_gibbs": _gibbs,
    "simulator.exact_enumerate": lambda r, a, k: {"states": int(r.diagnostics["states"])},
}


class Tracer:
    """Spans of traced calls, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extras: dict[int, dict] = {}
        self._stack: list[int] = []
        self._bound: list[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        extra = EXTRAS.get(name)
        stack, parent, names, start, end = (self._stack, self.parent, self.name_id,
                                            self.start, self.end)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if extra is not None:
                self.extras[span] = extra(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span around a block: ``with tracer.span("round"): ...``."""
        if name not in self.names:
            self.names.append(name)
        span = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(self.names.index(name))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[span] = time.perf_counter()

    def install(self, package: str = "nishimori_dbm") -> None:
        """Wrap the public functions of every traced layer and rebind them."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original) or original.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, held, wrapper)
                            self._bound.append((holder, held, original))

    def uninstall(self) -> None:
        """Put every original function back where the wrapper was bound."""
        for holder, held, original in reversed(self._bound):
            setattr(holder, held, original)
        self._bound.clear()

    def arrays(self) -> dict:
        """Spans as NumPy arrays (span id = index) plus the name table."""
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def self_times(self) -> np.ndarray:
        """Span duration minus the duration of its direct child spans."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], duration[has_parent])
        return duration - child

    def write(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, self_s=self.self_times(), **a)


def layer_metrics(tracer: Tracer, first: int, stop: int, rule) -> dict:
    """Per-layer counts and busy times of the spans with ids in [first, stop)."""
    a = tracer.arrays()
    names = a["names"]
    ids = np.arange(first, stop)
    name_of = names[a["name_id"][first:stop]]
    duration = (a["end"] - a["start"])[first:stop]
    self_s = tracer.self_times()[first:stop]

    def select(name):
        mask = name_of == name
        return ids[mask], duration[mask]

    def extras(name, key):
        return [tracer.extras[int(i)][key] for i in select(name)[0]]

    def calls(name):
        return int(np.count_nonzero(name_of == name))

    def busy(name):
        return float(select(name)[1].sum())

    def per(total, count, scale):
        return total * scale / count if count else 0.0

    def per_call(name, scale):
        return per(busy(name), calls(name), scale)

    out = {}
    elements = {}
    for kernel in ("psi", "big_f", "big_f_prime", "big_f_inverse"):
        elements[kernel] = int(sum(extras(f"special_functions.{kernel}", "elements")))
    out["special_functions.big_f.calls"] = calls("special_functions.big_f")
    out["special_functions.big_f.elements"] = elements["big_f"]
    out["special_functions.big_f.us_per_call"] = per_call("special_functions.big_f", 1e6)
    out["special_functions.big_f_prime.calls"] = calls("special_functions.big_f_prime")
    out["special_functions.psi.calls"] = calls("special_functions.psi")
    out["special_functions.big_f_inverse.elements"] = elements["big_f_inverse"]
    out["special_functions.big_f_inverse.us_per_element"] = per(
        busy("special_functions.big_f_inverse"), elements["big_f_inverse"], 1e6)
    # computed: every element of a quadrature kernel visits every rule node
    out["special_functions.nodes_touched"] = (
        elements["psi"] + elements["big_f"] + elements["big_f_prime"]) * len(rule.weights)
    weights = np.asarray(rule.weights)
    out["special_functions.live_node_ratio"] = float(
        np.count_nonzero(weights >= 1e-18 * weights.max()) / weights.size)
    for layer in LAYERS:
        mask = np.char.startswith(name_of, layer + ".")
        out[f"{layer}.self_s"] = float(self_s[mask].sum())

    out["model.spectral_radius_oo.calls"] = calls("model.spectral_radius_oo")
    out["model.spectral_radius_oo.us_per_call"] = per_call("model.spectral_radius_oo", 1e6)
    out["model.build_effective.calls"] = calls("model.build_effective")

    fp = "variational.solve_fixed_point"
    fp_iters = extras(fp, "iterations")
    out[f"{fp}.solves"] = calls(fp)
    out[f"{fp}.iterations"] = int(sum(fp_iters))
    out[f"{fp}.max_iterations"] = int(max(fp_iters, default=0))
    out[f"{fp}.ms_per_solve"] = per_call(fp, 1e3)
    out[f"{fp}.unconverged"] = int(sum(not c for c in extras(fp, "converged")))
    pa = "variational.solve_pi_ascent"
    out[f"{pa}.iterations"] = int(sum(extras(pa, "iterations")))
    out[f"{pa}.ms_per_solve"] = per_call(pa, 1e3)
    nb = "variational.solve_nested_bisection"
    out[f"{nb}.level_evals"] = int(sum(extras(nb, "iterations")))
    out[f"{nb}.ms_per_solve"] = per_call(nb, 1e3)
    out["variational.scalar_solution.calls"] = calls("variational.scalar_solution")
    out["variational.pi_value.calls"] = calls("variational.pi_value")

    points = int(sum(extras("phase.scan", "points")))
    out["phase.scan.points"] = points
    out["phase.scan.ms_per_point"] = per(busy("phase.scan"), points, 1e3)
    off = "phase.optimize_form_factors"
    out[f"{off}.ms_per_call"] = per_call(off, 1e3)
    out[f"{off}.grid_rows"] = int(sum(extras(off, "grid_rows")))
    pic = "phase.perron_instability_check"
    out[f"{pic}.ms_per_call"] = per_call(pic, 1e3)

    sd = "simulator.sample_disorder"
    out[f"{sd}.ms_per_sample"] = per_call(sd, 1e3)
    gibbs = "simulator.run_block_gibbs"
    sweeps = int(sum(extras(gibbs, "sweeps")))
    spin_updates = sum(s * n for s, n in zip(extras(gibbs, "sweeps"), extras(gibbs, "spins")))
    coupling = sum(s * b for s, b in zip(extras(gibbs, "sweeps"), extras(gibbs, "coupling_bytes")))
    out[f"{gibbs}.sweeps"] = sweeps
    out[f"{gibbs}.ms_per_sweep"] = per(busy(gibbs), sweeps, 1e3)
    out[f"{gibbs}.spin_updates_per_s"] = spin_updates / busy(gibbs) if sweeps else 0.0
    out[f"{gibbs}.coupling_mib_per_sweep"] = per(coupling, sweeps, 1.0 / 2**20)
    ee = "simulator.exact_enumerate"
    out[f"{ee}.ms_per_sample"] = per_call(ee, 1e3)
    out[f"{ee}.states"] = int(sum(extras(ee, "states")))
    qr = "simulator.quenched_run"
    out[f"{qr}.ms_per_call"] = per_call(qr, 1e3)
    return out


PER_LAYER_UNITS = {
    "calls": "count", "elements": "count", "points": "count", "solves": "count",
    "iterations": "count", "max_iterations": "count", "unconverged": "count",
    "level_evals": "count", "grid_rows": "count", "sweeps": "count", "states": "count",
    "nodes_touched": "count", "live_node_ratio": "ratio", "self_s": "s",
    "us_per_call": "us", "us_per_element": "us", "ms_per_solve": "ms",
    "ms_per_point": "ms", "ms_per_call": "ms", "first_call_ms": "ms",
    "ms_per_sample": "ms", "ms_per_sweep": "ms", "spin_updates_per_s": "1/s",
    "coupling_mib_per_sweep": "MiB", "cpu_s_per_round": "s", "round_s": "s",
    "overhead_s": "s",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def first_call_ms(tracer: Tracer, name: str) -> float:
    """Duration of the first span of ``name`` in the process, in ms (0 if none)."""
    if name not in tracer.names:
        return 0.0
    a = tracer.arrays()
    hits = np.flatnonzero(a["name_id"] == tracer.names.index(name))
    return float((a["end"][hits[0]] - a["start"][hits[0]]) * 1e3) if hits.size else 0.0
