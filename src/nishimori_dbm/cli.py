"""Command-line interface.

Subcommands: solve, phase-scan, optimize-alpha, simulate, enumerate,
verify, quadrature-check.  Configuration comes from a YAML document
(--config), with flag and environment overrides; every command echoes its
fully resolved effective configuration before running.  Exit codes:
0 success, 1 invalid input, 2 non-convergence or failed checks.

Environment overrides mirror the global flags with the ``DBM_`` prefix:
DBM_CONFIG, DBM_SEED, DBM_OUT, DBM_TOL.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import verify as verify_mod
from .model import ModelSpec, build_effective, spectral_radius_oo
from .phase import (
    maximizer_conditions,
    optimize_form_factors,
    scan,
    write_scan_csv,
)
from .simulator import EngineKind, SystemSize, quenched_run, write_report_csv
from .special_functions import QuadratureRule, nishimori_residual
from .variational import (
    NESTED_MAX_K,
    solve_fixed_point,
    solve_nested_bisection,
    solve_pi_ascent,
)

ENV_PREFIX = "DBM_"
SCHEMA_VERSION = 1

TOP_LEVEL_KEYS = {
    "schema_version", "model", "quadrature", "solve", "phase_scan",
    "optimize_alpha", "simulate", "enumerate", "verify", "quadrature_check",
}

COMMAND_DEFAULTS = {
    "solve": {"method": "all", "tol": 1e-10, "max_iter": 200000},
    "phase_scan": {"axis": "mu_edge", "edge": 1, "grid": None, "tol": 1e-9},
    "optimize_alpha": {"mu": None, "grid_step": 0.025},
    "simulate": {"N": 200, "n_disorder": 20, "sweeps": 2000, "burn_in": 400,
                 "n_replicas": 2},
    "enumerate": {"N": 16, "n_disorder": 100},
    "verify": {},
    "quadrature_check": {"h_min": 1e-6, "h_max": 100.0, "points": 25,
                         "orders": (1, 2, 3), "tolerance": 1e-10},
}


class CliError(Exception):
    """Invalid input; mapped to exit code 1."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise CliError(f"config is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise CliError("config document must be a mapping")
    unknown = set(data) - TOP_LEVEL_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise CliError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return data


def _command_block(config: dict, name: str, overrides: dict) -> dict:
    defaults = dict(COMMAND_DEFAULTS[name])
    block = config.get(name, {})
    if not isinstance(block, dict):
        raise CliError(f"config section {name!r} must be a mapping")
    unknown = set(block) - set(defaults)
    if unknown:
        raise CliError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    defaults.update(block)
    for key, value in overrides.items():
        if value is not None:
            defaults[key] = value
    return defaults


def _typed(block: dict, section: str, key: str, cast):
    """``cast(block[key])``; a value of the wrong type is an input error
    that names the config key."""
    try:
        return cast(block[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"bad value for {section}.{key}: {block[key]!r} ({exc})") from exc


def _env_or_flag(args, name: str, cast):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    env = os.environ.get(ENV_PREFIX + name.upper())
    if env is not None:
        try:
            return cast(env)
        except ValueError as exc:
            raise CliError(f"bad value for {ENV_PREFIX}{name.upper()}: {env!r}") from exc
    return None


def _model_from(config: dict) -> ModelSpec:
    if "model" not in config:
        raise CliError("a model block {K, alpha, mu, h} is required (see --config)")
    try:
        return ModelSpec.from_dict(config["model"])
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid model: {exc}") from exc


def _rule_from(config: dict) -> QuadratureRule | None:
    block = config.get("quadrature", {})
    if not isinstance(block, dict):
        raise CliError("config section 'quadrature' must be a mapping")
    unknown = set(block) - {"order"}
    if unknown:
        raise CliError(f"unknown keys in config section 'quadrature': {sorted(unknown)}")
    if "order" in block:
        return QuadratureRule.gauss_hermite(_typed(block, "quadrature", "order", int))
    return None


def _resolve_grid(grid) -> list:
    if grid is None:
        raise CliError("a grid is required (list of values or {start, stop, num})")
    if isinstance(grid, dict):
        unknown = set(grid) - {"start", "stop", "num"}
        if unknown:
            raise CliError(f"unknown grid keys: {sorted(unknown)}")
        return np.linspace(_typed(grid, "phase_scan.grid", "start", float),
                           _typed(grid, "phase_scan.grid", "stop", float),
                           _typed(grid, "phase_scan.grid", "num", int)).tolist()
    if isinstance(grid, (list, tuple)):
        return list(grid)
    raise CliError("grid must be a list or a {start, stop, num} mapping")


def _echo(effective: dict) -> None:
    print("effective_config:")
    text = yaml.safe_dump(effective, default_flow_style=None, sort_keys=True)
    for line in text.rstrip().splitlines():
        print("  " + line)


def _out_dir(args) -> Path:
    out = _env_or_flag(args, "out", str) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    config = _load_config(_env_or_flag(args, "config", str))
    spec = _model_from(config)
    rule = _rule_from(config)
    block = _command_block(config, "solve", {"tol": _env_or_flag(args, "tol", float),
                                             "method": args.method})
    _echo({"command": "solve", "model": spec.to_dict(), "solve": block})
    tol = _typed(block, "solve", "tol", float)
    max_iter = _typed(block, "solve", "max_iter", int)
    methods = {
        "fixed_point": lambda: solve_fixed_point(spec, tol=tol, max_iter=max_iter,
                                                 rule=rule),
        "pi_ascent": lambda: solve_pi_ascent(spec, tol=tol, rule=rule),
        "nested_bisection": lambda: solve_nested_bisection(spec, tol=tol, rule=rule),
    }
    if block["method"] == "all":
        selected = ["fixed_point"]
        if spec.k % 2 == 0:
            selected.append("pi_ascent")
        if np.all(spec.h > 0) and spec.k <= NESTED_MAX_K:
            selected.append("nested_bisection")
    elif block["method"] in methods:
        selected = [block["method"]]
    else:
        raise CliError(f"unknown solve method {block['method']!r}")
    records = {}
    converged = True
    for name in selected:
        try:
            sol = methods[name]()
        except ValueError as exc:
            raise CliError(f"{name}: {exc}") from exc
        records[name] = sol.to_dict()
        converged = converged and sol.converged
    payload = {
        "model": spec.to_dict(),
        "rho_oo": spectral_radius_oo(build_effective(spec)),
        "solutions": records,
    }
    path = _out_dir(args) / "solution.json"
    _write_json(path, payload)
    print(json.dumps(payload["solutions"], indent=2, sort_keys=True))
    print(f"wrote {path}")
    return 0 if converged else 2


def cmd_phase_scan(args) -> int:
    config = _load_config(_env_or_flag(args, "config", str))
    spec = _model_from(config)
    rule = _rule_from(config)
    block = _command_block(config, "phase_scan", {"tol": _env_or_flag(args, "tol", float),
                                                  "axis": args.axis})
    grid = _resolve_grid(block["grid"])
    block["grid"] = grid
    _echo({"command": "phase-scan", "model": spec.to_dict(), "phase_scan": block})
    points = scan(spec, block["axis"], grid, edge=_typed(block, "phase_scan", "edge", int),
                  tol=_typed(block, "phase_scan", "tol", float), rule=rule)
    path = _out_dir(args) / "phase_scan.csv"
    write_scan_csv(points, path)
    print(f"wrote {path} ({len(points)} points)")
    failed = [p for p in points if p.error or not p.converged]
    return 2 if failed else 0


def cmd_optimize_alpha(args) -> int:
    config = _load_config(_env_or_flag(args, "config", str))
    block = _command_block(config, "optimize_alpha", {})
    if block["mu"] is None:
        block["mu"] = _model_from(config).mu.tolist()
    _echo({"command": "optimize-alpha", "optimize_alpha": block})
    mu = _typed(block, "optimize_alpha", "mu", lambda v: np.asarray(v, dtype=float))
    grid_step = _typed(block, "optimize_alpha", "grid_step", float)
    alpha_star, rho_star = optimize_form_factors(mu, grid_step=grid_step)
    payload = {
        "mu": mu.tolist(),
        "alpha_star": alpha_star.tolist(),
        "rho_star": rho_star,
        "rho_bound": float(np.max(mu) ** 2 / 4.0),
        "conditions": maximizer_conditions(alpha_star, mu),
    }
    path = _out_dir(args) / "optimize_alpha.json"
    _write_json(path, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _run_quenched(args, command: str, engine: EngineKind) -> int:
    config = _load_config(_env_or_flag(args, "config", str))
    spec = _model_from(config)
    rule = _rule_from(config)
    block = _command_block(config, command, {})
    seed = _env_or_flag(args, "seed", int)
    if seed is None:
        seed = 12345
    block["base_seed"] = seed
    _echo({"command": command, "model": spec.to_dict(), command: block})
    size = SystemSize.from_spec(spec, _typed(block, command, "N", int))
    kwargs = {}
    if engine is EngineKind.BLOCK_GIBBS:
        kwargs = {key: _typed(block, command, key, int)
                  for key in ("sweeps", "burn_in", "n_replicas")}
    report = quenched_run(spec, size, _typed(block, command, "n_disorder", int), seed,
                          engine=engine, rule=rule, **kwargs)
    out = _out_dir(args)
    csv_path = out / f"{command}_report.csv"
    json_path = out / f"{command}_report.json"
    write_report_csv(report, csv_path)
    _write_json(json_path, report.to_dict())
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_simulate(args) -> int:
    return _run_quenched(args, "simulate", EngineKind.BLOCK_GIBBS)


def cmd_enumerate(args) -> int:
    return _run_quenched(args, "enumerate", EngineKind.ENUMERATION)


def cmd_verify(args) -> int:
    config = _load_config(_env_or_flag(args, "config", str))
    _command_block(config, "verify", {})
    _echo({"command": "verify"})
    results = verify_mod.run_all()
    print(verify_mod.format_table(results))
    return 0 if all(r.ok for r in results) else 2


def cmd_quadrature_check(args) -> int:
    config = _load_config(_env_or_flag(args, "config", str))
    rule = _rule_from(config)
    block = _command_block(config, "quadrature_check", {})
    _echo({"command": "quadrature-check", "quadrature_check": block})
    section = "quadrature_check"
    grid = np.logspace(np.log10(_typed(block, section, "h_min", float)),
                       np.log10(_typed(block, section, "h_max", float)),
                       _typed(block, section, "points", int))
    orders = _typed(block, section, "orders", lambda v: [int(n) for n in v])
    tolerance = _typed(block, section, "tolerance", float)
    worst = 0.0
    for h in grid:
        for n in orders:
            worst = max(worst, nishimori_residual(float(h), n, rule))
    ok = worst < tolerance
    print(f"worst nishimori residual: {worst:.3e} "
          f"({'<' if ok else '>='} {tolerance:g})")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nishimori-dbm",
        description="Exact solution and finite-N simulation of the deep "
                    "Boltzmann machine on the Nishimori line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--seed", type=int, help="base seed (64-bit)")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--tol", type=float, help="solver tolerance override")

    p = sub.add_parser("solve", help="solve the variational problem")
    common(p)
    p.add_argument("--method", choices=["fixed_point", "pi_ascent",
                                        "nested_bisection", "all"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("phase-scan", help="solve along a parameter grid, CSV output")
    common(p)
    p.add_argument("--axis", choices=["mu_edge", "alpha_simplex", "h_uniform"])
    p.set_defaults(func=cmd_phase_scan)

    p = sub.add_parser("optimize-alpha", help="maximize rho over the form-factor simplex")
    common(p)
    p.set_defaults(func=cmd_optimize_alpha)

    p = sub.add_parser("simulate", help="block-Gibbs quenched averages at finite N")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="exact enumeration quenched averages (N <= 24)")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the full invariant suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quadrature-check", help="Nishimori-identity quadrature diagnostic")
    common(p)
    p.set_defaults(func=cmd_quadrature_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
