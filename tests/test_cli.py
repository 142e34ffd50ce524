"""CLI behavior: exit codes, config validation, artifacts, determinism."""

import json
from pathlib import Path

import pytest
import yaml

from nishimori_dbm.cli import COMMAND_DEFAULTS, main

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config.example.yaml"

MODEL_SUPER = {"K": 2, "alpha": [0.5, 0.5], "mu": [4.0], "h": [0.0, 0.0]}
MODEL_SUB = {"K": 2, "alpha": [0.5, 0.5], "mu": [1.0], "h": [0.0, 0.0]}


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def run(args):
    return main(args)


class TestSolve:
    def test_broken_symmetry_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL_SUPER})
        code = run(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "effective_config:" in out
        record = json.loads((tmp_path / "solution.json").read_text())
        fp = record["solutions"]["fixed_point"]
        assert fp["phase"] == "broken_symmetry"
        assert fp["x_bar"][0] == pytest.approx(fp["x_bar"][1], abs=1e-9)
        assert record["rho_oo"] == pytest.approx(4.0)

    def test_zero_solution_at_weak_coupling(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL_SUB})
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "solution.json").read_text())
        assert record["solutions"]["fixed_point"]["phase"] == "zero_solution"

    def test_malformed_alpha_exits_one(self, tmp_path, capsys):
        bad = {"model": {**MODEL_SUPER, "alpha": [0.6, 0.6]}}
        cfg = write_config(tmp_path, bad)
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "sum to 1" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": MODEL_SUPER, "extra_block": {}})
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_model_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_nonconvergence_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"K": 2, "alpha": [0.5, 0.5], "mu": [4.0], "h": [0.2, 0.2]},
            "solve": {"method": "fixed_point", "max_iter": 3},
        })
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_shipped_example_config(self, tmp_path):
        # a key the CLI no longer knows in the example must fail here
        example = yaml.safe_load(EXAMPLE_CONFIG.read_text())
        for section, block in example.items():
            if section in COMMAND_DEFAULTS:
                assert set(block) <= set(COMMAND_DEFAULTS[section]), section
        assert run(["solve", "--config", str(EXAMPLE_CONFIG), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "solution.json").read_text())
        assert set(record["solutions"]) == {"fixed_point", "pi_ascent", "nested_bisection"}
        assert all(solution["converged"] for solution in record["solutions"].values())
        assert record["solutions"]["fixed_point"]["error_estimate"] <= 1e-10

    def test_nested_bisection_honours_tol(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"K": 2, "alpha": [0.5, 0.5], "mu": [4.0], "h": [0.1, 0.1]}})
        args = ["solve", "--config", cfg, "--out", str(tmp_path),
                "--method", "nested_bisection"]
        assert run(args + ["--tol", "1e-20"]) == 2
        record = json.loads((tmp_path / "solution.json").read_text())
        assert not record["solutions"]["nested_bisection"]["converged"]
        assert run(args) == 0


class TestPhaseScan:
    def test_rho_sign_change_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": MODEL_SUB,
            "phase_scan": {"axis": "mu_edge", "edge": 1,
                           "grid": {"start": 1.0, "stop": 3.0, "num": 21}},
        })
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["phase-scan", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["phase-scan", "--config", cfg, "--out", str(out_b)]) == 0
        text_a = (out_a / "phase_scan.csv").read_text()
        assert text_a == (out_b / "phase_scan.csv").read_text()
        rows = [line.split(",") for line in text_a.splitlines()[1:]]
        rho = {float(r[0]): float(r[1]) for r in rows}
        assert rho[1.9] < 1.0 < rho[2.1]

    def test_grid_required(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL_SUB})
        assert run(["phase-scan", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "20/20 checks passed" in out


class TestOptimizeAlpha:
    def test_record(self, tmp_path):
        cfg = write_config(tmp_path, {
            "optimize_alpha": {"mu": [1.0, 3.0], "grid_step": 0.05}})
        assert run(["optimize-alpha", "--config", cfg, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "optimize_alpha.json").read_text())
        assert record["rho_star"] == pytest.approx(2.25, abs=1e-6)
        assert record["conditions"]

    @pytest.mark.parametrize("grid_step", [0, 2.0, -0.5, float("nan")])
    def test_bad_grid_step_exits_one(self, tmp_path, capsys, grid_step):
        cfg = write_config(tmp_path, {
            "optimize_alpha": {"mu": [1.0, 3.0], "grid_step": grid_step}})
        assert run(["optimize-alpha", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid_step") and "Traceback" not in err
        assert not (tmp_path / "optimize_alpha.json").exists()


class TestSimulationCommands:
    def test_enumerate_and_seed_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"K": 2, "alpha": [0.5, 0.5], "mu": [4.0], "h": [0.1, 0.1]},
            "enumerate": {"N": 12, "n_disorder": 10},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["enumerate", "--config", cfg, "--out", str(out_a),
                    "--seed", "99"]) == 0
        assert run(["enumerate", "--config", cfg, "--out", str(out_b),
                    "--seed", "99"]) == 0
        csv_a = (out_a / "enumerate_report.csv").read_text()
        assert csv_a == (out_b / "enumerate_report.csv").read_text()
        record = json.loads((out_a / "enumerate_report.json").read_text())
        assert record["n_disorder"] == 10
        assert record["p_mean"] is not None

    def test_simulate_small(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"K": 2, "alpha": [0.5, 0.5], "mu": [4.0], "h": [0.1, 0.1]},
            "simulate": {"N": 24, "n_disorder": 3, "sweeps": 200, "burn_in": 50},
        })
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "simulate_report.json").read_text())
        assert record["engine"] == "block_gibbs"
        assert len(record["m_mean"]) == 2

    def test_simulate_seed_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"K": 2, "alpha": [0.5, 0.5], "mu": [4.0], "h": [0.1, 0.1]},
            "simulate": {"N": 24, "n_disorder": 3, "sweeps": 200, "burn_in": 50},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["simulate", "--config", cfg, "--out", str(out),
                        "--seed", "99"]) == 0
        for name in ("simulate_report.csv", "simulate_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestEnvironmentOverrides:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {
            "model": {"K": 2, "alpha": [0.5, 0.5], "mu": [4.0], "h": [0.1, 0.1]},
            "enumerate": {"N": 10, "n_disorder": 4},
        })
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        monkeypatch.setenv("DBM_SEED", "1234")
        assert run(["enumerate", "--config", cfg, "--out", str(out_a)]) == 0
        monkeypatch.delenv("DBM_SEED")
        assert run(["enumerate", "--config", cfg, "--out", str(out_b),
                    "--seed", "1234"]) == 0
        assert run(["enumerate", "--config", cfg, "--out", str(out_c),
                    "--seed", "5678"]) == 0
        a = (out_a / "enumerate_report.csv").read_text()
        assert a == (out_b / "enumerate_report.csv").read_text()
        assert a != (out_c / "enumerate_report.csv").read_text()

    def test_env_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"model": MODEL_SUPER})
        target = tmp_path / "from_env"
        monkeypatch.setenv("DBM_OUT", str(target))
        assert run(["solve", "--config", cfg]) == 0
        assert (target / "solution.json").exists()


class TestQuadratureCheck:
    def test_default_passes(self, tmp_path, capsys):
        assert run(["quadrature-check", "--out", str(tmp_path)]) == 0
        assert "worst nishimori residual" in capsys.readouterr().out

    def test_low_order_fails(self, tmp_path):
        cfg = write_config(tmp_path, {"quadrature": {"order": 60}})
        assert run(["quadrature-check", "--config", cfg,
                    "--out", str(tmp_path)]) == 2


def test_schema_version_guard(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 2, "model": MODEL_SUPER})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
