import json
from pathlib import Path

import numpy as np
import pytest

from extinctlab.cli import main
from extinctlab.solver import NumericsError


def write_config(path: Path, profile: str, extra: str = "") -> Path:
    cfg = path / "run.ini"
    cfg.write_text(profile + extra)
    return cfg


BETA2 = """\
[profile]
kind = log-power
beta = 2.0
omega0 = 1.0
delta = 0.5
d0 = 1.0
"""

CONSTANT = """\
[profile]
kind = constant
omega0 = 1.0
d0 = 1.0
"""

ODE_REGIME = """\
[profile]
kind = power
alpha = 1.0
d0 = 1.0

[problem]
q = 0.5
potential = constant
epsilon = 1.0
u0 = 1.0
cells = 200
dt = 1e-3
horizon = 2.5
"""

SPECTRAL_SMALL = """
[spectral]
h_min = 3e-3
h_max = 1e-1
h_count = 4
cells = 800
n_max = 12
mu_n_max = 12
"""

ODI_SECTION = """
[problem]
q = 0.5

[odi]
y0 = 1e-4
"""


class TestDini:
    def test_convergent_profile_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, BETA2)
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_constant_profile_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANT)
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_malformed_config_exit_64(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[profile]\nkind = nonsense\n")
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64

    def test_missing_config_exit_64(self, tmp_path):
        assert main(["dini", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 64

    def test_unknown_key_exit_64(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[profile]\nkind = power\nalpha = 1.0\nbogus = 3\n")
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64


class TestSimulate:
    def test_ode_regime_extinct_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, ODE_REGIME)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_simulate.json").read_text())
        assert summary["results"]["verdict"] == "extinct"
        assert abs(summary["results"]["extinction_time"] - 2.0) < 0.02
        assert summary["results"]["global_estimate_holds"] is True

    def test_heat_run_horizon_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, ODE_REGIME.replace(
            "potential = constant", "potential = zero"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        summary = json.loads((out / "summary_simulate.json").read_text())
        assert summary["results"]["verdict"] == "positivity-persisted"

    @pytest.mark.parametrize("epsilon", ["-1.0", "nan"])
    def test_bad_constant_potential_exit_64(self, tmp_path, epsilon):
        cfg = write_config(tmp_path, ODE_REGIME.replace("epsilon = 1.0", f"epsilon = {epsilon}"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 64

    @pytest.mark.parametrize("line", ["dt = 1e-3", "horizon = 2.5"])
    def test_nan_step_or_horizon_exit_64(self, tmp_path, line):
        key = line.split(" = ")[0]
        cfg = write_config(tmp_path, ODE_REGIME.replace(line, f"{key} = nan"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 64

    def test_numerics_error_exit_70(self, tmp_path, monkeypatch):
        import extinctlab.cli as cli
        monkeypatch.setattr(cli, "run",
                            lambda spec: (_ for _ in ()).throw(
                                NumericsError("boom", t=0.5)))
        cfg = write_config(tmp_path, ODE_REGIME)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 70

    def test_non_finite_state_exit_70(self, tmp_path, monkeypatch):
        import extinctlab.solver as solver
        sample = solver.sample_potential

        def poisoned(potential, grid):
            a = sample(potential, grid)
            a[grid.n // 2] = np.nan
            return a

        monkeypatch.setattr(solver, "sample_potential", poisoned)
        cfg = write_config(tmp_path, ODE_REGIME)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 70
        lines = (out / "diagnostic_state.csv").read_text().splitlines()
        assert lines[0] == "i,u" and len(lines) == 201
        assert lines[101] == "100,nan"
        summary = json.loads((out / "summary_simulate.json").read_text())
        assert summary["results"]["t"] == 1e-3


class TestBound:
    def test_convergent_profile_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + ODI_SECTION)
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_bound.json").read_text())
        assert summary["results"]["verdict"] == "bounded"
        curve = np.genfromtxt(out / "curve.csv", delimiter=",", names=True,
                              dtype=None, encoding="utf-8")
        assert np.all(np.diff(curve["Y"]) <= 1e-12)

    def test_constant_profile_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANT + ODI_SECTION)
        assert main(["bound", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_constant_overrides_echoed(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + ODI_SECTION)
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out),
                     "--gamma", "2.0", "--c0", "0.5"]) == 0
        summary = json.loads((out / "summary_bound.json").read_text())
        assert summary["results"]["constants"]["gamma"] == 2.0
        assert summary["results"]["constants"]["c0"] == 0.5


class TestSpectral:
    def test_beta2_consistent_with_dini(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + "\n[problem]\nq = 0.5\n" + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main(["dini", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_spectral.json").read_text())
        assert summary["results"]["consistent_with_dini"] is True
        assert summary["results"]["inverse_sandwich_violations"] == 0

    def test_scan_csv_emitted(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        scan = np.genfromtxt(out / "lambda_scan.csv", delimiter=",", names=True)
        assert scan["lambda1"].size == 4
        assert np.all(scan["residual"] < 1e-8)


class TestVerify:
    def test_coherent_verdicts(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + "\n[problem]\nq = 0.5\n"
                           + "\n[odi]\ny0 = 1e-4\n" + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_verify.json").read_text())
        assert summary["results"]["coherent"] is True
        assert set(summary["results"]["exit_codes"].values()) == {0}


class TestHygiene:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, ODE_REGIME + "\n[odi]\ny0 = 1e-4\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_complete(self, tmp_path):
        cfg = write_config(tmp_path, BETA2)
        out = tmp_path / "o"
        assert main(["dini", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_dini.json").read_text())
        on_disk = sorted(p.name for p in out.iterdir())
        assert sorted(summary["manifest"]) == on_disk

    def test_lock_collision_exit_64(self, tmp_path):
        cfg = write_config(tmp_path, BETA2)
        out = tmp_path / "o"
        out.mkdir()
        (out / ".extinctlab.lock").touch()
        assert main(["dini", "--config", str(cfg), "--out", str(out)]) == 64

    def test_lock_released_after_run(self, tmp_path):
        cfg = write_config(tmp_path, BETA2)
        out = tmp_path / "o"
        assert main(["dini", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / ".extinctlab.lock").exists()

    def test_table_profile_roundtrip(self, tmp_path):
        s = np.geomspace(1e-5, 0.9, 80)
        np.savetxt(tmp_path / "omega.csv", np.column_stack([s, s]), delimiter=",")
        cfg = write_config(tmp_path, "[profile]\nkind = table\ntable = omega.csv\n")
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
