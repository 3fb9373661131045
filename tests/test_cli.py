import configparser
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import extinctlab
from extinctlab.cli import _CSV_BLOCK, OutputDir, _fmt, main
from extinctlab.solver import NumericsError
from oracles import join_gaps


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

LOG_SINGULAR = """\
[profile]
kind = log-singular
kappa = 25
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

README = BETA2 + """
[problem]
q = 0.5
dimension = 1
potential = profile
u0 = 1.0
cells = 2000
dt = 1e-3
horizon = 2.5

[odi]
y0 = 1e-4
gamma = 1.0
c0 = 1.0

[spectral]
h_min = 1e-3
h_max = 1e-1
h_count = 7
cells = 3000
k = 1.0
n_max = 40
mu_n_max = 20
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

    @pytest.mark.parametrize("profile,exponent", [
        (BETA2, 2.0),   # c_k = u_k^(-2)
        ("[profile]\nkind = power\nalpha = 1.0\n", 149.0),   # c_k = exp(-u_k)
    ], ids=["log-power", "power"])
    def test_log_factor_exponent_emitted(self, tmp_path, profile, exponent):
        cfg = write_config(tmp_path, profile)
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        results = json.loads((tmp_path / "o" / "summary_dini.json").read_text())["results"]
        assert results["series_verdict"] == "convergent"
        assert results["series_log_factor_exponent"] == pytest.approx(exponent, rel=1e-2)
        with open(tmp_path / "o" / "analysis_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["quantity"] for r in rows] == [
            "integral", "series_partial_sum", "series_log_factor_exponent"]
        assert float(rows[2]["value"]) == results["series_log_factor_exponent"]
        assert float(rows[1]["error"]) > 0   # the bracket's half-width

    def test_underflowed_series_exponent_is_finite(self, tmp_path):
        # exp(-30 u_k) underflows from u = 25 on, before the fit window, but
        # the fit reads ln c_k = -30 u_k: the exponent is a number
        cfg = write_config(tmp_path, "[profile]\nkind = power\nalpha = 30.0\n")
        main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")])
        results = json.loads((tmp_path / "o" / "summary_dini.json").read_text())["results"]
        b = results["series_log_factor_exponent"]
        assert results["series_verdict"] == "convergent"
        assert isinstance(b, float) and 1.05 < b < math.inf

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

    def test_peak_memory_within_series_budget(self, tmp_path):
        # the condensed series' direct terms, 2^14 doubles, and their
        # temporaries make about 0.7 MiB; a series-long array of 10^6
        # doubles would make 7.6 MiB
        cfg = write_config(tmp_path, README)
        tracemalloc.start()
        try:
            code = main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20


class TestSimulate:
    def test_bench_workload_peak_under_8_mib(self, tmp_path):
        # ~24.8k steps of 2000 cells: the per-step records as packed doubles,
        # ~250 snapshot rows and CSV written in blocks stay under 8 MiB;
        # per-value lists of boxed floats take it past 11
        cfg = (Path(__file__).resolve().parents[1] / "bench" / "workloads"
               / "simulate-extinct.ini")
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20

    def test_ode_regime_extinct_exit_0(self, tmp_path):
        cfg = write_config(tmp_path, ODE_REGIME)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_simulate.json").read_text())
        assert summary["results"]["verdict"] == "extinct"
        assert abs(summary["results"]["extinction_time"] - 2.0) < 0.02
        assert summary["results"]["global_estimate_holds"] is True
        # extinct: the sup norm fell below the threshold, 1e-10 of sup u0 = 1
        assert summary["results"]["extinction_threshold"] == 1e-10
        assert summary["results"]["final_sup"] < 1e-10

    def test_rough_data_global_estimate_inconclusive(self, tmp_path):
        # on random data the trapezoid error of I exceeds y0 itself, and a
        # tolerance as large as the bounded quantity decides nothing
        cfg = write_config(tmp_path, README.replace("dimension = 1", "dimension = 3")
                           .replace("u0 = 1.0", "u0 = random")
                           .replace("cells = 2000", "cells = 300"))
        out = tmp_path / "o"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        results = json.loads((out / "summary_simulate.json").read_text())["results"]
        assert results["global_estimate_error"] >= results["y0"] > 0
        assert results["global_estimate_holds"] is None

    def test_heat_run_horizon_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, ODE_REGIME.replace(
            "potential = constant\nepsilon = 1.0", "potential = zero"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        summary = json.loads((out / "summary_simulate.json").read_text())
        assert summary["results"]["verdict"] == "positivity-persisted"

    def test_steep_power_profile_writes_summary(self, tmp_path):
        # omega(tau)/tau^2 underflows near the tau = 0 ledger row when
        # alpha = 1.999; the ramp s'(tau) must not be asked for there
        cfg = write_config(tmp_path, """\
[profile]
kind = power
alpha = 1.999
d0 = 1.0

[problem]
q = 0.5
potential = profile
u0 = 1.0
cells = 200
dt = 1e-3
horizon = 0.5
""")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        results = json.loads((out / "summary_simulate.json").read_text())["results"]
        assert results["verdict"] == "positivity-persisted"
        assert set(results["fitted_constants"]) == {
            "relation_c_hat", "relation_skipped_rows", "odi_c0", "odi_clipped_slopes",
            "ramp_falling_rows"}

    def test_constant_profile_overflow_cannot_set_c_hat(self, tmp_path):
        # a(tau) = exp(-1/tau^2) underflows to 0 on the first ledger rows and
        # a^(-k) overflows on the next ones; neither may raise or set c_hat
        cfg = write_config(tmp_path, CONSTANT + """
[problem]
q = 0.5
potential = profile
cells = 200
horizon = 0.05
""")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        fitted = json.loads((out / "summary_simulate.json").read_text())["results"][
            "fitted_constants"]
        assert fitted["relation_skipped_rows"] > 0
        assert fitted["relation_c_hat"] > 0

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
        # one NaN in the absorption the stepper samples at the cell centers
        from extinctlab.profiles import ConstantPotential
        sample = ConstantPotential.a

        def poisoned(potential, r):
            a = sample(potential, r)
            a[a.size // 2] = np.nan
            return a

        monkeypatch.setattr(ConstantPotential, "a", poisoned)
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
        assert summary["results"]["verdict"] == "convergent"
        assert summary["results"]["clipped_rounds"] == 0
        assert summary["results"]["round_cap_hit"] is True
        curve = np.genfromtxt(out / "curve.csv", delimiter=",", names=True,
                              dtype=None, encoding="utf-8")
        assert np.all(np.diff(curve["Y"]) <= 1e-12)

    def test_constant_profile_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANT + ODI_SECTION)
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 1
        summary = json.loads((out / "summary_bound.json").read_text())
        assert summary["results"]["total_bound"] == "inf"

    def test_emitted_curve_is_continuous(self, tmp_path):
        # the joins as written: Y across the plateau|mid and mid|final rows
        cfg = write_config(tmp_path, BETA2 + ODI_SECTION)
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        curve = np.genfromtxt(out / "curve.csv", delimiter=",", names=True,
                              dtype=None, encoding="utf-8")
        g1, g2 = join_gaps(curve["Y"], curve["region"])
        assert g1 <= 1e-10 * 1e-4 and g2 <= 1e-10 * 1e-4   # y0 = 1e-4

    def test_clipped_rounds_reported(self, tmp_path):
        # at y0 = 0.5 the first radii solve beyond the domain and are clipped
        # to it; the dominating curve's final radius lies beyond it as well
        cfg = write_config(tmp_path, README.replace("y0 = 1e-4", "y0 = 0.5"))
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        results = json.loads((out / "summary_bound.json").read_text())["results"]
        assert results["clipped_rounds"] == 3
        assert results["round_cap_hit"] is True
        assert results["curve"]["error"] == "root lies beyond the domain radius"

    @pytest.mark.parametrize("alpha", ["1.999", "3.0"])
    def test_steep_power_profile_inconclusive(self, tmp_path, alpha):
        # the first round radius lies below the search floor; for alpha = 3
        # omega underflows to 0 there, for 1.999 the curve's tau' does too
        cfg = write_config(tmp_path, f"[profile]\nkind = power\nalpha = {alpha}\n"
                           + ODI_SECTION)
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 2
        summary = json.loads((out / "summary_bound.json").read_text())
        assert summary["results"]["verdict"] == "inconclusive"
        assert summary["results"]["rounds"] == 0
        assert summary["results"]["total_bound"] is None  # NaN total, not "inf"
        assert "below the tau search range" in summary["results"]["curve"]["error"]
        assert (out / "rounds.csv").read_text() == "i,tau_i,t_i,s_i,log_level\n"
        on_disk = sorted(p.name for p in out.iterdir())
        assert sorted(summary["manifest"]) == on_disk == ["rounds.csv",
                                                          "summary_bound.json"]

    def test_bumped_final_radius_inside_domain(self, tmp_path):
        # small y0, c0 and c4 at q = 0.3 raise the curve's final radius to
        # twice tau'' and keep it inside the domain: both flags the other way
        # round from the other bound configs
        cfg = write_config(tmp_path, README.replace("beta = 2.0", "beta = 0.5")
                           .replace("q = 0.5", "q = 0.3")
                           .replace("y0 = 1e-4", "y0 = 1e-8\nc4 = 0.01")
                           .replace("c0 = 1.0", "c0 = 0.01"))
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 1
        curve = json.loads((out / "summary_bound.json").read_text())["results"]["curve"]
        assert curve["tau_triple_prime_bumped"] is True
        assert curve["beyond_domain"] is False

    def test_falling_ramp_is_a_curve_error(self, tmp_path):
        # log-power beta = 5: s(tau) = tau^4/omega falls on (exp(-5/4), 1/e),
        # inside the curve's range, so bound builds no curve and still exits
        # on its verdict
        cfg = write_config(tmp_path, README.replace("beta = 2.0", "beta = 5.0"))
        out = tmp_path / "o"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_bound.json").read_text())
        assert summary["results"]["curve"] == {
            "error": "s(tau) does not rise at tau = 0.286509"}
        assert "curve.csv" not in summary["manifest"]

    @pytest.mark.parametrize("command,code", [("bound", 1), ("verify", 0)])
    def test_log_singular_curve_error_reported(self, tmp_path, command, code):
        # omega = 25 ln(1/s) vanishes for s >= 1, inside the bracket of the
        # direct root for the final curve radius (up to 4 times the radius)
        cfg = write_config(tmp_path, LOG_SINGULAR + ODI_SECTION + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        bound = json.loads((out / "summary_bound.json").read_text())["results"]
        assert bound["verdict"] == "divergent"
        assert "omega vanishes" in bound["curve"]["error"]


EXTINCT = """\
[profile]
kind = power
alpha = 1.0
d0 = 1.0

[problem]
q = 0.5
potential = constant
epsilon = 1.0
u0 = 1.0
cells = 50
dt = 1e-2
horizon = 2.5

[odi]
y0 = 1e-4
"""


class TestSimulationCheck:
    """bound's check of its total against an earlier simulate run in the
    same --out.  On EXTINCT the run goes extinct at t = 2.0, the ODE's own
    extinction time (the absorption step is its exact flow), within the
    convergent total 3.57 times the default bound_factor 10."""

    def bound_after(self, tmp_path, settings, seed="42", simulate=True):
        """bound's exit code and simulation_check on EXTINCT with
        (section, key, value) settings and seed, after simulate on EXTINCT
        with seed 42 in the same --out."""
        out = tmp_path / "o"
        if simulate:
            cfg = write_config(tmp_path, EXTINCT)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        parser = configparser.ConfigParser()
        parser.read_string(EXTINCT)
        for section, key, value in settings:
            parser[section][key] = value
        cfg = tmp_path / "bound.ini"
        with open(cfg, "w") as fh:
            parser.write(fh)
        code = main(["bound", "--config", str(cfg), "--out", str(out), "--seed", seed])
        results = json.loads((out / "summary_bound.json").read_text())["results"]
        return code, results["simulation_check"]

    def test_same_inputs_found_and_holds(self, tmp_path):
        code, check = self.bound_after(tmp_path, [])
        assert code == 0
        assert check["found"] is True and check["holds"] is True
        assert check["extinction_time"] == pytest.approx(2.0)

    def test_bound_below_extinction_time_exit_1(self, tmp_path):
        code, check = self.bound_after(tmp_path, [("odi", "bound_factor", "0.1")])
        assert code == 1
        assert check["found"] is True and check["holds"] is False

    def test_no_simulate_summary_not_found(self, tmp_path):
        assert self.bound_after(tmp_path, [], simulate=False) == (0, {"found": False})

    @pytest.mark.parametrize("settings", [
        [("problem", "q", "0.50")],
        [("profile", "alpha", "1"), ("problem", "epsilon", "1e0")],
        [("profile", "delta", "0.5"), ("problem", "dimension", "1")],
    ], ids=["q-respelled", "numbers-respelled", "defaults-spelled-out"])
    def test_same_problem_spelled_otherwise_found(self, tmp_path, settings):
        # the guard compares the parsed [profile] and [problem], not their text
        code, check = self.bound_after(tmp_path, settings)
        assert code == 0
        assert check["found"] is True and check["holds"] is True

    @pytest.mark.parametrize("settings,seed", [
        ([("problem", "q", "0.8")], "42"),
        ([("problem", "q", "0.8"), ("problem", "u0", "0.3")], "42"),
        ([("problem", "u0", "0.3")], "42"),
        ([], "7"),
        ([("profile", "alpha", "0.5")], "42"),
    ], ids=["q", "q-and-u0", "u0", "seed", "profile"])
    def test_other_inputs_not_found(self, tmp_path, settings, seed):
        # the simulated time belongs to another problem: no check, and the
        # exit code is the round bound's verdict alone
        code, check = self.bound_after(tmp_path, settings, seed)
        assert check == {"found": False}
        assert code == 0


class TestSpectral:
    def test_beta2_consistent_with_dini(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + "\n[problem]\nq = 0.5\n" + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main(["dini", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_spectral.json").read_text())
        assert summary["results"]["consistent_with_dini"] is True
        assert summary["results"]["inverse_sandwich_violations"] == 0

    def test_dini_on_the_profile_spelled_otherwise_is_read(self, tmp_path):
        # the guard compares the parsed [profile], not its text
        out = tmp_path / "o"
        rest = "\n[problem]\nq = 0.5\n" + SPECTRAL_SMALL
        cfg = write_config(tmp_path, BETA2 + rest)
        assert main(["dini", "--config", str(cfg), "--out", str(out)]) == 0
        cfg = write_config(tmp_path, BETA2.replace("beta = 2.0", "beta = 2") + rest)
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_spectral.json").read_text())
        assert summary["results"]["consistent_with_dini"] is True

    def test_scan_csv_emitted(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + "\n[problem]\nq = 0.5\n" + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        scan = np.genfromtxt(out / "lambda_scan.csv", delimiter=",", names=True)
        assert scan["lambda1"].size == 4
        assert np.all(scan["residual"] < 1e-8)

    def test_one_rho_map_for_both_sandwiches(self, tmp_path, monkeypatch):
        import extinctlab.spectral as spectral
        build, built = spectral.build_rho_map, []
        monkeypatch.setattr(spectral, "build_rho_map",
                            lambda *args: built.append(args) or build(*args))
        cfg = write_config(tmp_path, README)
        assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 1

    def test_power_criterion_mu_nondecreasing(self, tmp_path):
        # alpha = 1.5 is the profile whose deep terms were furthest off: mu
        # ran 7.2e6, 2.7e7, 1.1e8 at n = 30..32, then 6.3e6 at n = 33
        profile = BETA2.replace("kind = log-power\nbeta = 2.0", "kind = power\nalpha = 1.5")
        cfg = write_config(tmp_path, profile + README[len(BETA2):])
        out = tmp_path / "o"
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        terms = np.genfromtxt(out / "criterion_terms.csv", delimiter=",", names=True)
        assert terms["mu"].size == 39
        assert np.all(np.diff(terms["mu"]) >= 0.0)

    def test_mu_n_csv_sums_to_mu_log_sum(self, tmp_path):
        # the rows hold the mu-log sum's own terms, ln(mu)/mu, and 0 where it
        # rejects mu <= 1 (mu_0..mu_3 here): the last partial sum is its
        # total, double for double
        cfg = write_config(tmp_path, README)
        out = tmp_path / "o"
        assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
        results = json.loads((out / "summary_spectral.json").read_text())["results"]
        rows = np.genfromtxt(out / "mu_n.csv", delimiter=",", names=True)
        rejected = rows["mu_n"] <= 1.0
        assert results["mu_log_sum_rejected"] == np.count_nonzero(rejected) == 4
        assert np.all(rows["term"][rejected] == 0.0)
        assert np.all(rows["term"][~rejected] > 0.0)
        assert rows["partial_sum"][-1] == results["mu_log_sum"]


class TestVerify:
    def test_coherent_verdicts(self, tmp_path):
        cfg = write_config(tmp_path, BETA2 + "\n[problem]\nq = 0.5\n"
                           + "\n[odi]\ny0 = 1e-4\n" + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_verify.json").read_text())
        assert summary["results"]["coherent"] is True
        assert set(summary["results"]["exit_codes"].values()) == {0}

    def test_spectral_contradicting_dini_is_incoherent(self, tmp_path):
        # constant omega: the dini series diverges, the short spectral
        # criterion converges; all three subcommands exit 1
        cfg = write_config(tmp_path, CONSTANT + "\n[problem]\nq = 0.5\n"
                           + "\n[odi]\ny0 = 1e-4\n" + SPECTRAL_SMALL)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        spectral = json.loads((out / "summary_spectral.json").read_text())
        assert spectral["results"]["consistent_with_dini"] is False
        summary = json.loads((out / "summary_verify.json").read_text())
        assert summary["results"]["coherent"] is False
        assert set(summary["results"]["exit_codes"].values()) == {1}

    def test_reads_back_nothing_it_wrote(self, tmp_path, monkeypatch):
        # verify composes dini, spectral and bound from what each returns;
        # the one lookup left is bound's, of an earlier simulate run
        import builtins
        import io
        looked_up, read = [], []
        read_summary = OutputDir.read_summary
        monkeypatch.setattr(OutputDir, "read_summary", lambda self, command: (
            looked_up.append(command) or read_summary(self, command)))

        def spy(opener):
            def spied(file, mode="r", *args, **kwargs):
                if not set(mode) & set("wax+"):
                    read.append(str(file))
                return opener(file, mode, *args, **kwargs)
            return spied

        monkeypatch.setattr(builtins, "open", spy(builtins.open))
        monkeypatch.setattr(io, "open", spy(io.open))
        assert run_with(tmp_path, "verify", []) == 0
        assert looked_up == ["simulate"]
        assert read and not [f for f in read if "summary_" in f]

    def test_inconclusive_criterion_does_not_contradict_dini(self, tmp_path):
        assert run_with(tmp_path, "verify", [("spectral", "n_max", "2")]) == 1
        out = tmp_path / "o"
        spectral = json.loads((out / "summary_spectral.json").read_text())
        assert spectral["results"]["consistent_with_dini"] is None
        verify = json.loads((out / "summary_verify.json").read_text())
        assert verify["results"]["exit_codes"]["spectral"] == 2
        assert verify["results"]["coherent"] is False


def verdict_items(tree: dict, prefix: str = ""):
    """(key path, value) of every key named ``*verdict``, at any depth."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from verdict_items(value, f"{prefix}{key}.")
        elif key.endswith("verdict"):
            yield prefix + key, value


class TestVerdictVocabulary:
    @pytest.mark.parametrize("profile", [BETA2, CONSTANT], ids=["beta2", "constant"])
    def test_one_spelling_decides_the_exit_code(self, tmp_path, profile):
        cfg = write_config(tmp_path, profile + "\n[problem]\nq = 0.5\n"
                           + "\n[odi]\ny0 = 1e-4\n" + SPECTRAL_SMALL)
        out = tmp_path / "o"
        main(["verify", "--config", str(cfg), "--out", str(out)])
        results = {c: json.loads((out / f"summary_{c}.json").read_text())["results"]
                   for c in ("dini", "spectral", "bound")}
        found = [item for r in results.values() for item in verdict_items(r)]
        assert len(found) == 7
        assert {v for _, v in found} <= {"convergent", "divergent", "inconclusive"}, found
        codes = json.loads((out / "summary_verify.json").read_text())["results"]["exit_codes"]
        exit_of = {"convergent": 0, "divergent": 1}
        dini = results["dini"]
        assert dini["verdicts_agree"] is True  # either verdict decides
        assert codes["dini"] == exit_of.get(dini["integral_verdict"], 2)
        assert codes["bound"] == exit_of.get(results["bound"]["verdict"], 2)


FULL = BETA2 + """
[problem]
q = 0.5
cells = 100
horizon = 0.01

[odi]
y0 = 1e-4
""" + SPECTRAL_SMALL


def run_with(tmp_path, command, settings):
    """Exit code of ``command`` on FULL with (section, key, value) settings;
    a value of None drops the key, and a key of None the section."""
    parser = configparser.ConfigParser()
    parser.read_string(FULL)
    for section, key, value in settings:
        if key is None:
            parser.remove_section(section)
        elif value is None:
            parser.remove_option(section, key)
        else:
            parser[section][key] = value
    cfg = tmp_path / "run.ini"
    with open(cfg, "w") as fh:
        parser.write(fh)
    return main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])


class TestConfigValues:
    @pytest.mark.parametrize("command,settings", [
        ("bound", [("odi", "y0", "nan")]),
        ("bound", [("odi", "gamma", "nan")]),
        ("bound", [("odi", "c0", "nan")]),
        ("bound", [("profile", "d0", "nan")]),
        ("simulate", [("profile", "d0", "nan")]),
        ("dini", [("profile", "omega0", "nan")]),
        ("dini", [("profile", "kind", "power"), ("profile", "beta", None),
                  ("profile", "alpha", "nan")]),
        ("dini", [("profile", "beta", "nan")]),
        ("dini", [("profile", "kind", "log-singular"), ("profile", "beta", None),
                  ("profile", "omega0", None), ("profile", "delta", None),
                  ("profile", "kappa", "nan")]),
    ], ids=["odi-y0", "odi-gamma", "odi-c0", "d0-bound", "d0-simulate",
            "omega0", "alpha", "beta", "kappa"])
    def test_nan_parameter_exit_64(self, tmp_path, command, settings):
        assert run_with(tmp_path, command, settings) == 64

    @pytest.mark.parametrize("argv", [
        ["dini"],
        ["nonsense", "--config", "run.ini"],
        ["dini", "--config", "run.ini", "--seed", "abc"],
        ["bound", "--config", "run.ini", "--gamma", "2"],
    ], ids=["no-config", "unknown-command", "seed-abc", "gamma-flag"])
    def test_usage_error_exit_64(self, capsys, argv):
        # argparse's own code 2 would read as "inconclusive"; every constant
        # of a run is a config key, so there is no --gamma to set
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "usage: extinctlab" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dini", "simulate", "bound", "spectral",
                                         "verify"])
    def test_non_utf8_config_exit_64(self, tmp_path, capsys, command):
        # a UnicodeDecodeError is a ValueError, not a configparser.Error
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"\xff\xfe\x00")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot parse")
        assert "Traceback" not in err
        assert not out.exists()

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--gamma" not in capsys.readouterr().out

    @pytest.mark.parametrize("command,section,key,value", [
        ("spectral", "spectral", "k", "-1"),
        ("spectral", "spectral", "k", "nan"),
        ("spectral", "spectral", "n_min", "1"),
        ("spectral", "spectral", "n_max", "1"),
        ("spectral", "spectral", "mu_n_max", "61"),
        ("spectral", "spectral", "h_count", "0"),
        ("simulate", "problem", "u0", "abc"),
        ("simulate", "problem", "radius", "0"),
        ("simulate", "problem", "radius", "nan"),
        ("simulate", "problem", "dimension", "4"),
        ("simulate", "problem", "horizon", "inf"),
        ("simulate", "problem", "dt", "inf"),
        ("simulate", "problem", "extinction_rtol", "nan"),
        ("simulate", "problem", "extinction_rtol", "0"),
        ("simulate", "problem", "extinction_rtol", "-1"),
        ("simulate", "problem", "extinction_rtol", "1"),
        ("bound", "problem", "radius", "0"),
        ("bound", "odi", "y0", "2"),
        ("verify", "odi", "y0", "2"),
        ("bound", "problem", "q", "1"),
        ("bound", "problem", "q", "-0.5"),
        ("bound", "problem", "dimension", "0"),
        ("bound", "problem", "dimension", "4"),
        ("spectral", "problem", "q", "1.5"),
        ("spectral", "problem", "q", "-0.5"),
        ("dini", "profile", "s0", "0"),
        ("bound", "odi", "c7", "0"),
        ("bound", "odi", "cbar", "0"),
        ("simulate", "problem", "snapshot_every", "0"),
        ("simulate", "problem", "snapshot_every", "-5"),
        ("simulate", "problem", "radius", "inf"),
        ("bound", "problem", "radius", "inf"),
        ("bound", "odi", "gamma", "inf"),
        ("bound", "odi", "c0", "inf"),
        ("bound", "odi", "c4", "inf"),
        ("bound", "odi", "c7", "inf"),
        ("bound", "odi", "cbar", "inf"),
        ("spectral", "spectral", "h_max", "inf"),
        ("spectral", "spectral", "k", "inf"),
    ])
    def test_out_of_range_value_exit_64(self, tmp_path, capsys, command, section,
                                        key, value):
        assert run_with(tmp_path, command, [(section, key, value)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
        assert key in err

    #: (id, settings, a fragment of the message that rejects them) of a
    #: section that each subcommand reading it rejects alike
    _BAD_PROBLEM = [
        ("dt-negative", [("problem", "dt", "-1")], "dt and horizon must be positive"),
        ("cells-2", [("problem", "cells", "2")], "cells must be at least 3"),
        ("radius-0", [("problem", "radius", "0")], "radius must be positive"),
        ("q-1", [("problem", "q", "1")], "q must lie strictly inside (0, 1)"),
        ("no-q", [("problem", "q", None)], "missing required key 'q'"),
        ("no-problem", [("problem", None, None)], "missing [problem] section"),
        ("constant-no-epsilon", [("problem", "potential", "constant")],
         "missing required key 'epsilon'"),
    ]
    _BAD = [(f"{command}-{name}", command, settings, message)
            for name, settings, message in _BAD_PROBLEM
            for command in ("simulate", "bound", "spectral", "verify")] + [
        (f"{command}-d0-negative", command, [("profile", "d0", "-1")], "d0 must be positive")
        for command in ("dini", "simulate", "bound", "spectral", "verify")]

    @pytest.mark.parametrize("command,settings,message", [
        ("bound", [("problem", "cells", "abc")], "'cells'"),
        ("bound", [("problem", "u0", "abc")], "'u0'"),
        ("spectral", [("problem", "dt", "abc")], "'dt'"),
        ("spectral", [("problem", "cell", "100")], "'cell'"),
        ("spectral", [("problem", "epsilon", "1.0")], "'epsilon'"),
    ] + [case[1:] for case in _BAD], ids=["bound-cells", "bound-u0", "spectral-dt",
                                          "spectral-unknown", "spectral-epsilon"]
       + [case[0] for case in _BAD])
    def test_every_given_problem_key_checked(self, tmp_path, capsys, command, settings,
                                             message):
        # every subcommand that reads [problem] builds the ProblemSpec that
        # checks it, and every one that reads [profile] the PotentialField:
        # each rejects what simulate rejects, with the same message
        assert run_with(tmp_path, command, settings) == 64
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("profile,key,value", [
        (CONSTANT, "s0", "-1"), (CONSTANT, "beta", "nan"), (LOG_SINGULAR, "s0", "0.5"),
    ], ids=["constant-s0", "constant-beta", "log-singular-s0"])
    def test_key_the_kind_does_not_read_exit_64(self, tmp_path, capsys, profile, key,
                                                value):
        cfg = write_config(tmp_path, profile + f"{key} = {value}\n")
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and repr(key) in err

    @pytest.mark.parametrize("potential,value", [("profile", "-1"), ("zero", "nan")])
    def test_epsilon_without_constant_potential_exit_64(self, tmp_path, capsys,
                                                        potential, value):
        # only potential = constant reads epsilon
        cfg = write_config(tmp_path, README.replace(
            "potential = profile\n", f"potential = {potential}\nepsilon = {value}\n"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "'epsilon'" in err

    @pytest.mark.parametrize("value", ["0", "1", "2"])
    def test_spectral_cells_below_three_exit_64(self, tmp_path, capsys, value):
        # fewer cells ended in a LAPACK error after a partial lambda_scan.csv
        assert run_with(tmp_path, "spectral", [("spectral", "cells", value)]) == 64
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "o" / "lambda_scan.csv").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("spectral", "cells", "0"), ("odi", "y0", "2"), ("problem", "q", "2"),
    ], ids=["spectral-cells", "odi-y0", "problem-q"])
    def test_verify_rejects_before_writing(self, tmp_path, capsys, section, key, value):
        # verify checked [spectral] and [odi] only after dini and spectral
        # had written their files
        assert run_with(tmp_path, "verify", [(section, key, value)]) == 64
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not any((tmp_path / "o").iterdir())

    def test_spectral_three_cells_runs(self, tmp_path):
        assert run_with(tmp_path, "spectral", [("spectral", "cells", "3")]) == 0
        assert (tmp_path / "o" / "summary_spectral.json").is_file()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_s0_out_of_range_exit_64(self, tmp_path, capsys, value):
        assert run_with(tmp_path, "dini", [("profile", "s0", value)]) == 64
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,series", [
        ("n_max", "2", "spectral_criterion_verdict"),
        ("n_max", "3", "spectral_criterion_verdict"),
        ("mu_n_max", "0", "mu_log_sum_verdict"),
        ("mu_n_max", "1", "mu_log_sum_verdict"),
    ])
    def test_empty_spectral_series_inconclusive(self, tmp_path, key, value, series):
        # every term has mu <= 1: the series has nothing to sum
        assert run_with(tmp_path, "spectral", [("spectral", key, value)]) == 2
        summary = json.loads((tmp_path / "o" / "summary_spectral.json").read_text())
        assert summary["results"][series] == "inconclusive"


class TestHygiene:
    def test_determinism_byte_identical(self, tmp_path):
        for command, config in [("simulate", ODE_REGIME + "\n[odi]\ny0 = 1e-4\n"),
                                ("verify", README)]:
            base = tmp_path / command
            base.mkdir()
            cfg = write_config(base, config)
            out1, out2 = base / "o1", base / "o2"
            assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0
            assert main([command, "--config", str(cfg), "--out", str(out2)]) == 0
            files1 = sorted(p.name for p in out1.iterdir())
            files2 = sorted(p.name for p in out2.iterdir())
            assert files1 == files2
            for name in files1:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # the L2 norms of 12 000 cells are BLAS dot products, which round by
        # the thread count once threaded; fresh processes, since BLAS reads
        # its thread count when numpy loads
        config = (README.replace("cells = 2000", "cells = 12000")
                  .replace("u0 = 1.0", "u0 = random").replace("horizon = 2.5", "horizon = 0.05"))
        cfg = write_config(tmp_path, config)
        src = str(Path(extinctlab.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "PYTHONPATH": src,
                   "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "extinctlab.cli", "simulate",
                                   "--config", str(cfg), "--out", str(out)], env=env)
            assert done.returncode == 1   # not extinct by t = 0.05
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    @pytest.mark.parametrize("profile", [BETA2, BETA2.replace("beta = 2.0", "beta = 3.0"),
                                         CONSTANT], ids=["beta2", "beta3", "constant"])
    def test_per_call_forms_write_the_same_bytes(self, tmp_path, monkeypatch, profile):
        import extinctlab.cli as cli
        import extinctlab.spectral as spectral

        def per_point_scan(potential, h_values, rho_map, cells):
            """One lone solve and one scalar rho^-1 per h."""
            lam, res, rinv, clipped = [], [], [], 0
            for h in h_values:
                gs = spectral.ground_state(potential, math.log(h), cells=cells)
                lam.append(gs.value)
                res.append(gs.residual)
                in_range = rho_map.rho_min <= h * h <= rho_map.rho_max
                rinv.append(rho_map.rho_inv(h * h) if in_range else math.nan)
                clipped += not in_range
            ratios = np.array(lam) * h_values**2 / np.array(rinv)
            ok = np.isfinite(ratios)
            bracket = float(max(np.max(ratios[ok]), 1.0 / np.min(ratios[ok])))
            return spectral.SpectralScan(h_values, np.array(lam), np.array(res),
                                         np.array(rinv), ratios, bracket, clipped)

        cfg = write_config(tmp_path, profile + README[len(BETA2):])
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "new")])
        monkeypatch.setattr(cli, "eigenvalue_sandwich_scan", per_point_scan)
        # each ground state of mu_n and the criterion probes its own knee
        monkeypatch.setattr(spectral, "_ground_sweep", lambda potential, log_hs, cells: [
            spectral.ground_state(potential, lh, cells=cells) for lh in log_hs])
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "old")]) == code
        names = sorted(p.name for p in (tmp_path / "new").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "old").iterdir())
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == \
                (tmp_path / "old" / name).read_bytes(), name

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

    @pytest.mark.parametrize("name", ["o", "o/sub"], ids=["file", "under-file"])
    def test_out_not_a_directory_exit_64(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, BETA2)
        (tmp_path / "o").write_text("kept\n")
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / name)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
        assert (tmp_path / "o").read_text() == "kept\n"

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

    @pytest.mark.parametrize("depth", [300.0, 700.0])
    def test_deep_table_exit_64_naming_its_row(self, tmp_path, capsys, depth):
        # 400 rows of log-power beta = 2 down to u = ln(1/s) = depth: the
        # monotone cubic overflows on the deepest rows (to u = 300 it makes
        # omega NaN past u = 243, to u = 700 it has no finite derivatives),
        # so the table is refused at load, naming its first bad row
        u = np.linspace(depth, 0.0, 400)
        w = np.minimum(1.0 / np.maximum(u, 1.0) ** 2, 1.0)
        np.savetxt(tmp_path / "omega.csv", np.column_stack([np.exp(-u), w]), delimiter=",")
        cfg = write_config(tmp_path, "[profile]\nkind = table\ntable = omega.csv\n")
        assert main(["dini", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("configuration error: table row 1 (s = ")
        assert "Traceback" not in err


def row_form_csv(header, columns) -> str:
    """The CSV text of the former row-by-row writer."""
    return ",".join(header) + "\n" + "".join(
        ",".join(map(_fmt, row)) + "\n" for row in zip(*columns))


class TestCsvWriter:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300,
               0.1, 1.0 / 3.0, 2.0**53 + 2.0, 123456789.0]
    KINDS = ["float64", "float64_view", "np_float64_list", "python_float_list",
             "range", "int_array", "bool_array", "strings", "string_array", "float32"]
    BLOCK = _CSV_BLOCK

    def columns(self, n=40):
        """Every column kind, n rows: 40 rows of data repeated."""
        rng = np.random.RandomState(0)
        base = 40
        reps = -(-n // base)
        floats = np.concatenate([self.SPECIAL, rng.standard_normal(base - len(self.SPECIAL))
                                 * 10.0 ** rng.randint(-20, 20, base - len(self.SPECIAL))])
        floats = np.tile(floats, reps)[:n]
        with np.errstate(over="ignore"):
            f32 = floats.astype(np.float32)
        return {
            "float64": floats,
            "float64_view": floats[::-1],
            "np_float64_list": [np.float64(x) for x in floats],
            "python_float_list": floats.tolist(),
            "range": range(-5, n - 5),
            "int_array": np.arange(n, dtype=np.int64) * -3,
            "bool_array": np.tile(rng.rand(base) < 0.5, reps)[:n],
            "strings": (["", "plateau", "a b", ""] * (base // 4) * reps)[:n],
            "string_array": np.tile(np.array(["mid", "final", ""] * (base // 3) + ["x"]),
                                    reps)[:n],
            "float32": f32,
        }

    def write(self, tmp_path, header, columns) -> str:
        out = OutputDir(tmp_path / "csv", configparser.ConfigParser(), 0)
        try:
            out.write_csv("t.csv", header, columns)
        finally:
            out.release()
        assert out.manifest == ["t.csv"]
        return (tmp_path / "csv" / "t.csv").read_text()

    @pytest.mark.parametrize("kind", KINDS)
    def test_column_kind_matches_row_form(self, tmp_path, kind):
        col = self.columns()[kind]
        text = self.write(tmp_path, ["i", kind], [range(len(col)), col])
        assert text == row_form_csv(["i", kind], [range(len(col)), col])

    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_block_edges_match_row_form(self, tmp_path, kind, rows):
        col = self.columns(rows)[kind]
        assert len(col) == rows
        text = self.write(tmp_path, ["i", kind], [range(rows), col])
        assert text == row_form_csv(["i", kind], [range(rows), col])
        assert text.count("\n") == rows + 1

    def test_all_kinds_together(self, tmp_path):
        cols = self.columns()
        text = self.write(tmp_path, list(cols), list(cols.values()))
        assert text == row_form_csv(list(cols), list(cols.values()))
        assert text.count("\n") == 41

    def test_no_columns_writes_header(self, tmp_path):
        assert self.write(tmp_path, ["a", "b"], []) == "a,b\n"

    def test_memory_bounded_by_block(self, tmp_path):
        # 200 000 rows of five float64 columns: a whole column as Python
        # floats and strings would take tens of MB, one block of rows a
        # bound that does not grow with the row count
        cols = [np.random.RandomState(k).standard_normal(200_000) for k in range(5)]
        out = OutputDir(tmp_path / "csv", configparser.ConfigParser(), 0)
        tracemalloc.start()
        try:
            out.write_csv("t.csv", list("abcde"), cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            out.release()
        assert (tmp_path / "csv" / "t.csv").read_text().count("\n") == 200_001
        assert peak < 1024 * self.BLOCK


class TestImports:
    def run_python(self, code: str) -> str:
        src = str(Path(extinctlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def test_profiles_and_analysis_leave_solver_unloaded(self):
        code = ("import sys, extinctlab.profiles, extinctlab.analysis\n"
                "print([m for m in ('scipy.linalg', 'extinctlab.solver') if m in sys.modules])\n")
        assert self.run_python(code) == "[]"

    def test_cli_import_leaves_interpolate_unloaded(self):
        code = ("import sys, numpy as np, extinctlab.cli\n"
                "heavy = ['scipy.interpolate', 'scipy.special', 'scipy.optimize']\n"
                "print(sorted(m for m in heavy if m in sys.modules))\n"
                "from extinctlab.profiles import OmegaProfile\n"
                "s = np.geomspace(1e-3, 0.8, 12)\n"
                "OmegaProfile.from_table(s, s ** 0.5)\n"
                "print('scipy.interpolate' in sys.modules)\n")
        assert self.run_python(code).splitlines() == ["[]", "True"]

    def test_cli_import_leaves_scipy_unloaded(self):
        code = ("import sys, extinctlab.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert self.run_python(code) == "[]"

    def run_commands(self, tmp_path, config: str, commands) -> tuple[list, list]:
        """The exit code of each of ``commands``, run by ``cli.main`` on
        ``config`` in one fresh interpreter, and the ``scipy`` modules
        loaded after them."""
        args = ["--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "o")]
        code = ("import json, sys\nfrom extinctlab.cli import main\n"
                f"codes = [main([c, *{args!r}]) for c in {commands!r}]\n"
                "scipy = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
                "print(json.dumps([codes, scipy]))\n")
        return tuple(json.loads(self.run_python(code)))

    def test_dini_and_bound_leave_scipy_unloaded(self, tmp_path):
        assert self.run_commands(tmp_path, README, ["dini", "bound"]) == ([0, 0], [])

    def test_factoring_commands_load_flapack_alone(self, tmp_path):
        # the first factorization loads LAPACK's compiled wrappers and no
        # other scipy module: not the scipy.linalg package, not scipy itself
        config = README.replace("horizon = 2.5", "horizon = 0.01")
        for command, code in (("simulate", 1), ("verify", 0), ("spectral", 0)):
            out = tmp_path / command
            out.mkdir()
            assert self.run_commands(out, config, [command]) == (
                [code], ["scipy.linalg._flapack"])

    @pytest.mark.parametrize("first", ["loader", "scipy.linalg"])
    def test_loader_and_scipy_linalg_share_one_module(self, first):
        loader = "from extinctlab.solver import lapack\nflapack = lapack()\n"
        package = "import scipy.linalg.lapack\n"
        code = ((loader + package) if first == "loader" else (package + loader)) + (
            "print(scipy.linalg.lapack.dpttrf is flapack.dpttrf,"
            " scipy.linalg.lapack._flapack is flapack)\n")
        assert self.run_python(code) == "True True"
