"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance below is fixed, not calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from extinctlab.analysis import dini_integral, equivalence_check, spectral_log_sum
from extinctlab.cli import main
from extinctlab.energy import ExponentPack, compute_ledger, ode_inequality_residual
from extinctlab.odi import (
    OdiConfig,
    build_curve,
    curve_y2,
    extinction_iteration,
    solve_tau_double_prime,
    solve_tau_prime,
)
from extinctlab.profiles import ConstantPotential, OmegaProfile, PotentialField, build_rho_map
from extinctlab.solver import FluxOperator, ProblemSpec, run
from extinctlab.spectral import ground_state, mu_n_sequence, eigenvalue_sandwich_scan, inverse_map_sandwich
from oracles import (
    bracket_constant,
    curve_value,
    endpoint_equivalence_ratios,
    join_gaps,
    ledger_quad_error,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_constant_potential_extinction():
    times = {}
    for label, cells, dt in (("base", 2000, 1e-3), ("refined", 4000, 5e-4)):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=cells, dt=dt, horizon=2.5)
        times[label] = run(spec).extinction_time
    err = abs(times["refined"] - 2.0) / 2.0
    report(1, "constant-potential extinction", times["refined"] is not None and err <= 0.01,
           f"T_base={times['base']:.5f} T_refined={times['refined']:.5f} rel_err={err:.2e}")


def test_02_mass_conservation():
    spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0="random", cells=2000,
                       dt=1e-3, horizon=10.0, seed=42)
    traj = run(spec)
    steps = traj.times.size - 1
    drift = float(np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0])
    report(2, "mass conservation", steps >= 10_000 and drift < 1e-10,
           f"steps={steps} max_rel_drift={drift:.2e}")


def test_03_dini_closed_form():
    res = dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0))
    err = abs(res.value - 1.0)
    report(3, "dini closed form", res.converged and err < 1e-6,
           f"value={res.value:.9f} err={err:.2e}")


def test_04_equivalence_family():
    family = [(OmegaProfile.power(a), "convergent") for a in (0.5, 1.0, 1.5)]
    family += [(OmegaProfile.log_power(b), "convergent" if b > 1 else "divergent")
               for b in (0.5, 1.0, 1.5, 2.0, 3.0)]
    family += [(OmegaProfile.constant(omega0=1.0), "divergent")]
    bad = []
    for prof, expect in family:
        rep = equivalence_check(prof)
        if rep.agree is not True or rep.series.verdict != expect:
            bad.append((prof.kind, (rep.integral.verdict, rep.series.verdict)))
    report(4, "series-integral equivalence", not bad,
           f"9 profiles checked, mismatches={bad}")


def test_05_kv_series():
    mus = mu_n_sequence(ConstantPotential(1.0), n_max=20, cells=400)
    diag = spectral_log_sum(mus)
    err = abs(diag.total - 2.0 * math.log(2.0))
    report(5, "spectral-sum closed form", err <= 1e-3,
           f"sum={diag.total:.6f} target={2*math.log(2):.6f} err={err:.2e}")


def test_06_spectral_oracle():
    beta2 = PotentialField(1.0, OmegaProfile.log_power(2.0))
    lin = PotentialField(1.0, OmegaProfile.power(1.0))
    pairs = [(beta2, h) for h in (3e-3, 1e-2, 3e-2, 1e-1)]
    pairs += [(lin, h) for h in (1e-2, 3e-2, 1e-1)]
    pairs += [(ConstantPotential(1.0), h) for h in (0.3, 1.0, 3.0)]
    worst = 0.0
    for pot, h in pairs:
        gs = ground_state(pot, log_h=math.log(h), cells=200)
        V = np.exp(np.minimum(pot.log_a(gs.grid.centers) - 2 * math.log(h), 700.0))
        d, e = FluxOperator(gs.grid).symmetric(V)
        dense = float(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[0])
        worst = max(worst, abs(gs.value - dense))
    report(6, "spectral oracle agreement", worst <= 1e-8,
           f"10 pairs, worst |iter - dense| = {worst:.2e}")


def test_07_eigenvalue_sandwich():
    pot = PotentialField(1.0, OmegaProfile.log_power(2.0))
    hs = np.geomspace(1e-3, 1e-1, 7)
    rho_map = build_rho_map(pot)
    scan = eigenvalue_sandwich_scan(pot, hs, rho_map, cells=3000)
    scan2 = eigenvalue_sandwich_scan(pot, hs, rho_map, cells=6000)
    move = float(np.max(np.abs(scan2.ratios / scan.ratios - 1.0)))
    ok = scan.width <= 100.0 and move < 0.05
    report(7, "ground-state sandwich", ok,
           f"ratio spread={scan.width:.3f} (<= 100), doubling move={move:.2%} (< 5%)")


def test_08_inverse_map_sandwich():
    pot = PotentialField(1.0, OmegaProfile.log_power(2.0))
    violations = inverse_map_sandwich(pot, np.geomspace(1e-12, 1e-6, 200), build_rho_map(pot))
    report(8, "inverse-map sandwich", violations == 0,
           f"violations={violations} over 200 points in [1e-12, 1e-6]")


def test_09_endpoint_integral_equivalence():
    # the instance driving the matching-radius estimate: m=5, l=-2, A=1-theta2
    ep = ExponentPack(0.5, 1)
    rows = endpoint_equivalence_ratios(OmegaProfile.log_power(2.0), m=5.0, l=-2.0,
                          A=1.0 - ep.theta2, tau_list=np.geomspace(1e-2, 1e-1, 10))
    ratios = np.array([r.ratio for r in rows])
    ok = bool(np.all(np.isfinite(ratios)) and np.all((ratios >= 0.1) & (ratios <= 10.0)))
    report(9, "endpoint-integral equivalence", ok,
           f"ratios in [{ratios.min():.3f}, {ratios.max():.3f}] over one decade of tau")


def test_10_odi_machinery():
    pot = PotentialField(1.0, OmegaProfile.log_power(2.0))
    cfg = OdiConfig(potential=pot, y0=1e-4, q=0.5)
    curve = build_curve(cfg)
    g1, g2 = join_gaps(curve.Y, curve.labels)
    joins_ok = g1 <= 1e-10 * cfg.y0 and g2 <= 1e-10 * cfg.y0
    monotone_ok = bool(np.all(np.diff(curve.Y) <= 1e-12))

    # closed form of the middle piece vs direct stiff integration
    tau_p = curve.tau_prime
    piece = curve_y2(cfg, tau_p)
    epk = cfg.exponents

    def rhs(tau, y):
        log_sp = cfg.potential.omega.log_ramp_slope(float(tau))
        psi2 = math.exp((1 - epk.theta2) * pot.log_a(float(tau)) + log_sp)
        return [-psi2 * max(y[0] / (3 * cfg.c0), 0.0) ** (1.0 / (1.0 + epk.lambda2))]

    sol = solve_ivp(rhs, (tau_p, 0.9), [cfg.y0], method="Radau",
                    rtol=1e-10, atol=1e-16, dense_output=True)
    probe = np.linspace(tau_p, 0.9, 25)
    rel = np.max(np.abs(piece(probe) - sol.sol(probe)[0])
                 / np.maximum(sol.sol(probe)[0], 1e-300))
    ode_ok = rel <= 1e-3

    ks = []
    for y0 in (1e-4, 3e-5, 1e-5):
        c = OdiConfig(potential=pot, y0=y0, q=0.5)
        t1 = solve_tau_prime(c)
        ks.append(bracket_constant(c, solve_tau_double_prime(c, curve_y2(c, t1), t1)))
    drift = max(ks) / min(ks)
    report(10, "dominating-curve machinery",
           joins_ok and monotone_ok and ode_ok and drift < 2.0,
           f"joins=({g1:.1e},{g2:.1e}) ode_rel_err={rel:.2e} bracket_drift={drift:.3f}")


def test_11_bound_coherence(omega_r_run):
    family = [
        (OmegaProfile.power(0.5), True), (OmegaProfile.power(1.0), True),
        (OmegaProfile.power(1.5), True), (OmegaProfile.log_power(0.5), False),
        (OmegaProfile.log_power(1.0), False), (OmegaProfile.log_power(1.5), True),
        (OmegaProfile.log_power(2.0), True), (OmegaProfile.log_power(3.0), True),
        (OmegaProfile.constant(omega0=1.0), False),
    ]
    mism = []
    for prof, finite in family:
        rep = extinction_iteration(OdiConfig(
            potential=PotentialField(1.0, prof), y0=1e-4, q=0.5), max_rounds=200)
        if math.isfinite(rep.total) != finite:
            mism.append(prof.kind)

    traj, pot = omega_r_run
    rep = extinction_iteration(OdiConfig(potential=pot, y0=1e-4, q=0.5), max_rounds=200)
    t_sim = traj.extinction_time
    bound_ok = t_sim is not None and t_sim <= 10.0 * rep.total
    report(11, "extinction-bound coherence", not mism and bound_ok,
           f"family mismatches={mism}; T_sim={t_sim:.3f} <= 10*R={10*rep.total:.3f}")


def test_12_comparison_property(omega_r_small_run):
    traj, pot = omega_r_small_run
    taus = np.geomspace(0.02, 0.9, 40)
    led = compute_ledger(traj, taus)
    res = ode_inequality_residual(led)
    cfg = OdiConfig(potential=pot, y0=led.y0, q=0.5, c0=res.c0)
    curve = build_curve(cfg)
    margin = curve_value(curve, taus) - led.y
    tol = np.maximum(ledger_quad_error(led), 1e-12 * led.y0)
    ok = bool(np.all(margin >= -tol))
    report(12, "energy below dominating curve", ok,
           f"fitted c0={res.c0:.4f}, min margin={margin.min():.3e} over 40 radii")


def test_13_positivity_contrast(tmp_path):
    base = """\
[problem]
q = 0.5
potential = profile
u0 = 1.0
cells = 600
horizon = 50.0
"""
    cfg_a = tmp_path / "superflat.ini"
    cfg_a.write_text("[profile]\nkind = log-singular\nkappa = 25.0\nd0 = 1.0\n"
                     + base + "dt = 5e-3\n")
    cfg_b = tmp_path / "linear.ini"
    cfg_b.write_text("[profile]\nkind = power\nalpha = 1.0\nd0 = 1.0\n"
                     + base + "dt = 2e-3\n")

    code_a = main(["simulate", "--config", str(cfg_a), "--out", str(tmp_path / "a")])
    code_b = main(["simulate", "--config", str(cfg_b), "--out", str(tmp_path / "b")])
    sum_a = json.loads((tmp_path / "a" / "summary_simulate.json").read_text())
    sum_b = json.loads((tmp_path / "b" / "summary_simulate.json").read_text())
    v_a, v_b = sum_a["results"]["verdict"], sum_b["results"]["verdict"]
    min_a = sum_a["results"]["final_min"]
    ok = (v_a == "positivity-persisted" and min_a > 1e-6
          and v_b == "extinct" and code_a == 1 and code_b == 0)
    report(13, "positivity/extinction contrast", ok,
           f"superflat: {v_a} (min u = {min_a:.3e}); steep: {v_b} "
           f"(T = {sum_b['results']['extinction_time']})")
