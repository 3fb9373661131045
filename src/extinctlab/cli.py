"""Command-line entry point.

    extinctlab <dini|simulate|bound|spectral|verify> --config FILE
               [--out DIR] [--seed N] [--gamma X] [--c0 X] [--c7 X] [--cbar X]

Every convergence verdict (integral, series, round bound, spectral
criterion) is "convergent", "divergent" or "inconclusive".  Exit codes:
0 convergent (simulate: extinct; verify: coherent), 1 divergent (simulate:
not extinct; verify: incoherent; bound and spectral also when they
contradict a simulate or dini summary in the same directory),
2 inconclusive, 64 configuration or usage error, 70 numerical failure.

All emissions are plain CSV (comma separator, dot decimal, header row) plus
one versioned JSON summary per subcommand; identical config and seed give
byte-identical output.  An output directory is owned by a single invocation
through a lock file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, spectral
from .analysis import equivalence_check, spectral_log_sum
from .config import (
    ConfigError,
    echo_config,
    load_config,
    odi_from_config,
    potential_from_config,
    problem_from_config,
    profile_from_config,
    spectral_from_config,
)
from .energy import (
    compute_ledger,
    ode_inequality_residual,
    probe_outer_energy_relation,
    verify_global_estimate,
)
from .odi import CurveRangeError, NoPlateauError, build_curve, extinction_iteration
from .profiles import MonotonicityError, check_conditions
from .solver import NumericsError, run
from .spectral import (
    EigenSolveError,
    mu_n_sequence,
    spectral_criterion_series,
    eigenvalue_sandwich_scan,
    inverse_map_sandwich,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70

_MIN_POSITIVITY_FLOOR = 1e-6  # of the initial sup norm


def _fmt(x) -> str:
    if isinstance(x, float):  # also np.float64; same text as repr(float(x))
        return float.__repr__(x)
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


class OutputDir:
    """Locked output directory with a manifest of everything written."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.lock = self.path / ".extinctlab.lock"
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            raise ConfigError(f"output directory {self.path} is locked by "
                              "another invocation") from None
        self.manifest: list[str] = []

    def release(self):
        self.lock.unlink(missing_ok=True)

    def write_csv(self, name: str, header: list[str], columns) -> None:
        """Write one CSV file from columns; row i holds entry i of each.

        A ``float64`` ndarray column is formatted in one pass over
        ``tolist()``, any other value by value through ``_fmt``: the bytes
        equal those of joining ``_fmt`` of each row's values.
        """
        cells = [map(float.__repr__, col.tolist())
                 if isinstance(col, np.ndarray) and col.dtype == np.float64
                 else map(_fmt, col) for col in columns]
        with open(self.path / name, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
        self.manifest.append(name)

    def write_summary(self, command: str, results: dict, parser, seed: int) -> str:
        name = f"summary_{command}.json"
        self.manifest.append(name)
        payload = {
            "schema": "v1",
            "tool": "extinctlab",
            "version": __version__,
            "command": command,
            "seed": seed,
            "config": echo_config(parser),
            "results": results,
            "manifest": sorted(self.manifest),
        }
        with open(self.path / name, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return name

    def read_summary(self, command: str) -> dict | None:
        p = self.path / f"summary_{command}.json"
        if not p.is_file():
            return None
        return json.loads(p.read_text())


def _verdict_exit(verdict: str) -> int:
    return {"convergent": EXIT_OK, "divergent": EXIT_NEGATIVE}.get(verdict, EXIT_INCONCLUSIVE)


def cmd_dini(parser, out: OutputDir, args) -> int:
    profile = profile_from_config(parser, args.config_dir)
    checks = check_conditions(profile)
    out.write_csv("conditions.csv",
                  ["condition", "passed", "witness_s", "witness_value"],
                  [[c.name for c in checks], [c.passed for c in checks],
                   ["" if c.witness_s is None else c.witness_s for c in checks],
                   ["" if c.witness_value is None else c.witness_value
                    for c in checks]])

    eq = equivalence_check(profile)
    out.write_csv("analysis_results.csv",
                  ["profile", "quantity", "value", "error", "verdict"],
                  [[profile.kind] * 3,
                   ["integral", "series_partial_sum", "series_tail_exponent"],
                   [eq.integral.value, eq.series.total, eq.series.tail_exponent],
                   [eq.integral.error, 0.0, 0.0],
                   [eq.integral.verdict] + [eq.series.verdict] * 2])
    results = {
        "integral_verdict": eq.integral.verdict,
        "integral_value": eq.integral.value,
        "series_verdict": eq.series.verdict,
        "verdicts_agree": eq.agree,
        "conditions": {c.name: c.passed for c in checks},
    }
    out.write_summary("dini", results, parser, args.seed)
    if eq.agree is None:
        return EXIT_INCONCLUSIVE
    return _verdict_exit(eq.series.verdict)


def cmd_simulate(parser, out: OutputDir, args) -> int:
    spec = problem_from_config(parser, args.config_dir)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    try:
        traj = run(spec)
    except NumericsError as exc:
        if exc.state is not None:
            out.write_csv("diagnostic_state.csv", ["i", "u"],
                          [range(len(exc.state)), exc.state])
        out.write_summary("simulate", {"error": str(exc), "t": exc.t},
                          parser, args.seed)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    out.write_csv("trajectory.csv", ["t", "l2sq", "linf", "min_u", "mass"],
                  [traj.times, traj.l2sq, traj.linf, traj.umin, traj.mass])
    picks = np.unique(np.linspace(0, traj.snapshots.shape[0] - 1, 5).astype(int))
    centers = traj.grid.centers
    out.write_csv("snapshots.csv", ["t", "r", "u"],
                  [np.repeat(traj.snapshot_times[picks], centers.size),
                   np.tile(centers, picks.size), traj.snapshots[picks].ravel()])

    taus = np.concatenate([[0.0], np.geomspace(spec.radius / 50.0,
                                               0.95 * spec.radius, 31)])
    ledger = compute_ledger(traj, taus)
    out.write_csv("ledger_tau.csv", ["tau", "s_tau", "I", "J", "y"],
                  [ledger.tau_grid, ledger.s_tau, ledger.I, ledger.J, ledger.y])
    n_snap, n_tau = ledger.H.shape
    out.write_csv("ledger_time.csv", ["t", "tau", "H", "E"],
                  [np.repeat(ledger.t_snap, n_tau), np.tile(ledger.tau_grid, n_snap),
                   ledger.H.ravel(), ledger.E.ravel()])

    margin = verify_global_estimate(ledger)
    sup0 = float(np.max(np.abs(traj.snapshots[0])))
    if traj.extinction_time is not None:
        verdict = "extinct"
    elif traj.umin[-1] > _MIN_POSITIVITY_FLOOR * sup0:
        verdict = "positivity-persisted"
    else:
        verdict = "horizon-reached"
    results = {
        "verdict": verdict,
        "extinction_time": traj.extinction_time,
        "final_min": float(traj.umin[-1]),
        "final_sup": float(traj.linf[-1]),
        "y0": traj.y0,
        "global_estimate_min_slack": margin.min_slack,
        "global_estimate_error": margin.quad_error,
        "global_estimate_holds": margin.holds,
    }
    if ledger.sp_tau is not None and traj.y0 > 0:
        probe = probe_outer_energy_relation(ledger)
        odi_fit = ode_inequality_residual(ledger)
        results["fitted_constants"] = {
            "relation_c_hat": probe.c_hat,
            "relation_skipped_rows": probe.skipped,
            "odi_c0": odi_fit.c0,
            "odi_clipped_slopes": odi_fit.clipped,
        }
    out.write_summary("simulate", results, parser, args.seed)
    return EXIT_OK if verdict == "extinct" else EXIT_NEGATIVE


def cmd_bound(parser, out: OutputDir, args) -> int:
    overrides = {"gamma": args.gamma, "c0": args.c0, "c7": args.c7,
                 "cbar": args.cbar}
    cfg, extras = odi_from_config(parser, args.config_dir, overrides)
    rep = extinction_iteration(cfg, max_rounds=extras["max_rounds"])
    curve_error = None
    try:
        curve = build_curve(cfg)
        out.write_csv("curve.csv", ["tau", "Y", "region"],
                      [curve.tau, curve.Y, curve.labels])
        curve_info = {
            "tau_prime": curve.tau_prime,
            "tau_double_prime": curve.tau_double_prime,
            "tau_triple_prime": curve.tau_triple_prime,
            "region2_skipped": curve.region2_skipped,
            "beyond_domain": curve.tau_triple_prime > cfg.tau_max,
            "tau_triple_prime_bumped": curve.triple_info.bumped,
        }
    except (NoPlateauError, CurveRangeError) as exc:
        curve_error = str(exc)
        curve_info = {"error": curve_error}

    out.write_csv("rounds.csv", ["i", "tau_i", "t_i", "s_i", "log_level"],
                  [range(1, rep.rounds + 1), rep.tau_rounds, rep.t_rounds,
                   rep.s_rounds, rep.log_levels])

    # +inf is a divergent total; NaN (no rounds) has no value at all
    total = (rep.total if math.isfinite(rep.total)
             else "inf" if rep.total == math.inf else None)
    sim = out.read_summary("simulate")
    sim_check = {"found": False}
    if sim is not None and sim["config"].get("profile") == echo_config(parser).get("profile"):
        t_ext = sim["results"].get("extinction_time")
        sim_check = {"found": True, "extinction_time": t_ext,
                     "factor": extras["bound_factor"], "bound": total}
        if t_ext is not None and math.isfinite(rep.total):
            sim_check["holds"] = bool(t_ext <= extras["bound_factor"] * rep.total)

    results = {
        "verdict": rep.verdict,
        "dini_verdict": rep.dini_verdict,
        "total_bound": total,
        "sum_t": rep.sum_t,
        "sum_s": rep.sum_s,
        "rounds": rep.rounds,
        "clipped_rounds": rep.clipped_rounds,
        "round_cap_hit": rep.rounds >= extras["max_rounds"],
        "constants": {"c0": cfg.c0, "c4": cfg.c4, "c7": cfg.c7,
                      "cbar": cfg.cbar, "gamma": cfg.gamma, "y0": cfg.y0},
        "curve": curve_info,
        "simulation_check": sim_check,
    }
    out.write_summary("bound", results, parser, args.seed)
    if sim_check.get("holds") is False:  # only a finite, convergent total is checked
        return EXIT_NEGATIVE
    return _verdict_exit(rep.verdict)


def cmd_spectral(parser, out: OutputDir, args) -> int:
    sp = spectral_from_config(parser)
    potential = potential_from_config(parser, args.config_dir)
    results = {}
    try:
        rho_map = spectral.build_rho_map(potential)  # one map for both sandwiches
        hs = np.geomspace(sp["h_min"], sp["h_max"], sp["h_count"])
        scan = eigenvalue_sandwich_scan(potential, hs, rho_map, cells=sp["cells"])
        out.write_csv("lambda_scan.csv",
                      ["h", "lambda1", "residual", "rho_inv", "ratio"],
                      [scan.h, scan.lambda1, scan.residuals, scan.rho_inv,
                       scan.ratios])
        sandwich = inverse_map_sandwich(potential, np.geomspace(1e-12, 1e-6, 100), rho_map)
        results.update({
            "sandwich_bracket_C": scan.bracket,
            "sandwich_width": scan.width,
            "sandwich_clipped": scan.clipped,
            "inverse_sandwich_violations": sandwich.violations,
        })
    except MonotonicityError as exc:
        # constant-like potentials have no inverse map; the criteria below
        # are still meaningful
        results["rho_map_error"] = str(exc)

    mus = mu_n_sequence(potential, n_max=sp["mu_n_max"], cells=min(sp["cells"], 800))
    kv = spectral_log_sum(mus)
    terms = np.concatenate([[0.0], np.log(mus[1:]) / mus[1:]])
    out.write_csv("mu_n.csv", ["n", "mu_n", "term", "partial_sum"],
                  [range(mus.size), mus, terms, np.cumsum(terms)])

    crit = spectral_criterion_series(potential, K=sp["K"], q=sp["q"],
                            n_range=(sp["n_min"], sp["n_max"]),
                            cells=min(sp["cells"], 2000))
    out.write_csv("criterion_terms.csv", ["n", "mu", "term", "flagged"],
                  [crit.n, crit.mu, crit.terms, crit.flagged])

    results.update({
        "mu_log_sum": kv.total,
        "mu_log_sum_verdict": kv.verdict,
        "mu_log_sum_rejected": kv.rejected,
        "spectral_criterion_verdict": crit.verdict,
    })
    dini = out.read_summary("dini")
    if dini is not None and dini["config"].get("profile") == echo_config(parser).get("profile"):
        dini_verdict = dini["results"]["series_verdict"]
        results["dini_series_verdict"] = dini_verdict
        # an inconclusive side neither agrees nor contradicts
        results["consistent_with_dini"] = (
            None if "inconclusive" in (dini_verdict, crit.verdict)
            else dini_verdict == crit.verdict)
    out.write_summary("spectral", results, parser, args.seed)
    if results.get("consistent_with_dini") is False:
        return EXIT_NEGATIVE
    if kv.n_values.size == 0:  # no mu_n > 1: the mu-log sum decides nothing
        return EXIT_INCONCLUSIVE
    return _verdict_exit(crit.verdict)


def cmd_verify(parser, out: OutputDir, args) -> int:
    code_d = cmd_dini(parser, out, args)
    code_s = cmd_spectral(parser, out, args)
    code_b = cmd_bound(parser, out, args)
    codes = {"dini": code_d, "spectral": code_s, "bound": code_b}
    # spectral also exits 1 when its criterion contradicts dini's series
    spec = out.read_summary("spectral")["results"]
    coherent = (set(codes.values()) in ({EXIT_OK}, {EXIT_NEGATIVE})
                and spec.get("consistent_with_dini") is not False)
    out.write_summary("verify", {"exit_codes": codes, "coherent": coherent},
                      parser, args.seed)
    return EXIT_OK if coherent else EXIT_NEGATIVE


_COMMANDS = {
    "dini": cmd_dini,
    "simulate": cmd_simulate,
    "bound": cmd_bound,
    "spectral": cmd_spectral,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="extinctlab",
                                 description="extinction-criteria laboratory")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="INI run configuration")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--gamma", type=float, default=None)
    ap.add_argument("--c0", type=float, default=None)
    ap.add_argument("--c7", type=float, default=None)
    ap.add_argument("--cbar", type=float, default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        parser = load_config(args.config)
        args.config_dir = Path(args.config).resolve().parent
        out = OutputDir(args.out)
        return _COMMANDS[args.command](parser, out, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, EigenSolveError, MonotonicityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if out is not None:
            out.release()


if __name__ == "__main__":
    sys.exit(main())
