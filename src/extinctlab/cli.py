"""Command-line entry point.

    extinctlab <dini|simulate|bound|spectral|verify> --config FILE
               [--out DIR] [--seed N]

Every convergence verdict (integral, series, round bound, spectral
criterion) is "convergent", "divergent" or "inconclusive".  A subcommand
exits with the code that ``EXIT_CODES`` gives its verdict word, 64 on a
configuration or usage error and 70 on a numerical failure.  bound and
spectral exit 1 also when an earlier simulate or dini summary in --out
contradicts them; such a summary counts only if it ran on the same
[profile] (dini), or the same [profile], [problem] and seed (simulate).
verify composes dini, spectral and bound from what each returns and reads
back nothing it wrote.

All emissions are plain CSV (comma separator, dot decimal, header row) plus
one versioned JSON summary per subcommand; identical config and seed give
byte-identical output on any number of cores.  An output directory is owned
by a single invocation through a lock file.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

# a BLAS dot product of 10 000 elements or more rounds by its thread count:
# one thread, set before numpy loads, keeps outputs the same on every machine
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402  (after the thread caps)

from . import __version__, spectral
from .analysis import equivalence_check, mu_log_terms, spectral_log_sum
from .config import (
    ConfigError,
    echo_config,
    load_config,
    odi_from_config,
    potential_from_config,
    problem_from_config,
    spectral_from_config,
)
from .energy import (
    compute_ledger,
    ode_inequality_residual,
    probe_outer_energy_relation,
    verify_global_estimate,
)
from .odi import CurveRangeError, build_curve, extinction_iteration
from .profiles import MonotonicityError, check_conditions
from .solver import NumericsError, run
from .spectral import (
    EigenSolveError,
    mu_n_sequence,
    spectral_criterion_series,
    eigenvalue_sandwich_scan,
    inverse_map_sandwich,
)

#: the exit code of each verdict word: simulate's run, verify's coherence,
#: and a bound or spectral run that an earlier summary contradicts
EXIT_CODES = {"convergent": 0, "extinct": 0, "coherent": 0, "divergent": 1,
              "positivity-persisted": 1, "horizon-reached": 1, "incoherent": 1,
              "contradicted": 1, "inconclusive": 2}
EXIT_USAGE = 64
EXIT_NUMERIC = 70

_MIN_POSITIVITY_FLOOR = 1e-6  # of the initial sup norm
_CSV_BLOCK = 1024  # rows write_csv formats at a time
# the caps on [spectral] cells of the mu_n sequence and the spectral
# criterion; the sandwich scan takes cells as given
_MU_N_CELLS = 800
_CRITERION_CELLS = 2000


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


class Outcome(int):
    """A subcommand's exit code, that of its verdict word, carrying the
    ``results`` of its summary; ``main`` returns it as the exit code."""

    def __new__(cls, word: str, results: dict):
        outcome = super().__new__(cls, EXIT_CODES[word])
        outcome.results = results
        return outcome


class OutputDir:
    """Locked output directory of one run with a manifest of all it holds."""

    def __init__(self, path, parser, seed: int):
        self.path = Path(path)
        self.lock = self.path / ".extinctlab.lock"
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from None
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            raise ConfigError(f"output directory {self.path} is locked by "
                              "another invocation") from None
        except OSError as exc:
            raise ConfigError(f"cannot lock output directory: {exc}") from None
        self.manifest: list[str] = []
        self.run_inputs = {"seed": seed, "config": echo_config(parser)}

    def release(self):
        self.lock.unlink(missing_ok=True)

    def write_csv(self, name: str, header: list[str], columns) -> None:
        """Write one CSV file from sized, sliceable columns; row i holds
        entry i of each, and the shortest column ends the file.

        Rows are formatted ``_CSV_BLOCK`` at a time: a ``float64`` ndarray
        column's block in one pass over ``tolist()``, any other value by
        value through ``_fmt``.  The bytes equal those of joining ``_fmt``
        of each row's values, and no column is ever held as whole lists of
        Python floats or strings.
        """
        rows = min(map(len, columns), default=0)
        with open(self.path / name, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(0, rows, _CSV_BLOCK):
                block = [col[i:i + _CSV_BLOCK] for col in columns]
                cells = [map(float.__repr__, col.tolist())
                         if isinstance(col, np.ndarray) and col.dtype == np.float64
                         else map(_fmt, col) for col in block]
                fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))
        self.manifest.append(name)

    def write_summary(self, command: str, results: dict) -> None:
        name = f"summary_{command}.json"
        self.manifest.append(name)
        payload = {
            "schema": "v1",
            "tool": "extinctlab",
            "version": __version__,
            "command": command,
            **self.run_inputs,
            "results": results,
            "manifest": sorted(self.manifest),
        }
        with open(self.path / name, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def read_summary(self, command: str) -> dict | None:
        p = self.path / f"summary_{command}.json"
        if not p.is_file():
            return None
        return json.loads(p.read_text())


def _parsed(value):
    """Parsed inputs as values that == compares: a dataclass as the list of its
    compared fields, an array as the list of its values."""
    if dataclasses.is_dataclass(value):
        return [_parsed(getattr(value, f.name)) for f in dataclasses.fields(value) if f.compare]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _earlier_results(out: OutputDir, command: str, base_dir) -> dict | None:
    """The results of an earlier ``command`` summary in ``out``, or None when
    there is none or it ran on other inputs, compared as the config readers
    parse them: [profile] for dini; [profile], [problem] and the seed, which
    draws ``u0 = random``, for simulate."""
    def inputs(summary):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(summary["config"])
        profile = _parsed(potential_from_config(parser, base_dir))
        return profile if command == "dini" else (
            profile, _parsed(problem_from_config(parser, base_dir)), summary["seed"])

    earlier = out.read_summary(command)
    try:
        same = earlier is not None and inputs(earlier) == inputs(out.run_inputs)
    except ConfigError:  # a section that the readers reject is no match
        same = False
    return earlier["results"] if same else None


def cmd_dini(parser, out: OutputDir, args) -> Outcome:
    profile = potential_from_config(parser, args.config_dir).omega
    checks = check_conditions(profile)
    out.write_csv("conditions.csv",
                  ["condition", "passed", "witness_s", "witness_value"],
                  [[c.name for c in checks], [c.passed for c in checks],
                   ["" if c.witness_s is None else c.witness_s for c in checks],
                   ["" if c.witness_value is None else c.witness_value
                    for c in checks]])

    eq = equivalence_check(profile)
    b = eq.series.log_factor_exponent
    out.write_csv("analysis_results.csv",
                  ["profile", "quantity", "value", "error", "verdict"],
                  [[profile.kind] * 3,
                   ["integral", "series_partial_sum", "series_log_factor_exponent"],
                   [eq.integral.value, eq.series.total, b],
                   [eq.integral.error, eq.series.error, 0.0],
                   [eq.integral.verdict] + [eq.series.verdict] * 2])
    results = {
        "integral_verdict": eq.integral.verdict,
        "integral_value": eq.integral.value,
        # b, with window means ~ u_k^(-b), and its drift across the fit window
        "integral_exponent": eq.integral.exponent,
        "integral_drift": eq.integral.drift,
        "series_verdict": eq.series.verdict,
        # b, with condensed terms c_k ~ u_k^(-b): summable iff b > 1
        "series_log_factor_exponent": b if math.isfinite(b) else "inf",
        "series_drift": eq.series.drift,
        "verdicts_agree": eq.agree,
        "conditions": {c.name: c.passed for c in checks},
    }
    out.write_summary("dini", results)
    return Outcome("inconclusive" if eq.agree is None else eq.series.verdict, results)


def cmd_simulate(parser, out: OutputDir, args) -> Outcome:
    spec = problem_from_config(parser, args.config_dir)
    spec = dataclasses.replace(spec, seed=args.seed)
    try:
        traj = run(spec)
    except NumericsError as exc:
        if exc.state is not None:
            out.write_csv("diagnostic_state.csv", ["i", "u"],
                          [range(len(exc.state)), exc.state])
        out.write_summary("simulate", {"error": str(exc), "t": exc.t})
        raise

    out.write_csv("trajectory.csv", ["t", "l2sq", "linf", "min_u", "mass"],
                  [traj.times, traj.l2sq, traj.linf, traj.umin, traj.mass])
    picks = np.unique(np.linspace(0, len(traj.snapshots) - 1, 5).astype(int))
    centers = traj.grid.centers
    out.write_csv("snapshots.csv", ["t", "r", "u"],
                  [np.repeat(traj.snapshot_times[picks], centers.size),
                   np.tile(centers, picks.size),
                   np.concatenate([traj.snapshots[i] for i in picks])])

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
        # extinct means the sup norm fell below this
        "extinction_threshold": traj.threshold,
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
            # rows at tau > 0 where the ramp falls (s' <= 0): both constants
            # above are fitted on them too
            "ramp_falling_rows": int(np.count_nonzero(ledger.sp_tau[ledger.tau_grid > 0] <= 0)),
        }
    out.write_summary("simulate", results)
    return Outcome(verdict, results)


def cmd_bound(parser, out: OutputDir, args) -> Outcome:
    cfg, extras = odi_from_config(parser, args.config_dir)
    rep = extinction_iteration(cfg, max_rounds=extras["max_rounds"])
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
            "tau_triple_prime_bumped": curve.tau_triple_prime_bumped,
        }
    except (CurveRangeError, MonotonicityError) as exc:
        curve_info = {"error": str(exc)}

    out.write_csv("rounds.csv", ["i", "tau_i", "t_i", "s_i", "log_level"],
                  [range(1, rep.rounds + 1), rep.tau_rounds, rep.t_rounds,
                   rep.s_rounds, rep.log_levels])

    # +inf is a divergent total; NaN (no rounds) has no value at all
    total = (rep.total if math.isfinite(rep.total)
             else "inf" if rep.total == math.inf else None)
    sim = _earlier_results(out, "simulate", args.config_dir)
    sim_check = {"found": False}
    if sim is not None:
        t_ext = sim.get("extinction_time")
        sim_check = {"found": True, "extinction_time": t_ext,
                     "factor": extras["bound_factor"]}
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
    out.write_summary("bound", results)
    # only a finite, convergent total is checked
    return Outcome("contradicted" if sim_check.get("holds") is False else rep.verdict,
                   results)


def cmd_spectral(parser, out: OutputDir, args, dini: dict | None = None) -> Outcome:
    sp = spectral_from_config(parser, args.config_dir)
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
        results.update({
            "sandwich_bracket_C": scan.bracket,
            "sandwich_width": scan.width,
            "sandwich_clipped": scan.clipped,
            "inverse_sandwich_violations": inverse_map_sandwich(
                potential, np.geomspace(1e-12, 1e-6, 100), rho_map),
        })
    except MonotonicityError as exc:
        # constant-like potentials have no inverse map; the criteria below
        # are still meaningful
        results["rho_map_error"] = str(exc)

    mus = mu_n_sequence(potential, n_max=sp["mu_n_max"], cells=min(sp["cells"], _MU_N_CELLS))
    kv = spectral_log_sum(mus)
    # the last partial sum is the mu-log sum's total: adding 0.0 is exact
    terms = mu_log_terms(mus)
    out.write_csv("mu_n.csv", ["n", "mu_n", "term", "partial_sum"],
                  [range(mus.size), mus, terms, np.cumsum(terms)])

    crit = spectral_criterion_series(potential, K=sp["k"], q=sp["q"],
                                     n_range=(sp["n_min"], sp["n_max"]),
                                     cells=min(sp["cells"], _CRITERION_CELLS))
    out.write_csv("criterion_terms.csv", ["n", "mu", "term", "flagged"],
                  [crit.n, crit.mu, crit.terms, crit.flagged])

    results.update({
        "mu_log_sum": kv.total,
        "mu_log_sum_verdict": kv.verdict,
        "mu_log_sum_rejected": kv.rejected,
        "spectral_criterion_verdict": crit.verdict,
    })
    if dini is None:  # not run by verify: an earlier dini run, if any
        dini = _earlier_results(out, "dini", args.config_dir)
    if dini is not None:
        dini_verdict = dini["series_verdict"]
        results["dini_series_verdict"] = dini_verdict
        # an inconclusive side neither agrees nor contradicts
        results["consistent_with_dini"] = (
            None if "inconclusive" in (dini_verdict, crit.verdict)
            else dini_verdict == crit.verdict)
    out.write_summary("spectral", results)
    return Outcome("contradicted" if results.get("consistent_with_dini") is False
                   # no mu_n > 1: the mu-log sum decides nothing
                   else "inconclusive" if kv.rejected == mus.size
                   else crit.verdict, results)


def cmd_verify(parser, out: OutputDir, args) -> Outcome:
    # every section is checked before the first file is written
    spectral_from_config(parser, args.config_dir)
    odi_from_config(parser, args.config_dir)
    dini = cmd_dini(parser, out, args)
    spec = cmd_spectral(parser, out, args, dini.results)
    codes = {"dini": int(dini), "spectral": int(spec),
             "bound": int(cmd_bound(parser, out, args))}
    # every route convergent or every route divergent; spectral also exits
    # 1 when its criterion contradicts dini's series
    coherent = (set(codes.values()) in ({0}, {1})
                and spec.results.get("consistent_with_dini") is not False)
    results = {"exit_codes": codes, "coherent": coherent}
    out.write_summary("verify", results)
    return Outcome("coherent" if coherent else "incoherent", results)


_COMMANDS = {
    "dini": cmd_dini,
    "simulate": cmd_simulate,
    "bound": cmd_bound,
    "spectral": cmd_spectral,
    "verify": cmd_verify,
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's own exit code 2 reads as "inconclusive"; a usage error
    exits EXIT_USAGE, and --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="extinctlab",
                         description="extinction-criteria laboratory")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="INI run configuration")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=42)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        parser = load_config(args.config)
        args.config_dir = Path(args.config).resolve().parent
        out = OutputDir(args.out, parser, args.seed)
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
