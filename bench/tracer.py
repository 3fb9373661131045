"""Spans around calls into extinctlab's modules, installed from outside.

The tracer replaces public names where their callers look them up (module
globals, class attributes, the CLI's command table) with wrappers that
record a span (name, start, end, parent) and, for a few calls, counts taken
from the returned object.  ``installed()`` restores every original on exit.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the time covered by its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import statistics
import time
from collections import Counter
from pathlib import Path

def _count_steps(counts, traj, args, kwargs):
    counts["solver.run.steps"] += len(traj.times) - 1


def _count_csv(counts, _, args, kwargs):
    # OutputDir.write_csv(self, name, header, rows): the rows may be a
    # one-shot iterator, so count what reached the file
    out, name = args[0], args[1]
    data = (out.path / name).read_bytes()
    counts["cli.write_csv.bytes"] += len(data)
    counts["cli.write_csv.rows"] += data.count(b"\n") - 1


def _count_ground_state(counts, gs, args, kwargs):
    counts["spectral.ground_state.iterations"] += gs.iterations
    counts["spectral.ground_state.fallbacks"] += int(gs.used_fallback)


def _rounds_counter(extinction_iteration):
    signature = inspect.signature(extinction_iteration)

    def count(counts, report, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["odi.rounds"] += report.rounds
        counts["odi.rounds_capped"] += int(
            report.rounds >= bound.arguments["max_rounds"])
    return count


def _targets():
    """(owner, attribute, span name, counter) for every wrapped name."""
    from extinctlab import analysis, cli, odi, spectral
    from extinctlab.profiles import OmegaProfile
    from extinctlab.solver import Stepper

    targets = [
        (cli, "run", "solver.run", _count_steps),
        (Stepper, "diffuse", "solver.diffuse", None),
        (Stepper, "absorb", "solver.absorb", None),
        (cli, "compute_ledger", "energy.compute_ledger", None),
        (cli, "probe_outer_energy_relation", "energy.fits", None),
        (cli, "ode_inequality_residual", "energy.fits", None),
        (cli, "verify_global_estimate", "energy.verify_global_estimate", None),
        (cli.OutputDir, "write_csv", "cli.write_csv", _count_csv),
        (cli.OutputDir, "write_summary", "cli.write_summary", None),
        (OmegaProfile, "omega", "profiles.omega", None),
        (cli, "check_conditions", "profiles.check_conditions", None),
        (spectral, "build_rho_map", "profiles.build_rho_map", None),
        (cli, "equivalence_check", "analysis.equivalence_check", None),
        (analysis, "dini_integral", "analysis.dini_integral", None),
        (odi, "dini_integral", "analysis.dini_integral", None),
        (analysis, "dini_series", "analysis.dini_series", None),
        (cli, "extinction_iteration", "odi.extinction_iteration",
         _rounds_counter(cli.extinction_iteration)),
        (odi, "solve_extinction_radius", "odi.solve_extinction_radius", None),
        (cli, "build_curve", "odi.build_curve", None),
        (spectral, "ground_state", "spectral.ground_state", _count_ground_state),
        (cli, "eigenvalue_sandwich_scan", "spectral.eigenvalue_sandwich_scan", None),
        (cli, "inverse_map_sandwich", "spectral.inverse_map_sandwich", None),
        (cli, "mu_n_sequence", "spectral.mu_n_sequence", None),
        (cli, "spectral_criterion_series", "spectral.spectral_criterion_series", None),
    ]
    # main dispatches through the command table, cmd_verify through the
    # module globals; both lead to the same span names
    for command in cli._COMMANDS:
        targets.append((cli._COMMANDS, command, f"cli.cmd_{command}", None))
        targets.append((cli, f"cmd_{command}", f"cli.cmd_{command}", None))
    return targets


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return vars(owner)[attr]   # the plain function, not a bound method
    return getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans of one traced invocation at a time."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end)
        self._child: list[float] = []  # time covered by direct children
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, counter=None):
        spans, child, stack = self.spans, self._child, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child.append(0.0)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
                if parent >= 0:
                    child[parent] += end - start
            if counter is not None:
                counter(self.counts, result, args, kwargs)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        self.reset()
        originals = []
        try:
            for owner, attr, name, counter in _targets():
                fn = _get(owner, attr)
                originals.append((owner, attr, fn))
                _set(owner, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                _set(owner, attr, fn)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the invocation traced last, by name.

        ``solver.bookkeeping.s`` is the self time of ``run``; it includes
        the wrappers' own cost of each diffuse and absorb call, which falls
        outside their spans (see ``wrapper_cost``).
        """
        dur, own, calls = Counter(), Counter(), Counter()
        for sid, _, name, start, end in self.spans:
            dur[name] += end - start
            own[name] += end - start - self._child[sid]
            calls[name] += 1
        counts = self.counts
        steps = counts["solver.run.steps"]
        return {
            "solver.run.s": dur["solver.run"],
            "solver.run.steps": steps,
            "solver.diffuse.s": dur["solver.diffuse"],
            "solver.diffuse.calls": calls["solver.diffuse"],
            "solver.absorb.s": dur["solver.absorb"],
            "solver.absorb.calls": calls["solver.absorb"],
            "solver.bookkeeping.s": own["solver.run"],
            "solver.us_per_step": 1e6 * dur["solver.run"] / steps if steps else 0.0,
            "energy.compute_ledger.s": dur["energy.compute_ledger"],
            "energy.fits.s": dur["energy.fits"],
            "energy.verify_global_estimate.s": dur["energy.verify_global_estimate"],
            "cli.write_csv.s": dur["cli.write_csv"],
            "cli.write_csv.rows": counts["cli.write_csv.rows"],
            "cli.write_csv.bytes": counts["cli.write_csv.bytes"],
            "cli.write_summary.s": dur["cli.write_summary"],
            "cli.command.self_s": sum(v for k, v in own.items()
                                      if k.startswith("cli.cmd_")),
            "profiles.omega.calls": calls["profiles.omega"],
            "profiles.omega.s": dur["profiles.omega"],
            "profiles.check_conditions.s": dur["profiles.check_conditions"],
            "profiles.build_rho_map.s": dur["profiles.build_rho_map"],
            "analysis.equivalence_check.s": dur["analysis.equivalence_check"],
            "analysis.dini_integral.calls": calls["analysis.dini_integral"],
            "analysis.dini_integral.s": dur["analysis.dini_integral"],
            "analysis.dini_series.s": dur["analysis.dini_series"],
            "odi.extinction_iteration.s": dur["odi.extinction_iteration"],
            "odi.rounds": counts["odi.rounds"],
            "odi.rounds_capped": counts["odi.rounds_capped"],
            "odi.solve_extinction_radius.calls": calls["odi.solve_extinction_radius"],
            "odi.build_curve.s": dur["odi.build_curve"],
            "spectral.ground_state.calls": calls["spectral.ground_state"],
            "spectral.ground_state.s": dur["spectral.ground_state"],
            "spectral.ground_state.iterations": counts["spectral.ground_state.iterations"],
            "spectral.ground_state.fallbacks": counts["spectral.ground_state.fallbacks"],
            "spectral.eigenvalue_sandwich_scan.s": dur["spectral.eigenvalue_sandwich_scan"],
            "spectral.inverse_map_sandwich.s": dur["spectral.inverse_map_sandwich"],
            "spectral.mu_n_sequence.s": dur["spectral.mu_n_sequence"],
            "spectral.spectral_criterion_series.s": dur["spectral.spectral_criterion_series"],
        }

    def write_spans(self, path: Path) -> None:
        """Write the spans of the invocation traced last, times relative to
        its first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_s", "end_s", "self_s"])
            for sid, parent, name, start, end in self.spans:
                w.writerow([sid, parent, name, f"{start - t0:.9f}",
                            f"{end - t0:.9f}",
                            f"{end - start - self._child[sid]:.9f}"])


def _noop():
    pass


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds per call that a wrapper spends outside its own span.

    The caller's self time absorbs this cost.  Measured as the time of
    wrapped calls of a no-op function, less the time inside their spans,
    less the time of as many bare calls.
    """
    tracer = Tracer()
    wrapped = tracer.wrap("calibrate", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    total = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    bare = time.perf_counter() - start
    inside = sum(end - begin for _, _, _, begin, end in tracer.spans)
    return (total - inside - bare) / calls


def median_metrics(samples: list[dict]) -> dict:
    """Median of each metric over the traced invocations."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
