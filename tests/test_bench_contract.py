"""The traced benchmark's contract with the package.

``bench/tracer.py`` wraps names of ``extinctlab`` from outside and reads
fields of what they return (``GroundState.iterations`` and
``used_fallback``, the ``max_rounds`` argument of ``extinction_iteration``),
and ``cmd_simulate`` must call the energy functions it wraps.
A rename of any of them fails here, in the test suite, and not first in
the benchmark.
"""

import configparser
import importlib.util
from pathlib import Path

import pytest

from extinctlab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    targets = tracer._targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(tracer._get(owner, attr)), attr


def traced(tracer, command: str, cfg: Path, out: Path) -> tuple[int, dict]:
    """Exit code and layer metrics of one traced invocation."""
    t = tracer.Tracer()
    with t.installed():
        code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, t.layer_metrics()


def test_traced_verify_counts_ground_states_and_rounds(tracer, tmp_path):
    code, m = traced(tracer, "verify", BENCH / "workloads" / "verify.ini", tmp_path / "o")
    assert code == 0
    # 7 scan points and mu_0..mu_20; the criterion reads the semi-classical
    # map and solves no ground state
    assert m["spectral.ground_state.calls"] == 28
    assert m["spectral.ground_state.iterations"] >= m["spectral.ground_state.calls"] \
        - m["spectral.ground_state.fallbacks"]
    assert m["odi.rounds"] > 0
    assert m["odi.rounds_capped"] == 1   # the README config hits max_rounds
    # the 200 rounds' radii are solved in lock-step chunks of 32, 64 and
    # 104 levels; the curve solves none
    assert m["odi.solve_extinction_radius.calls"] == 3
    # one knee probe per sweep, ln a on each ground state's mesh, one rho^-1
    # solve per scan and one call per pass of each curve root solve, with
    # each bracket end evaluated once; the rounds' map, the ramp and the
    # criterion's map read OmegaProfile.log_omega, not omega: a further
    # evaluation of any map outside the root finder moves the count
    assert m["profiles.omega.calls"] == 128
    assert m["solver.run.steps"] == 0


def test_traced_simulate_counts_steps(tracer, tmp_path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(BENCH / "workloads" / "verify.ini")
    parser["problem"]["horizon"] = "0.05"
    cfg = tmp_path / "run.ini"
    with open(cfg, "w") as fh:
        parser.write(fh)
    code, m = traced(tracer, "simulate", cfg, tmp_path / "o")
    assert code == 1   # not extinct by t = 0.05
    assert m["solver.run.steps"] == 50
    assert m["solver.diffuse.calls"] == m["solver.absorb.calls"] == 50
    assert m["cli.write_csv.rows"] > 0
    # cmd_simulate reaches the ledger and both fits through cli's globals
    assert m["energy.compute_ledger.s"] > 0
    assert m["energy.fits.s"] > 0
    assert m["spectral.ground_state.calls"] == 0


def test_traced_extinct_run_discards_less_than_a_block(tracer, tmp_path):
    # run() steps a block of states at a time and drops the rows after the
    # one that goes extinct: fewer than one block of steps is wasted
    from extinctlab.solver import BLOCK_BYTES

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(BENCH / "workloads" / "simulate-extinct.ini")
    parser["problem"].update(cells="100", dt="1e-2")
    cfg = tmp_path / "run.ini"
    with open(cfg, "w") as fh:
        parser.write(fh)
    code, m = traced(tracer, "simulate", cfg, tmp_path / "o")
    assert code == 0   # extinct before the horizon
    rows = BLOCK_BYTES // (8 * 100)
    steps = m["solver.run.steps"]
    assert steps < 4000   # horizon 40 at dt = 1e-2
    assert steps <= m["solver.diffuse.calls"] < steps + rows
    assert m["solver.absorb.calls"] == m["solver.diffuse.calls"]
