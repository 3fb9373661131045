"""The Baseline verdict table of ROADMAP.md, pinned cell by cell.

Each row is a Baseline profile of tests/family.py, run once per session
(``cli_runs``): ``simulate`` at 500 cells, then ``verify`` in the same
--out.  ``EXPECTED`` holds each route's verdict as the paper and its two
cited works say it should be, and ``verify``'s exit code.  The mu-log sum
is sufficient only (Kondratiev and Veron): ``convergent`` means extinction,
``divergent`` means no verdict, so its cells pin what it says today, and it
may say ``convergent`` only where the Dini routes do.  A cell that is wrong
today is a strict xfail that names the ROADMAP item that mends it; a PR that
moves a cell edits this table.
"""

import dataclasses

import pytest

from extinctlab import odi
from family import BASELINE, run_cli

C, D = "convergent", "divergent"

#: each column's reading of a run
COLUMNS = {
    "integral": lambda run: run.results["dini"]["integral_verdict"],
    "series": lambda run: run.results["dini"]["series_verdict"],
    "criterion": lambda run: run.results["spectral"]["spectral_criterion_verdict"],
    "mu-log": lambda run: run.results["spectral"]["mu_log_sum_verdict"],
    "bound": lambda run: run.results["bound"]["verdict"],
    "verify": lambda run: run.codes["verify"],
}

#: per Baseline row, the cells of COLUMNS in order
EXPECTED = {
    "log-power-2": (C, C, C, D, C, 0),
    "log-power-0.5": (D, D, D, D, D, 0),
    "log-power-1": (D, D, D, D, D, 0),
    "constant": (D, D, D, D, D, 0),
    "log-power-1.2": (C, C, C, D, C, 0),
    "log-power-3": (C, C, C, C, C, 0),
    "power-0.5": (C, C, C, D, C, 0),
    "power-1": (C, C, C, C, C, 0),
    "power-1.5": (C, C, C, C, C, 0),
    "log-singular": (D, D, D, D, D, 0),
}

_ITEM_2 = ("ROADMAP item 2: the spectral criterion says convergent on 39 terms "
           "of a mesh not converged in n")
_ITEM_2_VERIFY = "ROADMAP item 2: verify exits 1 on the spectral criterion's wrong verdict"
_ITEM_3 = "ROADMAP item 3: the bound copies the Dini verdict; the rounds do not decide"

#: the cells wrong today, each with the reason its strict xfail gives
WRONG_TODAY = {
    ("log-power-0.5", "criterion"): _ITEM_2,
    ("log-power-1", "criterion"): _ITEM_2,
    ("constant", "criterion"): _ITEM_2,
    ("log-power-0.5", "verify"): _ITEM_2_VERIFY,
    ("log-power-1", "verify"): _ITEM_2_VERIFY,
    ("constant", "verify"): _ITEM_2_VERIFY,
}


def _expected(row, column):
    return EXPECTED[row][list(COLUMNS).index(column)]


def _cell(row, column):
    marks = ([pytest.mark.xfail(strict=True, reason=WRONG_TODAY[row, column])]
             if (row, column) in WRONG_TODAY else [])
    return pytest.param(row, column, marks=marks, id=f"{row}-{column}")


@pytest.mark.parametrize("row,column", [_cell(row, column) for row in EXPECTED
                                        for column in COLUMNS])
def test_cell(cli_runs, row, column):
    assert COLUMNS[column](cli_runs[row]) == _expected(row, column)


def test_wrong_cells_are_cells():
    assert set(WRONG_TODAY) <= {(row, column) for row in EXPECTED for column in COLUMNS}


def test_mu_log_sum_is_one_sided(cli_runs):
    # sufficient only: convergent where the Dini series is convergent
    for row in EXPECTED:
        results = cli_runs[row].results
        if results["spectral"]["mu_log_sum_verdict"] == C:
            assert results["dini"]["series_verdict"] == C, row


def test_table_profile_matches_its_row(cli_runs):
    # omega of log-power beta = 2 sampled into a table reaches every verdict
    # of the log-power-2 row
    table, row = cli_runs["table-log-power-2"], cli_runs["log-power-2"]
    assert {c: read(table) for c, read in COLUMNS.items()} == \
        {c: read(row) for c, read in COLUMNS.items()}


def test_verify_checks_an_extinct_simulate(cli_runs):
    run = cli_runs["power-1.5-horizon-40"]
    assert run.results["simulate"]["verdict"] == "extinct"
    assert run.results["bound"]["simulation_check"]["found"] is True


@pytest.mark.xfail(strict=True, reason=_ITEM_3 + "; verify exits 1 when bound_factor "
                   "times R = 3.9 falls short of T_sim = 9.461")
def test_verify_after_extinct_simulate(cli_runs):
    assert cli_runs["power-1.5-horizon-40"].codes["verify"] == 0


_OPPOSITE = {C: D, D: C}


@pytest.fixture(scope="module")
def forced_bounds(tmp_path_factory):
    """bound on a convergent and a divergent row with every Dini integral's
    verdict turned to the opposite: {row: (forced verdict, results)}."""
    real = odi.dini_integral

    def forced(omega, c):
        quad = real(omega, c)
        return dataclasses.replace(quad, verdict=_OPPOSITE[quad.verdict])

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odi, "dini_integral", forced)
        for row in ("log-power-2", "constant"):
            run = run_cli(tmp_path_factory.mktemp(f"forced-{row}"),
                          {"profile": BASELINE[row]}, ("bound",))
            runs[row] = (_OPPOSITE[_expected(row, "integral")], run.results["bound"])
    return runs


@pytest.mark.parametrize("row", ["log-power-2", "constant"])
def test_forced_dini_verdict_reaches_bound(forced_bounds, row):
    forced, results = forced_bounds[row]
    assert results["dini_verdict"] == forced


@pytest.mark.xfail(strict=True, reason=_ITEM_3)
@pytest.mark.parametrize("row", ["log-power-2", "constant"])
def test_bound_can_disagree_with_dini(forced_bounds, row):
    # the rounds decide: a forced Dini verdict can at most make the bound
    # inconclusive
    forced, results = forced_bounds[row]
    assert results["verdict"] != forced
