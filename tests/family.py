"""The Baseline family of ROADMAP.md and the named configs, as CLI runs.

Each run is the README config with some sections changed, its subcommands
run in one --out through ``cli.main``.  ``tests/conftest.py`` runs them all
once per session (``cli_runs``).
"""

import configparser
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from extinctlab.cli import main
from extinctlab.profiles import OmegaProfile

#: the README run configuration, section by section
README = {
    "profile": {"kind": "log-power", "beta": "2.0", "omega0": "1.0", "delta": "0.5",
                "d0": "1.0"},
    "problem": {"q": "0.5", "dimension": "1", "potential": "profile", "u0": "1.0",
                "cells": "2000", "dt": "1e-3", "horizon": "2.5"},
    "odi": {"y0": "1e-4", "gamma": "1.0", "c0": "1.0"},
    "spectral": {"h_min": "1e-3", "h_max": "1e-1", "h_count": "7", "cells": "3000",
                 "k": "1.0", "n_max": "40", "mu_n_max": "20"},
}


def _log_power(beta: str) -> dict:
    return {**README["profile"], "beta": beta}


def _power(alpha: str) -> dict:
    return {"kind": "power", "alpha": alpha, "omega0": "1.0", "delta": "0.5", "d0": "1.0"}


#: the Baseline family of ROADMAP.md: the README config with [profile] swapped
BASELINE = {
    "log-power-2": _log_power("2.0"),
    "log-power-0.5": _log_power("0.5"),
    "log-power-1": _log_power("1.0"),
    "constant": {"kind": "constant", "omega0": "1.0", "d0": "1.0"},
    "log-power-1.2": _log_power("1.2"),
    "log-power-3": _log_power("3.0"),
    "power-0.5": _power("0.5"),
    "power-1": _power("1.0"),
    "power-1.5": _power("1.5"),
    "log-singular": {"kind": "log-singular", "kappa": "25", "d0": "1.0"},
}

#: named configs, each with the README sections it changes ([profile] whole,
#: the others key by key) and the subcommands it runs in one --out; the
#: comments say which summary field each one moves
NAMED = {
    # bound.clipped_rounds 3: round radii cut to the domain
    "odi-y0-0.5": ({"odi": {"y0": "0.5"}}, ("bound",)),
    # bound.curve.region2_skipped and tau_triple_prime_bumped true
    "region2-skipped": ({"profile": _log_power("0.3"), "odi": {"c0": "0.01"}}, ("bound",)),
    # dini.verdicts_agree null: the series is inconclusive (its b = 1.05 sits
    # on the band's edge, where the integral reads b = 1.05 + 1e-15)
    "log-power-1.05": ({"profile": _log_power("1.05")}, ("dini",)),
    # dini.conditions: slope and minorant fail, and at alpha = 2.5 knee too
    "power-1.8": ({"profile": _power("1.8")}, ("dini",)),
    "power-2.5": ({"profile": _power("2.5")}, ("dini",)),
    # bound.curve.beyond_domain false (the config of
    # test_cli.py::TestBound::test_bumped_final_radius_inside_domain)
    "bumped": ({"profile": _log_power("0.5"), "problem": {"q": "0.3"},
                "odi": {"y0": "1e-8", "c4": "0.01", "c0": "0.01"}}, ("bound",)),
    # simulate.global_estimate_holds null, y0 and extinction_threshold
    "rough-data": ({"problem": {"u0": "random", "dimension": "3", "cells": "300"}},
                   ("simulate",)),
    # the ramp s(tau) = tau^4/omega falls where tau omega'/omega > 4:
    # bound.curve.error, and simulate.fitted_constants.odi_clipped_slopes 6
    # and ramp_falling_rows 31, every row at tau > 0
    "log-power-5": ({"profile": _log_power("5.0")}, ("bound",)),
    "power-5": ({"profile": _power("5.0"), "problem": {"cells": "300"}}, ("simulate",)),
    # runs that go extinct, so that bound checks its total against them:
    # bound.simulation_check.holds false, then true
    "power-1.5-horizon-40": ({"profile": _power("1.5"),
                              "problem": {"cells": "300", "horizon": "40"}},
                             ("simulate", "verify")),
    "power-1.5-u0-0.1": ({"profile": _power("1.5"),
                          "problem": {"u0": "0.1", "cells": "300", "horizon": "40"}},
                         ("simulate", "bound")),
    # omega of log-power beta = 2, then beta = 0.5, sampled into a table
    "table-log-power-2": ({"profile": {"kind": "table", "table": "omega.csv",
                                       "delta": "0.5", "d0": "1.0"}}, ("verify",)),
    "table-log-power-0.5": ({"profile": {"kind": "table", "table": "omega-log-power-0.5.csv",
                                         "delta": "0.5", "d0": "1.0"}}, ("verify",)),
}

#: every run: each Baseline row (simulate at 500 cells, then verify in the
#: same --out), then each named config
RUNS = {name: ({"profile": profile, "problem": {"cells": "500"}}, ("simulate", "verify"))
        for name, profile in BASELINE.items()} | NAMED

#: the abscissae of the table profiles' files
TABLE_S = np.geomspace(1e-12, 1.0, 400)

#: each table file of NAMED and the profile it samples at TABLE_S
TABLES = {"omega.csv": OmegaProfile.log_power(2.0),
          "omega-log-power-0.5.csv": OmegaProfile.log_power(0.5)}


@dataclass(frozen=True)
class CliRun:
    config: Path     # the run.ini it ran on
    codes: dict      # subcommand: exit code
    results: dict    # subcommand: the results block of its summary


def run_cli(directory: Path, changes: dict, commands) -> CliRun:
    """The README config with ``changes``, each subcommand of ``commands``
    run on it through ``cli.main`` in one --out under ``directory``."""
    sections = {name: {**keys, **changes.get(name, {})} for name, keys in README.items()}
    sections["profile"] = changes.get("profile", README["profile"])
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    config = directory / "run.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    if sections["profile"]["kind"] == "table":
        name = sections["profile"]["table"]
        w = TABLES[name].omega(TABLE_S)
        np.savetxt(directory / name, np.column_stack([TABLE_S, w]), delimiter=",")
    out = directory / "out"
    codes = {c: int(main([c, "--config", str(config), "--out", str(out)])) for c in commands}
    results = {p.stem.removeprefix("summary_"): json.loads(p.read_text())["results"]
               for p in sorted(out.glob("summary_*.json"))}
    return CliRun(config, codes, results)
