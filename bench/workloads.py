"""The benchmark's workloads and the correctness check of one invocation.

Each workload is one committed config under ``workloads/`` (the comment at
its top says why it exists) and the subcommand it runs through.  A check
reads only what the invocation left in its output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "workloads"

# extinction time of the README configuration at n = 2000, dt = 1e-3
EXTINCTION_TIME = 24.821
EXTINCTION_RTOL = 0.01
# largest relative step-to-step mass increase tolerated on simulate-wide
MASS_RISE_RTOL = 1e-12
# exit codes that always mean the invocation failed (usage, numerics)
FAILURE_EXITS = (64, 70)


class CheckFailed(Exception):
    """An invocation produced output the benchmark does not accept."""


def _summary(out: Path, command: str) -> dict:
    path = out / f"summary_{command}.json"
    if not path.is_file():
        raise CheckFailed(f"{path.name} missing")
    return json.loads(path.read_text())


def _check_simulate_extinct(out: Path, code: int) -> dict:
    res = _summary(out, "simulate")["results"]
    t_ext = res.get("extinction_time")
    if res.get("verdict") != "extinct" or t_ext is None:
        raise CheckFailed(f"verdict {res.get('verdict')!r}, expected 'extinct'")
    if abs(t_ext - EXTINCTION_TIME) > EXTINCTION_RTOL * EXTINCTION_TIME:
        raise CheckFailed(f"extinction_time {t_ext} not within 1% of "
                          f"{EXTINCTION_TIME}")
    return {"simulate": res["verdict"]}


def _check_simulate_wide(out: Path, code: int) -> dict:
    res = _summary(out, "simulate")["results"]
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    if not np.all(np.isfinite(traj)):
        raise CheckFailed("non-finite value in trajectory.csv")
    min_u, mass = traj[:, 3], traj[:, 4]
    if np.min(min_u) < 0:
        raise CheckFailed(f"min_u reaches {np.min(min_u)!r} < 0")
    rise = np.diff(mass) - MASS_RISE_RTOL * np.abs(mass[:-1])
    if np.any(rise > 0):
        raise CheckFailed(f"mass increases at step {int(np.argmax(rise > 0)) + 1}")
    return {"simulate": res["verdict"]}


def _check_verify(out: Path, code: int) -> dict:
    if code != 0:
        raise CheckFailed(f"verify exited {code}, expected 0")
    if _summary(out, "verify")["results"].get("coherent") is not True:
        raise CheckFailed("verify reports coherent = false")
    bound = _summary(out, "bound")["results"]
    total = bound.get("total_bound")
    if not isinstance(total, (int, float)) or not math.isfinite(total):
        raise CheckFailed(f"total_bound {total!r} is not finite")
    dini = _summary(out, "dini")["results"]
    spectral = _summary(out, "spectral")["results"]
    return {"dini_integral": dini["integral_verdict"],
            "dini_series": dini["series_verdict"],
            "spectral_criterion": spectral["spectral_criterion_verdict"],
            "mu_log_sum": spectral["mu_log_sum_verdict"],
            "bound": bound["verdict"],
            "verify": "coherent"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    check_output: Callable[[Path, int], dict]

    @property
    def config(self) -> Path:
        return CONFIG_DIR / f"{self.name}.ini"


WORKLOADS = {w.name: w for w in (
    Workload("simulate-extinct", "simulate", _check_simulate_extinct),
    Workload("simulate-wide", "simulate", _check_simulate_wide),
    Workload("verify", "verify", _check_verify),
)}


def check(workload: Workload, out: Path, code: int) -> dict:
    """Raise CheckFailed unless the invocation's output is acceptable.

    Returns the verdict strings, which are recorded but not judged beyond
    the checks here: some verdicts are meant to change over time.
    """
    if code in FAILURE_EXITS:
        raise CheckFailed(f"exit code {code}")
    manifest = _summary(out, workload.command).get("manifest")
    on_disk = sorted(p.name for p in out.iterdir())
    if manifest != on_disk:
        raise CheckFailed(f"manifest {manifest} differs from files {on_disk}")
    return workload.check_output(out, code)


def dir_digest(path: Path) -> str:
    """sha256 over the names and bytes of every file in ``path``."""
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
