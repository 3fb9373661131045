import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from extinctlab.profiles import OmegaProfile, PotentialField
from extinctlab.solver import FluxOperator, ProblemSpec, run
from family import RUNS, CliRun, run_cli


def _restricted_smallest(grid, potential, log_h, cut=1e20):
    """Reference ground-state value: Sturm bisection to full precision on
    the leading rows of the symmetrized matrix, up to the first cell where
    the scaled potential exceeds ``cut`` (past it, for a potential
    increasing in r, the ground state vanishes; cuts at 1e14, 1e20 and 1e40
    agree to 10 digits).  On the whole matrix, whose entries reach exp(700),
    a dense solve or a bisection to eps ||T|| returns noise."""
    V = np.exp(np.minimum(potential.log_a(grid.centers) - 2.0 * log_h, 700.0))
    d, e = FluxOperator(grid).symmetric(V)
    m = int(np.argmax(V > cut)) or d.size
    return float(eigh_tridiagonal(d[:m], e[:m - 1], eigvals_only=True, select="i",
                                  select_range=(0, 0), tol=1e-300)[0])


@pytest.fixture(scope="session")
def restricted_smallest():
    return _restricted_smallest


@pytest.fixture(scope="session")
def omega_r_potential():
    """a(r) = exp(-1/r): the reference extinction potential."""
    return PotentialField(1.0, OmegaProfile.power(1.0))


@pytest.fixture(scope="session")
def rise_fall_potential():
    """Table profile whose potential rises, then falls: omega(s)/s^2 is 1/s
    below s = 0.3 and s/0.3 above, so a peaks near r = 0.3."""
    s = np.geomspace(1e-3, 1.0, 60)
    w = np.where(s < 0.3, s, 0.3 * (s / 0.3) ** 3)
    return PotentialField(1.0, OmegaProfile.from_table(s, w))


@pytest.fixture(scope="session")
def omega_r_run(omega_r_potential):
    """Shared extinction run with the exp(-1/r) potential (u0 = 1)."""
    spec = ProblemSpec(q=0.5, potential=omega_r_potential, u0=1.0, cells=1000,
                       dt=2e-3, horizon=30.0, snapshot_every=25)
    return run(spec), omega_r_potential


@pytest.fixture(scope="session")
def omega_r_small_run(omega_r_potential):
    """Same potential, small data: the dominating curve bends inside the ball."""
    spec = ProblemSpec(q=0.5, potential=omega_r_potential, u0=0.05, cells=1000,
                       dt=1e-3, horizon=10.0, snapshot_every=25)
    return run(spec), omega_r_potential


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory) -> dict[str, CliRun]:
    """Every Baseline row and named config of tests/family.py, each run once:
    the runs that tests/test_summary_scan.py and tests/test_verdict_matrix.py
    read."""
    return {name: run_cli(tmp_path_factory.mktemp(name), changes, commands)
            for name, (changes, commands) in RUNS.items()}
