"""A deterministic work meter on the README config: how many times each
root solve calls its map, and how many factorizations each ground state
makes.  A slide back to bisection, or a back-off loop in the ground
states, fails here without any timing."""

import numpy as np
import pytest

from extinctlab import odi, profiles, spectral
from extinctlab.solver import lapack
from family import run_cli


@pytest.fixture(scope="module")
def readme_verify_work(tmp_path_factory):
    """(targets, g calls) per root solve and dpttrf calls per ground state
    of one ``verify`` on the README config."""
    solves, factorizations = [], []
    real_solve, real_dpttrf, real_ground_state = (
        profiles.solve_increasing, lapack().dpttrf, spectral.ground_state)

    def solve(g, targets, lo, hi):
        calls = []
        roots = real_solve(lambda x: calls.append(x.size) or g(x), targets, lo, hi)
        solves.append((np.size(targets), len(calls)))
        return roots

    def dpttrf(*args, **kwargs):
        factorizations[-1] += 1
        return real_dpttrf(*args, **kwargs)

    def ground_state(*args, **kwargs):
        factorizations.append(0)
        return real_ground_state(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "solve_increasing", solve)
        mp.setattr(odi, "solve_increasing", solve)
        mp.setattr(lapack(), "dpttrf", dpttrf)
        mp.setattr(spectral, "ground_state", ground_state)
        run = run_cli(tmp_path_factory.mktemp("meter"), {}, ("verify",))
    assert run.codes == {"verify": 0}
    return solves, factorizations


def test_map_calls_per_root_solve(readme_verify_work):
    solves, _ = readme_verify_work
    # a lock-step bisection made 56 and 55, 62 for the 200 rounds at once,
    # and 61, 53 and 62 for the curve
    assert solves == [
        (7, 13), (100, 15),               # rho^-1: the scan, the inverse sandwich
        (32, 20), (64, 14), (104, 12),    # the rounds' radii, chunk by chunk
        (1, 18), (1, 14), (1, 18),        # tau', tau'' and the direct tau'''
    ]


def test_factorizations_per_ground_state(readme_verify_work):
    _, factorizations = readme_verify_work
    # 7 scan points, mu_0..mu_20 and the criterion's n = 2..40: the
    # unshifted start and one Rayleigh shift each, none failed
    assert factorizations == [2] * 67
