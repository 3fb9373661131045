"""Property tests of the IMEX step's invariants over generated states.

Every test is derandomized and keeps no example database, so the suite runs
the same examples each time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from extinctlab.profiles import ConstantPotential, OmegaProfile, PotentialField
from extinctlab.solver import RadialGrid, Stepper

EPS = np.finfo(float).eps
NORMAL_MIN = np.finfo(float).smallest_normal
TINY = np.finfo(float).smallest_subnormal

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def nonnegative_states(draw):
    """(dimension, u): single spikes, subnormal entries next to O(1) ones, or
    a random field, all nonnegative."""
    dimension = draw(st.integers(1, 3))
    n = draw(st.integers(3, 2000))
    kind = draw(st.sampled_from(["spike", "subnormal", "random"]))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    if kind == "spike":
        u = np.zeros(n)
        u[draw(st.integers(0, n - 1))] = 10.0 ** draw(st.floats(-30.0, 30.0))
    elif kind == "subnormal":
        u = rng.uniform(0.5, 2.0, n)
        tiny = rng.rand(n) < draw(st.floats(0.1, 0.9))
        tiny[draw(st.integers(0, n - 1))] = True
        u[tiny] = rng.uniform(0.0, NORMAL_MIN, np.count_nonzero(tiny))
    else:
        u = rng.uniform(0.0, 1.0, n) ** draw(st.floats(0.1, 10.0))
    return dimension, u


log_dt = st.floats(-6.0, 3.0)


class TestPositivity:
    """u >= 0 stays u >= 0 through diffusion and through the whole step.

    The increment form x = u + d does not inherit the M-matrix sign argument
    of a direct solve for x, so this is its guard."""

    @fixed
    @given(nonnegative_states(), log_dt)
    def test_diffuse_keeps_sign(self, state, log10_dt):
        dimension, u = state
        g = RadialGrid.uniform(u.size, dimension=dimension)
        x = Stepper(g, None, 0.5).diffuse(u, 10.0 ** log10_dt)
        assert np.all(x >= 0.0)

    @fixed
    @given(nonnegative_states(), log_dt, st.sampled_from([0.1, 0.5, 0.9]),
           st.sampled_from(["constant", "field"]))
    def test_step_keeps_sign(self, state, log10_dt, q, kind):
        dimension, u = state
        g = RadialGrid.uniform(u.size, dimension=dimension)
        potential = (ConstantPotential(2.0) if kind == "constant"
                     else PotentialField(1.0, OmegaProfile.power(1.0)))
        x = Stepper(g, potential, q).step(u, 10.0 ** log10_dt)
        assert np.all(x >= 0.0)


class TestMassAtZeroAbsorption:
    @fixed
    @given(nonnegative_states(), st.floats(-5.0, -2.0))
    def test_cumulative_drift(self, state, log10_dt):
        # The solve rounds relative to the size of the data, so the drift is
        # measured against sup|u0| times the domain's volume, plus one
        # subnormal spacing per cell and step for data below the normal
        # range.  A direct solve for x = (I + dt V^-1 K)^-1 u drifts by up
        # to ~1.6e4 eps on these examples.  dt stops at 1e-2: beyond it the
        # first step's rounding grows with the condition number of V + dt K
        # and neither solve keeps to this bound.
        dimension, u = state
        g = RadialGrid.uniform(u.size, dimension=dimension)
        stepper = Stepper(g, None, 0.5)
        scale = np.max(u) * g.total_volume
        mass0 = g.integrate(u)
        drift = 0.0
        for _ in range(300):
            u = stepper.step(u, 10.0 ** log10_dt)
            drift = max(drift, abs(g.integrate(u) - mass0))
        assert drift <= 512 * EPS * scale + 300 * u.size * TINY
