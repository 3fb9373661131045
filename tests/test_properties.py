"""Property tests over generated inputs: the IMEX step's invariants, the
log-space quadrature rule against a high-precision oracle, ground states
against a full-precision reference and their monotonicity in h, the tail
fit's least-squares slope against a 50-digit one, its in-place form
against it bit for bit, the Dini integral against its closed forms and the
verdicts on either side of beta = 1, and log-power omega's unmasked path
against its masked one, bit for bit.

Every test is derandomized and keeps no example database, so the suite runs
the same examples each time.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extinctlab.analysis import (
    _slope_into, dini_integral, dini_series, log_segment_integrals)
from extinctlab.profiles import ConstantPotential, OmegaProfile, PotentialField
from extinctlab.solver import RadialGrid, Stepper
from extinctlab.spectral import ground_state, spectral_criterion_series
from oracles import total_volume

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
        x = Stepper(g, None, 0.5, 10.0 ** log10_dt).diffuse(u)
        assert np.all(x >= 0.0)

    @fixed
    @given(nonnegative_states(), log_dt, st.sampled_from([0.1, 0.5, 0.9]),
           st.sampled_from(["constant", "field"]))
    def test_step_keeps_sign(self, state, log10_dt, q, kind):
        dimension, u = state
        g = RadialGrid.uniform(u.size, dimension=dimension)
        potential = (ConstantPotential(2.0) if kind == "constant"
                     else PotentialField(1.0, OmegaProfile.power(1.0)))
        x = Stepper(g, potential, q, 10.0 ** log10_dt).step(u)
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
        stepper = Stepper(g, None, 0.5, 10.0 ** log10_dt)
        scale = np.max(u) * total_volume(g)
        mass0 = g.integrate(u)
        drift = 0.0
        for _ in range(300):
            u = stepper.step(u)
            drift = max(drift, abs(g.integrate(u) - mass0))
        assert drift <= 512 * EPS * scale + 300 * u.size * TINY


@st.composite
def log_space_integrands(draw):
    """(c, m, A, knots) for logf = c + m ln s - A/s^2 on one to three geometric
    segments.  The offset c puts exp(logf) far outside double range; A is set
    so that logf varies by at most 100 + 4 ln 2 over any one segment (the
    first segment, nearest 0, is the steepest)."""
    c = draw(st.floats(-3000.0, 3000.0))
    m = draw(st.floats(-4.0, 4.0))
    knots = math.exp(draw(st.floats(-6.0, 0.0))) \
        * draw(st.floats(1.05, 2.0)) ** np.arange(draw(st.integers(2, 4)))
    A = draw(st.floats(0.0, 100.0)) / (knots[0] ** -2 - knots[1] ** -2)
    return c, m, A, knots


def mpmath_log_integral(c, m, A, lo, hi):
    """ln of the integral of exp(c + m ln s - A/s^2) over [lo, hi], by
    tanh-sinh quadrature at 30 digits on eight subintervals, with the
    integrand scaled to its larger end value so that it is O(1) and not
    cut off by mpmath's absolute thresholds.  Returns (log, relative error
    estimate)."""
    with mpmath.workdps(30):
        def log_f(s):
            return c + m * mpmath.log(s) - A / s**2

        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        shift = max(log_f(lo), log_f(hi))
        value, error = mpmath.quad(lambda s: mpmath.exp(log_f(s) - shift),
                                   mpmath.linspace(lo, hi, 9), error=True)
        return float(shift + mpmath.log(value)), float(error / value)


class TestLogSegmentOracle:
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(log_space_integrands())
    def test_matches_mpmath(self, case):
        # Tolerance: 1e-13 in the log (a relative 1e-13 in the integral) is
        # five times the 32-point rule's error on an exponential that varies
        # by 100 over the segment, about 2e-14, most of it the rounding of
        # the tabulated nodes and weights.  Each node value c + m ln s - A/s^2
        # also carries a few ulps of its largest term, which shift the log
        # by as much; 8 ulps of that term are allowed on top.  The 16-point
        # rule is off by 1e-9 to 1e-3 at variations of 40 to 100, and an
        # unshifted sum overflows or underflows for |c| > 709.
        c, m, A, knots = case
        got = log_segment_integrals(lambda s: c + m * np.log(s) - A / s**2, knots)
        for lo, hi, log_rule in zip(knots[:-1], knots[1:], got):
            log_ref, rel_err = mpmath_log_integral(c, m, A, lo, hi)
            assert rel_err < 1e-20
            largest = abs(c) + abs(m * math.log(lo)) + A / lo**2
            assert abs(log_rule - log_ref) <= 1e-13 + 8 * EPS * largest


@st.composite
def criterion_potentials(draw, alpha_max=1.9):
    """a = exp(-omega(r)/r^2) for power, log-power and constant omega."""
    kind = draw(st.sampled_from(["power", "log-power", "constant"]))
    if kind == "power":
        omega = OmegaProfile.power(draw(st.floats(0.5, alpha_max)))
    elif kind == "log-power":
        omega = OmegaProfile.log_power(draw(st.floats(0.5, 3.0)))
    else:
        omega = OmegaProfile.constant(1.0)
    return PotentialField(1.0, omega)


class TestGroundStateInH:
    """lambda1(h) is nonincreasing in h.  The criterion samples it at
    ln h = (1 - q)/2 ln alpha_n, alpha_n = n^(-n) (q = 1/2, K = 1), so mu
    must not decrease in n.  Deep in n the potential clamps at exp(700) on
    most of the mesh; an iteration that took its convergence floor from
    max |diag| (about 1e304 there) accepted its first iterate, about 20%
    high, and broke both properties."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(criterion_potentials(alpha_max=1.6), st.integers(2, 40))
    def test_matches_restricted_reference(self, restricted_smallest, potential, n):
        # Power alpha stops at 1.6 (worst 1.8e-9 over n = 2..40 there).  From
        # alpha ~ 1.65 on, the knee-graded mesh puts cells 1e-10 wide where
        # the ground state is not small; the reference bisection and then
        # the iteration lose digits there (see the strict xfail in
        # test_spectral.py).
        log_h = -0.25 * n * math.log(n)
        gs = ground_state(potential, log_h, cells=2000)
        ref = restricted_smallest(gs.grid, potential, log_h)
        assert abs(gs.value - ref) <= 1e-8 * ref

    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(criterion_potentials())
    def test_criterion_mu_nondecreasing_in_n(self, potential):
        mu = spectral_criterion_series(potential, n_range=(2, 40), cells=2000).mu
        assert np.all(np.diff(mu) >= 0.0)


def mpmath_slope(x, y):
    """Least-squares slope of y against x at 50 digits, from the exact
    binary values of the doubles."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in x]
        ys = [mpmath.mpf(float(v)) for v in y]
        mx, my = mpmath.fsum(xs) / len(xs), mpmath.fsum(ys) / len(ys)
        sxy = mpmath.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
        sxx = mpmath.fsum((a - mx) ** 2 for a in xs)
        syy = mpmath.fsum((b - my) ** 2 for b in ys)
        return float(sxy / sxx), float(mpmath.sqrt(syy / sxx))


@st.composite
def line_fits(draw):
    """(x, y): ascending x at a random offset and span, y a line plus noise,
    covering the ranges the tail fits see (ln n up to ~14, ln t down to ~-40)."""
    n = draw(st.integers(2, 300))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.floats(-20.0, 20.0)) + np.sort(rng.uniform(0.0, 1.0, n)) \
        * 10.0 ** draw(st.floats(-3.0, 2.0))
    y = draw(st.floats(-50.0, 50.0)) + draw(st.floats(-5.0, 5.0)) * x \
        + draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0])) * rng.standard_normal(n)
    return x, y


class TestSlopeOracle:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(line_fits())
    def test_matches_mpmath(self, fit):
        x, y = fit
        assume(x[0] != x[-1])
        # Scale: the slope, the scatter sqrt(Syy/Sxx), and max|y|/std(x), the
        # slope that rounding y's mean alone can leave on a flat y.
        got = _slope_into(x.copy(), y.copy())
        ref, spread = mpmath_slope(x, y)
        scale = max(abs(ref), spread, np.max(np.abs(y)) / np.std(x))
        assert abs(got - ref) <= 1e-14 * scale


log_c = st.floats(math.log(1e-4), -1.0)   # c in [1e-4, 1/e]


class TestDiniIntegralClosedForms:
    """The endpoint integral of omega(s)/s over (0, c) where it has a closed
    form: c^alpha/alpha for power alpha, and ln(1/c)^(1-beta)/(beta-1) for
    log-power beta, whose cap is not reached for c <= 1/e."""

    @fixed
    @given(st.floats(0.1, 1.95), log_c)
    def test_power(self, alpha, ln_c):
        c = math.exp(ln_c)
        res = dini_integral(OmegaProfile.power(alpha), c)
        assert res.verdict == "convergent"
        assert res.value == pytest.approx(c**alpha / alpha, rel=1e-6)

    @fixed
    @given(st.floats(1.2, 4.0), log_c)
    def test_log_power(self, beta, ln_c):
        c = math.exp(ln_c)
        res = dini_integral(OmegaProfile.log_power(beta), c)
        assert res.verdict == "convergent"
        assert res.value == pytest.approx((-ln_c) ** (1.0 - beta) / (beta - 1.0), rel=1e-6)


def dini_verdicts(beta):
    omega = OmegaProfile.log_power(beta)
    return dini_integral(omega, math.exp(-1.0)).verdict, dini_series(omega).verdict


class TestDiniVerdicts:
    """Both Dini routes on log-power beta: the integral diverges for
    beta <= 1 and converges above.  From beta = 1.2 on both routes must say
    so; in between "inconclusive" is allowed, but "divergent" is wrong."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=8)
    @given(st.floats(0.1, 1.0))
    def test_divergent_up_to_one(self, beta):
        assert dini_verdicts(beta) == ("divergent", "divergent")

    @settings(derandomize=True, database=None, deadline=None, max_examples=8)
    @given(st.floats(1.2, 4.0))
    def test_convergent_from_one_point_two(self, beta):
        assert dini_verdicts(beta) == ("convergent", "convergent")

    @pytest.mark.xfail(strict=True, reason="both routes call beta = 1.03 divergent: "
                       "the integral's window ratio 2^(1-beta) stays above the 0.97 "
                       "threshold for 20 windows (beta up to 1.044), and the series' "
                       "fitted log factor stays below 0.95 (beta up to at least 1.05)")
    @pytest.mark.parametrize("route", [0, 1], ids=["integral", "series"])
    def test_convergent_just_above_one(self, route):
        # exact integral over (0, 1/e) at beta = 1.03: 1/0.03 = 33.3
        assert dini_verdicts(1.03)[route] != "divergent"


# s in (0, 1) near both ends, and every s outside it that log-power omega
# treats apart: zeros, s >= 1 and NaN
uncapped_s = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([TINY, 1e-310, NORMAL_MIN, 1e-300, np.nextafter(1.0, 0.0)]))
other_s = st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 2.0, np.inf, np.nan])


class TestLogPowerUnmasked:
    """Log-power omega skips its masks when every s lies in (0, 1).  An
    array holding s outside (0, 1) takes the masked path; its elements in
    (0, 1) must carry the same bits as the same s evaluated on their own,
    unmasked, and as each s passed alone as a scalar."""

    @fixed
    @given(st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([0.3, 1.0]),
           st.lists(uncapped_s, min_size=1, max_size=60),
           st.lists(other_s, min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_unmasked_equals_masked(self, beta, omega0, inside, outside, rnd):
        prof = OmegaProfile.log_power(beta, omega0=omega0)
        mixed = inside + outside
        rnd.shuffle(mixed)
        s = np.array(mixed)
        uncapped = (s > 0) & (s < 1)
        masked = prof.omega(s)
        assert np.array_equal(masked[uncapped], prof.omega(s[uncapped]))
        assert np.array_equal(masked, [prof.omega(x) for x in mixed], equal_nan=True)
