import math
import warnings

import mpmath
import numpy as np
import pytest

from extinctlab.profiles import (
    ConstantPotential,
    MonotonicityError,
    OmegaProfile,
    PotentialField,
    ProfileError,
    build_rho_map,
    check_conditions,
    solve_increasing,
)
from oracles import (
    all_passed,
    claims,
    condition,
    passed,
    r_of_z,
    r_of_z_in_r,
    rho,
    rho_inv_in_r,
    z_range,
)


class TestConditions:
    def test_linear_power_slope_is_exact(self):
        # s*omega'/omega == alpha identically for the power kind
        prof = OmegaProfile.power(alpha=1.0, delta=0.9)
        rep = check_conditions(prof)
        assert passed(rep, "slope")
        s = np.geomspace(1e-6, 0.9, 50)
        ratio = -prof.log_omega(-np.log(s))[1]   # s omega'/omega = -d ln omega/du
        assert np.all(ratio == 1.0)

    def test_log_power_beta2_passes_everything(self):
        prof = OmegaProfile.log_power(beta=2.0)
        rep = check_conditions(prof)
        assert all_passed(rep)

    def test_cubic_power_fails_slope(self):
        # s*omega'/omega == 3 > 2 - delta for any delta > 0
        prof = OmegaProfile.power(alpha=3.0, delta=0.1)
        rep = check_conditions(prof)
        assert not passed(rep, "slope")
        assert condition(rep, "slope").witness_s is not None

    def test_constant_profile_fails_origin(self):
        rep = check_conditions(OmegaProfile.constant(omega0=0.7))
        assert not passed(rep, "origin")
        assert passed(rep, "monotone") and passed(rep, "bounded")

    def test_log_singular_unbounded_and_decreasing(self):
        rep = check_conditions(OmegaProfile.log_singular())
        assert not passed(rep, "bounded")
        assert not passed(rep, "monotone")
        assert passed(rep, "knee")

    def test_claims_match_checks(self):
        for prof in [OmegaProfile.power(0.5), OmegaProfile.power(1.0),
                     OmegaProfile.power(1.5), OmegaProfile.log_power(2.0),
                     OmegaProfile.log_power(3.0), OmegaProfile.constant(),
                     OmegaProfile.log_singular()]:
            rep = check_conditions(prof)
            for name in claims(prof):
                assert passed(rep, name), (prof.kind, name)

    def test_integrated_slope_bound(self):
        # integrating the slope condition gives omega(s) >= s^{2-d} * omega(s0)/s0^{2-d}
        prof = OmegaProfile.log_power(2.0, delta=0.5)
        s0 = prof.s0
        grid = np.geomspace(s0 * 1e-6, s0, 200)
        floor = grid ** 1.5 * prof.omega(s0) / s0**1.5
        assert np.all(prof.omega(grid) >= floor * (1 - 1e-12))


class TestPotential:
    def test_quadratic_omega_unit_radius(self):
        # omega(r) = r^2 => exponent -1 at r = 1
        prof = OmegaProfile.power(alpha=2.0, omega0=10.0)
        field = PotentialField(1.0, prof)
        assert field.a(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_constant_omega_vanishes_at_origin(self):
        field = PotentialField(1.0, OmegaProfile.constant(omega0=2.0))
        assert field.a(0.0) == 0.0
        assert field.a(1e-3) == 0.0  # exponent -2e6: exp underflows

    def test_linear_omega_spot_value(self):
        field = PotentialField(2.0, OmegaProfile.power(1.0))
        assert field.a(0.5) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_negative_radius_rejected(self):
        field = PotentialField(1.0, OmegaProfile.power(1.0))
        with pytest.raises(ProfileError):
            field.a(-0.1)

    def test_monotone_when_slope_condition_holds(self):
        for prof in [OmegaProfile.power(1.0), OmegaProfile.log_power(2.0)]:
            field = PotentialField(1.0, prof)
            r = np.geomspace(1e-4, 1.0, 300)
            a = field.a(r)
            assert np.all(np.diff(a) >= -1e-15)

    def test_log_a_exact_below_underflow(self):
        # ln a = ln d0 - omega(r)/r^2 is about -1424 here, far below the
        # exponent where exp underflows; only a() rounds to zero
        field = PotentialField(2.0, OmegaProfile.log_power(2.0))
        r = 0.005
        expected = math.log(2.0) - field.omega.omega(r) / r**2
        assert expected < -1400.0
        assert field.log_a(r) == expected
        assert np.array_equal(field.log_a(np.array([r])), [expected])
        assert field.a(r) == 0.0

    def test_finite_origin_limit(self):
        # omega(r) = r^3 (capped): omega/r^2 -> 0, so a(0) = d0
        prof = OmegaProfile.power(alpha=3.0, omega0=5.0)
        field = PotentialField(0.7, prof)
        assert field.a(0.0) == pytest.approx(0.7, rel=1e-6)


SCALAR_PROFILES = [
    OmegaProfile.power(0.5), OmegaProfile.power(1.0, omega0=1e-3),
    OmegaProfile.power(2.0), OmegaProfile.power(3.0, omega0=5.0),
    OmegaProfile.log_power(0.5), OmegaProfile.log_power(1.0),
    OmegaProfile.log_power(2.0), OmegaProfile.log_power(2.0, omega0=3.0),
    OmegaProfile.log_power(3.0), OmegaProfile.log_power(25.0),
    OmegaProfile.constant(omega0=0.7), OmegaProfile.log_singular(kappa=2.0),
    OmegaProfile.from_table(np.geomspace(1e-3, 0.8, 12), np.geomspace(1e-3, 0.8, 12) ** 0.5),
]


def scalar_probe_points(prof) -> np.ndarray:
    """exp(U(-700, 1)) samples, a denser band around s = 1 (where libm's log
    and numpy's array log round differently most often) and the edges of
    every branch of omega."""
    rng = np.random.default_rng(11)
    edges = [0.0, 1.0, np.nextafter(1.0, 0.0), prof.s0, math.exp(-1.0),
             np.nextafter(math.exp(-1.0), 1.0), 0.5, 0.9, 2.0, 1e300,
             5e-324, np.inf, np.nan]
    if prof.kind == "table":
        s = prof.table_s
        edges += list(s) + [0.5 * s[0], 2.0 * s[-1]]
    return np.concatenate([np.exp(rng.uniform(-700.0, 1.0, 3000)),
                           np.exp(rng.uniform(-1.0, 1.0, 1000)), edges])


_LINEAR_S = np.geomspace(1e-3, 0.5, 12)


def _closed_form(prof, u):
    """(ln omega, d ln omega/du) of ``prof`` at u = ln(1/s), 50 digits.  The
    table is sampled from omega = s, which its monotone cubic reproduces."""
    with mpmath.workdps(50):
        u, log_w0 = mpmath.mpf(u), mpmath.log(prof.omega0)
        if prof.kind == "power":
            free = -prof.alpha * u
            return (free, -prof.alpha) if free <= log_w0 else (log_w0, 0.0)
        if prof.kind == "log-power":
            free = -prof.beta * mpmath.log(u) if u > 0 else mpmath.inf
            return (free, -prof.beta / u) if free <= log_w0 else (log_w0, 0.0)
        if prof.kind == "constant":
            return log_w0, 0.0
        if prof.kind == "log-singular":
            return (mpmath.log(prof.kappa * u), 1 / u) if u > 0 else (-mpmath.inf, 0.0)
        u_last = -mpmath.log(_LINEAR_S[-1])
        return (-u, -1.0) if u >= u_last else (-u_last, 0.0)


def _side(x, rel=1e-9):
    """Points just below and just above x."""
    return [x - rel * max(abs(x), 1.0), x + rel * max(abs(x), 1.0)]


# each kind with the u on either side of its caps, at u <= 0, and far past
# the u where omega itself underflows (745/alpha for a power)
_PRIMITIVE_POINTS = [
    pytest.param(OmegaProfile.power(1.0, omega0=2.0),
                 [*_side(-math.log(2.0)), 0.0, -5.0, 1.0, 744.0, 1000.0, 1e300], id="power"),
    pytest.param(OmegaProfile.log_power(2.0),
                 [*_side(1.0), 0.0, -3.0, 1e-300, 10.0, 1000.0, 1e300], id="log-power"),
    pytest.param(OmegaProfile.constant(omega0=0.7), [0.0, -2.0, 1.0, 1000.0, 1e300],
                 id="constant"),
    pytest.param(OmegaProfile.log_singular(), [*_side(0.0), 0.0, -2.0, 1e-300, 1000.0, 1e300],
                 id="log-singular"),
    pytest.param(OmegaProfile.from_table(_LINEAR_S, _LINEAR_S),
                 [*_side(-math.log(_LINEAR_S[-1])), *_side(-math.log(_LINEAR_S[0])), 0.0, -2.0,
                  3.0, 1000.0, 1e300], id="table"),
]


class TestLogOmega:
    """OmegaProfile.log_omega, the one per-kind statement of omega, against
    closed forms at 50 digits."""

    @pytest.mark.parametrize("prof, points", _PRIMITIVE_POINTS)
    def test_matches_closed_form(self, prof, points):
        u = np.array(points)
        log_w, d = prof.log_omega(u)
        for x, got_log_w, got_d in zip(points, log_w.tolist(), d.tolist()):
            want_log_w, want_d = (float(v) for v in _closed_form(prof, x))
            if math.isinf(want_log_w):
                assert got_log_w == want_log_w, x
            else:
                assert got_log_w == pytest.approx(want_log_w, rel=1e-14, abs=1e-14), x
            assert got_d == pytest.approx(want_d, rel=1e-12, abs=1e-15), x
        # omega is its exp at u = -ln s, the same bits as a scalar and in an array
        s = np.exp(-u)
        assert np.array_equal([prof.omega(float(x)) for x in s], prof.omega(s))


class TestFastPaths:
    @pytest.mark.parametrize("prof", SCALAR_PROFILES,
                             ids=lambda p: f"{p.kind}-{p.alpha}-{p.beta}-{p.omega0}")
    def test_scalar_equals_array_element(self, prof):
        xs = scalar_probe_points(prof)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no overflow or divide warning leaks
            scalars = [prof.omega(float(x)) for x in xs]
            zero_d = [prof.omega(np.asarray(x)) for x in xs[::50]]
        assert all(type(w) is float for w in scalars + zero_d)
        assert np.array_equal(scalars, prof.omega(xs), equal_nan=True)
        assert np.array_equal(zero_d, scalars[::50], equal_nan=True)

    @pytest.mark.parametrize("prof", SCALAR_PROFILES[::4], ids=lambda p: p.kind)
    def test_negative_scalar_rejected(self, prof):
        with pytest.raises(ProfileError):
            prof.omega(-1e-300)

    def test_origin_log_only_where_r_is_zero(self, monkeypatch):
        field = PotentialField(0.7, OmegaProfile.power(alpha=3.0, omega0=5.0))
        origin = field._origin_log()
        calls = []
        real = PotentialField._origin_log

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(PotentialField, "_origin_log", counted)
        r = np.array([0.0, 0.3, 0.0, 1.0])
        out = field.log_a(r)
        assert out[0] == out[2] == origin
        assert np.array_equal(out[[1, 3]], field.log_a(r[[1, 3]]))
        assert len(calls) == 1
        field.log_a(np.geomspace(1e-6, 1.0, 50))
        field.log_a(0.5)
        assert len(calls) == 1
        assert field.log_a(0.0) == origin
        assert len(calls) == 2


class TestRhoMap:
    def test_closed_form_linear_omega(self):
        # a(r) = exp(-1/r): r(z) = 1/ln(1/z), rho(z) = z/ln(1/z)^2
        field = PotentialField(1.0, OmegaProfile.power(1.0))
        rmap = build_rho_map(field)
        z = math.exp(-2.0)
        assert r_of_z(rmap, z) == pytest.approx(0.5, rel=1e-10)
        assert rho(rmap, z) == pytest.approx(math.exp(-2.0) / 4.0, rel=1e-10)

    def test_inversion_identity(self):
        field = PotentialField(1.0, OmegaProfile.log_power(2.0))
        rmap = build_rho_map(field)
        rng = np.random.RandomState(42)
        z = np.exp(rng.uniform(math.log(1e-12), math.log(1e-4), size=100))
        back = rmap.rho_inv(rho(rmap, z))
        assert np.all(np.abs(back / z - 1.0) < 1e-8)

    def test_a_of_r_of_z_identity(self):
        field = PotentialField(1.0, OmegaProfile.log_power(2.0))
        rmap = build_rho_map(field)
        z_min, z_max = z_range(rmap)
        z = np.geomspace(z_min * 1.01, z_max * 0.99, 64)
        a_back = field.a(r_of_z(rmap, z))
        assert np.all(np.abs(a_back / z - 1.0) < 1e-8)

    def test_rho_monotone(self):
        field = PotentialField(1.0, OmegaProfile.log_power(2.0))
        rmap = build_rho_map(field)
        assert np.all(np.diff(rho(rmap, np.geomspace(*z_range(rmap), 200))) > 0)

    def test_rising_part_of_rise_fall_potential(self, rise_fall_potential):
        rmap = build_rho_map(rise_fall_potential)
        assert rmap.r_lo == pytest.approx(2.69e-3, rel=1e-3)
        assert rmap.r_hi == pytest.approx(0.30752, rel=1e-5)
        z = np.geomspace(*z_range(rmap), 200)
        a_back = rise_fall_potential.a(r_of_z(rmap, z))
        assert np.all(np.abs(a_back / z - 1.0) < 1e-8)

    def test_falling_potential_not_invertible(self):
        # alpha = 3: ln a = -r falls from the first probe on
        with pytest.raises(MonotonicityError):
            build_rho_map(PotentialField(1.0, OmegaProfile.power(3.0)))

    def test_constant_potential_not_invertible(self):
        with pytest.raises(MonotonicityError):
            build_rho_map(ConstantPotential(1.0))

    # the profiles of the bound-coherence acceptance family
    @pytest.mark.parametrize("prof", [
        OmegaProfile.power(0.5), OmegaProfile.power(1.0), OmegaProfile.power(1.5),
        OmegaProfile.log_power(0.5), OmegaProfile.log_power(1.0),
        OmegaProfile.log_power(1.5), OmegaProfile.log_power(2.0),
        OmegaProfile.log_power(3.0), OmegaProfile.constant(omega0=1.0),
    ], ids=lambda p: {"power": f"power-{p.alpha}", "log-power": f"log-power-{p.beta}"}.get(
        p.kind, p.kind))
    def test_batched_query_equals_scalar_queries(self, prof):
        # each target stops on its own test: a target bisected on after it
        # converged moved by up to 1.1e-14, relative
        rmap = build_rho_map(PotentialField(1.0, prof))
        s = np.clip(np.geomspace(1e-12, 1e-6, 40), rmap.rho_min, rmap.rho_max)
        assert np.array_equal(rmap.rho_inv(s), [rmap.rho_inv(float(x)) for x in s])
        z = np.geomspace(*z_range(rmap), 20)
        assert np.array_equal(r_of_z(rmap, z), [r_of_z(rmap, float(x)) for x in z])

    def test_out_of_range_argument_raises(self):
        rmap = build_rho_map(PotentialField(1.0, OmegaProfile.log_power(2.0)))
        with pytest.raises(MonotonicityError):
            rmap.rho_inv(rmap.rho_max * 10.0)


# the profiles of the bound-coherence acceptance family, and the rise-fall
# potential's table profile
_MAP_PROFILES = [pytest.param(OmegaProfile.power(a), id=f"power-{a}") for a in (0.5, 1.0, 1.5)] \
    + [pytest.param(OmegaProfile.log_power(b), id=f"log-power-{b}")
       for b in (0.5, 1.0, 1.5, 2.0, 3.0)] \
    + [pytest.param(OmegaProfile.constant(omega0=1.0), id="constant"),
       pytest.param(None, id="rise-fall")]


class TestRhoMapBisection:
    """The rho map bisects in ln r until the midpoint rounds onto an end of
    its bracket, with no tolerance and no pass cap."""

    @pytest.mark.parametrize("prof", _MAP_PROFILES)
    def test_agrees_with_bisection_in_r(self, prof, rise_fall_potential):
        # the bisection in r stopped at a 1e-15 relative width, after at most
        # 200 passes; rho^-1 amplifies the last bit of ln r by d ln a / d ln r
        rmap = build_rho_map(rise_fall_potential if prof is None
                             else PotentialField(1.0, prof))
        s = np.clip(np.geomspace(1e-12, 1e-6, 40), rmap.rho_min, rmap.rho_max)
        np.testing.assert_allclose(rmap.rho_inv(s), rho_inv_in_r(rmap, s), rtol=5e-14)
        z = np.geomspace(*z_range(rmap), 20)
        np.testing.assert_allclose(r_of_z(rmap, z), r_of_z_in_r(rmap, z), rtol=5e-14)

    def test_z_to_rounding_near_rho_min(self):
        # z = s / r^2 at the root r: the last bit of ln r moves z by 2 ulp,
        # where a(r) would scale it by d ln a / d ln r (up to about 750)
        rmap = build_rho_map(PotentialField(1.0, OmegaProfile.log_power(2.0)))
        for s in (1e-150, 1e-100, 1e-40, 1e-12):
            with mpmath.workdps(50):
                ls = mpmath.log(mpmath.mpf(s))
                # ln a(r) + 2 ln r = ln s in x = ln r, below the cap at 1/e
                x = mpmath.findroot(lambda x: -(-x) ** -2 * mpmath.exp(-2 * x) + 2 * x - ls,
                                    (mpmath.log(rmap.r_lo), mpmath.mpf(-1)), solver="anderson")
                z = float(mpmath.mpf(s) / mpmath.exp(2 * x))
            assert abs(rmap.rho_inv(s) / z - 1.0) < 2e-15

    @pytest.mark.parametrize("prof", [OmegaProfile.log_power(2.0), OmegaProfile.power(1.0)],
                             ids=["log-power", "power"])
    def test_ends_within_128_passes(self, prof, monkeypatch):
        # a root near ln r_lo (-4.4, -5.9) ends in about 53 passes, one near
        # the top end ln r_hi = 0 in about 110: the bits of ln r shrink there
        rmap = build_rho_map(PotentialField(1.0, prof))
        s = np.clip(np.geomspace(1e-12, 1e-6, 100), rmap.rho_min, rmap.rho_max)
        calls = []
        log_a = PotentialField.log_a
        monkeypatch.setattr(PotentialField, "log_a",
                            lambda self, r: calls.append(r) or log_a(self, r))
        z_min, z_max = z_range(rmap)
        z_s = rmap.rho_inv(s)

        def r_of(z):
            return r_of_z(rmap, z)

        queries = [(r_of, z_min), (r_of, z_max),
                   (r_of, z_s),   # the r(z) bracket's query
                   (rmap.rho_inv, rmap.rho_min), (rmap.rho_inv, rmap.rho_max),
                   (rmap.rho_inv, s)]
        for query, arg in queries:
            calls.clear()
            query(arg)
            # r_of_z evaluates ln a once more, for its range
            assert len(calls) - 1 <= 128


def lock_step_bisection(g, targets, lo, hi) -> np.ndarray:
    """The reference root finder: every target bisected in lock-step until
    its midpoint rounds onto an end of its bracket."""
    targets = np.asarray(targets, dtype=float)
    flat = targets.ravel()
    los, his = np.full(flat.size, float(lo)), np.full(flat.size, float(hi))
    while (open_ := (los < (mids := 0.5 * (los + his))) & (mids < his)).any():
        k = np.flatnonzero(open_)
        up = g(mids[k]) >= flat[k]
        his[k[up]] = mids[k[up]]
        los[k[~up]] = mids[k[~up]]
    return mids.reshape(targets.shape)


def _rounds_g(xs):
    """The rounds' map ln(tau^2/omega(tau)) in x = ln tau, log-power beta = 2."""
    w = OmegaProfile.log_power(2.0).omega(np.exp(xs))
    return 2.0 * xs - np.log(w)


def _readme_rho_g(xs):
    """ln rho = ln a(r) + 2 ln r in x = ln r on the README potential."""
    return PotentialField(1.0, OmegaProfile.log_power(2.0)).log_a(np.exp(xs)) + 2.0 * xs


# maps that are monotone in floating point, with their brackets and targets
_MONOTONE_MAPS = [
    pytest.param(lambda x: x**3 + x, (-10.0, 10.0), np.linspace(-900.0, 900.0, 97),
                 id="cubic"),
    pytest.param(np.exp, (-700.0, 700.0), np.geomspace(1e-300, 1e300, 61), id="exp"),
    pytest.param(_readme_rho_g, (math.log(1e-8), 0.0), np.log(np.geomspace(1e-12, 1e-6, 40)),
                 id="readme-rho"),
    pytest.param(_rounds_g, (-250.0, 0.0),
                 [math.log(4.0 / (-math.log(1e-4) * 2.0**i)) for i in range(200)], id="rounds"),
]


class TestSolveIncreasing:
    """The one root finder, against a plain lock-step bisection."""

    @pytest.mark.parametrize("g, bracket, targets", _MONOTONE_MAPS)
    def test_bits_of_a_bisection(self, g, bracket, targets):
        got = solve_increasing(g, targets, *bracket)
        assert np.array_equal(got, lock_step_bisection(g, targets, *bracket))

    @pytest.mark.parametrize("g, bracket, targets", _MONOTONE_MAPS)
    def test_final_bracket_is_adjacent(self, g, bracket, targets):
        # the root is an end of an adjacent pair with g < t below, g >= t above
        roots = solve_increasing(g, targets, *bracket)
        lo, hi = bracket
        below = np.where(g(roots) >= targets, np.nextafter(roots, -np.inf), roots)
        above = np.nextafter(below, np.inf)
        assert np.all(np.nextafter(below, np.inf) == above)
        assert np.all((below == lo) | (g(below) < targets))
        assert np.all((above == hi) | (g(above) >= targets))

    @pytest.mark.parametrize("g, bracket, targets", _MONOTONE_MAPS)
    def test_each_target_equals_its_lone_solve(self, g, bracket, targets):
        together = solve_increasing(g, targets, *bracket)
        alone = [float(solve_increasing(g, [t], *bracket)[0]) for t in targets]
        assert together.tolist() == alone

    def test_shape_and_no_targets(self):
        assert solve_increasing(np.exp, np.ones((2, 3)), -1.0, 1.0).shape == (2, 3)
        calls = []
        out = solve_increasing(lambda x: calls.append(x) or x, [], 0.0, 1.0)
        assert out.size == 0 and not calls

    @pytest.mark.parametrize("t", [-3.0, 0.5, 2.5, 9.0])
    def test_infinite_and_nan_values_raise_no_warning(self, t):
        # -inf below -1, +inf above 1 and NaN above 2 (NaN counts as below t)
        def g(x):
            return np.where(x > 2.0, np.nan, np.where(x < -1.0, -np.inf,
                                                      np.where(x > 1.0, np.inf, x)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_increasing(g, [t], -5.0, 5.0)
        assert np.array_equal(got, lock_step_bisection(g, [t], -5.0, 5.0))

    def test_closed_targets_are_never_passed_again(self):
        seen = []

        def g(x):
            seen.append(x.size)
            return x**3 + x

        solve_increasing(g, [0.0, 1e-300, 2.0, 500.0], -10.0, 10.0)
        assert seen == sorted(seen, reverse=True) and seen[0] == 4


class TestSRamp:
    def test_linear_omega(self):
        # omega = tau: s = tau^3, s' = 3 tau^2
        s, sp = OmegaProfile.power(1.0).ramp(1.0)
        assert s == pytest.approx(1.0, rel=1e-12)
        assert sp == pytest.approx(3.0, rel=1e-12)

    def test_constant_omega(self):
        s, sp = OmegaProfile.constant(omega0=0.5).ramp(2.0)
        assert s == pytest.approx(16.0 / 0.5, rel=1e-12)
        assert sp == pytest.approx(32.0 / 0.5, rel=1e-12)

    def test_bracket_under_slope_condition(self):
        prof = OmegaProfile.log_power(2.0, delta=0.5)
        tau = np.geomspace(prof.s0 * 1e-4, prof.s0, 50)
        s, sp = prof.ramp(tau)
        w = prof.omega(tau)
        lo = (2.0 + prof.delta) * tau**3 / w
        hi = 4.0 * tau**3 / w
        assert np.all(sp >= lo * (1 - 1e-12))
        assert np.all(sp <= hi * (1 + 1e-12))
        assert np.all(s > 0) and np.all(np.diff(s) > 0)

    def test_zero_omega_raises(self):
        with pytest.raises(ZeroDivisionError):
            OmegaProfile.log_singular().ramp(1.0)  # omega(1) = 0

    @pytest.mark.parametrize("profile,tau", [
        (OmegaProfile.log_power(5.0), 0.3),   # tau omega'/omega = 5/ln(1/tau) > 4
        (OmegaProfile.power(4.0), 0.5),       # tau omega'/omega = 4: s is flat
    ], ids=["log-power-5", "power-4"])
    def test_log_slope_of_a_ramp_that_does_not_rise_raises(self, profile, tau):
        _, sp = profile.ramp(tau)   # the ramp itself is still given
        assert sp <= 0
        with pytest.raises(MonotonicityError, match="does not rise"):
            profile.log_ramp_slope(np.array([0.01, tau]))


class TestTableProfile:
    def test_roundtrip_of_power_samples(self):
        s = np.geomspace(1e-4, 0.9, 60)
        prof = OmegaProfile.from_table(s, s**1.0)
        mid = np.geomspace(2e-4, 0.8, 40)
        assert np.allclose(prof.omega(mid), mid, rtol=5e-3)
        # omega' = -omega (d ln omega/du) / s
        assert np.allclose(-prof.omega(mid) * prof.log_omega(-np.log(mid))[1] / mid, 1.0,
                           rtol=5e-2)

    def test_bad_tables_rejected(self):
        with pytest.raises(ProfileError):
            OmegaProfile.from_table([0.2, 0.1], [1.0, 2.0])
        with pytest.raises(ProfileError):
            OmegaProfile.from_table([0.1, 0.2], [2.0, 1.0])
