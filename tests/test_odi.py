import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import extinctlab.odi as odi
from extinctlab.analysis import _GL_NODES, _GL_WEIGHTS, dini_integral, log_segment_integrals
from extinctlab.energy import compute_ledger, ode_inequality_residual
from extinctlab.odi import (
    BelowFloorError,
    CurveRangeError,
    NoPlateauError,
    OdiConfig,
    build_curve,
    curve_y2,
    extinction_iteration,
    solve_extinction_radius,
    solve_tau_double_prime,
    solve_tau_prime,
)
from extinctlab.profiles import OmegaProfile, PotentialField
from oracles import region_boundaries, region_classifier


@pytest.fixture(scope="module")
def beta2_config():
    pot = PotentialField(1.0, OmegaProfile.log_power(2.0))
    return OdiConfig(potential=pot, y0=1e-4, q=0.5)


class TestOdiConfig:
    def test_cbar_defaults_to_poincare_scale_of_domain(self, beta2_config):
        # the same default as the CLI's: 1/R^2 with R = tau_max
        pot = beta2_config.potential
        assert OdiConfig(potential=pot, y0=1e-4, tau_max=2.0).cbar == 0.25
        assert OdiConfig(potential=pot, y0=1e-4, tau_max=2.0, cbar=3.0).cbar == 3.0

    @pytest.mark.parametrize("tau_max", [0.0, math.nan])
    def test_bad_tau_max_rejected_before_cbar(self, beta2_config, tau_max):
        with pytest.raises(ValueError, match="tau_max"):
            OdiConfig(potential=beta2_config.potential, y0=1e-4, tau_max=tau_max)


class TestTauPrime:
    def test_linear_omega_closed_form(self):
        # tau^2/omega = tau: the relation collapses to an explicit value
        pot = PotentialField(1.0, OmegaProfile.power(1.0))
        cfg = OdiConfig(potential=pot, y0=1e-4, q=0.5, c0=1.0)
        expected = (2.0 / 0.5) / (math.log(3.0) - math.log(1e-4))
        assert solve_tau_prime(cfg) == pytest.approx(expected, rel=1e-10)

    def test_constant_omega_closed_form(self):
        pot = PotentialField(1.0, OmegaProfile.constant(0.5))
        cfg = OdiConfig(potential=pot, y0=1e-4, q=0.5, c0=1.0)
        expected = math.sqrt(0.5 * 4.0 / (math.log(3.0) - math.log(1e-4)))
        assert solve_tau_prime(cfg) == pytest.approx(expected, rel=1e-10)

    def test_log_power_residual(self, beta2_config):
        tau_p = solve_tau_prime(beta2_config)
        lhs = tau_p**2 / beta2_config.potential.omega.omega(tau_p)
        rhs = 4.0 / (math.log(3.0) - math.log(beta2_config.y0))
        assert abs(lhs - rhs) / rhs < 1e-10

    def test_no_plateau_error(self, beta2_config):
        pot = beta2_config.potential
        with pytest.raises(NoPlateauError):
            solve_tau_prime(OdiConfig(potential=pot, y0=5.0, q=0.5, c0=1.0))


def per_segment_log_integral(logf, knots):
    """Reference rule: one logf call and one shifted weighted sum per segment."""
    out = np.full(knots.size - 1, -np.inf)
    for i in range(knots.size - 1):
        a, b = knots[i], knots[i + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g = logf(mid + half * _GL_NODES)
        m = g.max()
        if np.isfinite(m):
            out[i] = m + np.log(half * (np.exp(g - m) * _GL_WEIGHTS).sum(keepdims=True))[0]
    return out


class TestCumulativeLogIntegral:
    @pytest.mark.parametrize("prof", [
        OmegaProfile.power(0.5), OmegaProfile.power(1.0),
        OmegaProfile.log_power(1.0), OmegaProfile.log_power(2.0),
    ], ids=lambda p: f"{p.kind}-{p.alpha}-{p.beta}")
    def test_curve_pieces_match_per_segment_loop(self, prof, monkeypatch):
        seen = []
        vectorized = odi.log_segment_integrals

        def capture(logf, knots):
            out = vectorized(logf, knots)
            seen.append((logf, knots, out))
            return out

        monkeypatch.setattr(odi, "log_segment_integrals", capture)
        cfg = OdiConfig(potential=PotentialField(1.0, prof), y0=1e-4, q=0.5)
        curve = build_curve(cfg)
        assert {logf.__name__ for logf, _, _ in seen} == {"log_psi1", "log_psi2"}
        for logf, knots, out in seen:
            assert np.array_equal(out, per_segment_log_integral(logf, knots))
        # a piece's weight integral is the running sum of the rule's segments
        piece = curve_y2(cfg, curve.tau_prime)
        _, knots, out = seen[-1]
        assert np.array_equal(piece.knots, knots)
        assert np.array_equal(piece.cum_integral, np.concatenate([[0.0], np.cumsum(np.exp(out))]))

    def test_non_finite_segments_contribute_zero(self):
        def logf(t):
            return np.where(t < 0.3, -np.inf, np.where(t > 0.8, np.nan, -5.0 * t))

        knots = np.linspace(0.1, 1.0, 41)
        out = log_segment_integrals(logf, knots)
        assert np.array_equal(out, per_segment_log_integral(logf, knots))
        assert out[0] == out[-1] == -np.inf and np.all(np.isfinite(out[9:27]))


class TestCurveY2:
    def test_starts_at_y0(self, beta2_config):
        tau_p = solve_tau_prime(beta2_config)
        piece = curve_y2(beta2_config, tau_p)
        assert piece(tau_p) == pytest.approx(beta2_config.y0, rel=1e-12)

    def test_strictly_decreasing(self, beta2_config):
        tau_p = solve_tau_prime(beta2_config)
        piece = curve_y2(beta2_config, tau_p)
        taus = np.linspace(tau_p, min(2 * tau_p, 1.0), 50)
        vals = piece(taus)
        assert np.all(np.diff(vals) < 0)

    def test_matches_stiff_ode_integration(self, beta2_config):
        # independent oracle: integrate the separable mode equation directly
        cfg = beta2_config
        tau_p = solve_tau_prime(cfg)
        piece = curve_y2(cfg, tau_p)
        ep = cfg.exponents
        omega = cfg.potential.omega

        def rhs(tau, y):
            log_sp = omega.log_ramp_slope(float(tau))
            psi2 = math.exp((1 - ep.theta2) * cfg.potential.log_a(float(tau)) + log_sp)
            return [-psi2 * max(y[0] / (3 * cfg.c0), 0.0) ** (1.0 / (1.0 + ep.lambda2))]

        tau_end = 0.9
        sol = solve_ivp(rhs, (tau_p, tau_end), [cfg.y0], method="Radau",
                        rtol=1e-10, atol=1e-16, dense_output=True)
        probe = np.linspace(tau_p, tau_end, 20)
        closed = piece(probe)
        direct = sol.sol(probe)[0]
        assert np.all(np.abs(closed - direct) <= 1e-3 * np.maximum(direct, 1e-300))


class TestTauDoublePrime:
    def test_bisection_residual(self):
        pot = PotentialField(1.0, OmegaProfile.power(1.0))
        cfg = OdiConfig(potential=pot, y0=1e-4, q=0.5)
        tau_p = solve_tau_prime(cfg)
        piece = curve_y2(cfg, tau_p)
        res = solve_tau_double_prime(cfg, piece, tau_p)
        ep = cfg.exponents
        log_sp = cfg.potential.omega.log_ramp_slope(res.tau)
        boundary = math.exp(math.log(3 * cfg.c0)
                            + 2 / (1 - cfg.q) * cfg.potential.log_a(res.tau)
                            + 2 / ((1 - cfg.q) * (ep.theta1 - ep.theta2)) * log_sp)
        assert abs(piece(res.tau) - boundary) <= 1e-8 * boundary

    def test_root_brackets_sign_change_within_4_ulps(self, beta2_config):
        tau_p = solve_tau_prime(beta2_config)
        piece = curve_y2(beta2_config, tau_p)
        tau_pp = solve_tau_double_prime(beta2_config, piece, tau_p).tau

        def G(tau):
            return math.log(piece(tau)) - odi._log_match_boundary(beta2_config, tau)

        below, above = tau_pp, tau_pp
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
        assert G(float(below)) > 0 > G(float(above))

    def test_bracket_constant_independent_of_y0(self, beta2_config):
        ks = []
        for y0 in (1e-4, 3e-5, 1e-5):
            cfg = OdiConfig(potential=beta2_config.potential, y0=y0, q=0.5)
            tau_p = solve_tau_prime(cfg)
            ks.append(solve_tau_double_prime(cfg, curve_y2(cfg, tau_p), tau_p)
                      .bracket_constant)
        assert max(ks) / min(ks) < 2.0

    def test_plateau_collapse_skips_region(self, beta2_config):
        # y0 close to 3c0 pushes tau' to radii where the ramp slope exceeds
        # one and the middle region is empty: tau'' collapses onto tau'
        cfg = OdiConfig(potential=beta2_config.potential, y0=1e-2, q=0.5)
        curve = build_curve(cfg)
        assert curve.region2_skipped
        assert curve.tau_double_prime == curve.tau_prime


class TestTauTriplePrime:
    def test_linear_omega_ad_hoc_closed_form(self):
        pot = PotentialField(1.0, OmegaProfile.power(1.0))
        cfg = OdiConfig(potential=pot, y0=1e-4, q=0.5, c7=0.8)
        [(tau_bar, clipped)] = solve_extinction_radius(cfg, [math.log(cfg.y0)])
        assert not clipped
        assert tau_bar == pytest.approx(0.8 / math.log(1e4), rel=1e-10)

    def test_scaling_relation(self, beta2_config):
        # tau_bar^2 ln(1/y0) / omega(tau_bar) reproduces c7 across levels
        for y0 in (1e-6, 1e-4, 1e-2):
            cfg = OdiConfig(potential=beta2_config.potential, y0=y0, q=0.5)
            [(tau_bar, _)] = solve_extinction_radius(cfg, [math.log(y0)])
            got = tau_bar**2 * math.log(1 / y0) / cfg.potential.omega.omega(tau_bar)
            assert got == pytest.approx(cfg.c7, rel=1e-9)

    def test_dual_roots_agree_within_fixed_factor(self, beta2_config):
        ratios = []
        for y0 in (1e-6, 1e-5, 1e-4, 1e-3):
            cfg = OdiConfig(potential=beta2_config.potential, y0=y0, q=0.5)
            curve = build_curve(cfg)
            info = curve.triple_info
            assert math.isfinite(info.direct_root)
            ratios.append(info.direct_root / info.ad_hoc_root)
        assert max(ratios) / min(ratios) < 10.0
        assert all(0.05 < r < 20.0 for r in ratios)


class TestCurveAssembly:
    def test_continuity_and_monotonicity(self, beta2_config):
        curve = build_curve(beta2_config)
        g1, g2 = curve.join_gap_prime, curve.join_gap_double_prime
        assert g1 <= 1e-10 * beta2_config.y0
        assert g2 <= 1e-10 * beta2_config.y0
        assert np.all(np.diff(curve.Y) <= 1e-12)
        assert curve.Y[0] == beta2_config.y0
        assert curve.Y[-1] <= 0.0 + 1e-300

    def test_ordering_of_radii(self, beta2_config):
        curve = build_curve(beta2_config)
        assert 0 < curve.tau_prime <= curve.tau_double_prime < curve.tau_triple_prime
        assert curve.tau_triple_prime > 2.0 * curve.tau_double_prime


class TestRegionClassifier:
    def test_above_upper_boundary(self, beta2_config):
        upper, _ = region_boundaries(beta2_config, 0.3)
        assert region_classifier(0.3, upper * 10.0, beta2_config) == 0

    def test_below_lower_boundary(self, beta2_config):
        _, lower = region_boundaries(beta2_config, 0.3)
        assert region_classifier(0.3, lower * 0.1, beta2_config) == 1

    def test_tie_prefers_lower_index(self, beta2_config):
        upper, _ = region_boundaries(beta2_config, 0.3)
        assert region_classifier(0.3, upper, beta2_config) == 0

    def test_lattice_agreement_with_closed_forms(self, beta2_config):
        # restrict to radii with ramp slope below one, where the three-way
        # decomposition is consistent (the boundaries cross beyond that)
        taus = np.geomspace(0.05, 0.6, 100)
        ys = np.geomspace(1e-10, 1.0, 100)
        TT, YY = np.meshgrid(taus, ys)
        got = region_classifier(TT.ravel(), YY.ravel(), beta2_config).reshape(TT.shape)
        upper, lower = region_boundaries(beta2_config, taus)
        want = np.where(YY >= upper[None, :], 0,
                        np.where(YY <= lower[None, :], 1, 2))
        assert np.array_equal(got, want)

    def test_validation(self, beta2_config):
        with pytest.raises(ValueError):
            region_classifier(-0.1, 1.0, beta2_config)


class TestExtinctionIteration:
    def test_constant_omega_unbounded(self):
        pot = PotentialField(1.0, OmegaProfile.constant(1.0))
        cfg = OdiConfig(potential=pot, y0=1e-4, q=0.5)
        rep = extinction_iteration(cfg)
        assert rep.verdict == "divergent"
        assert rep.total == math.inf
        # waiting times are constant once the radius caps: linear growth
        assert rep.t_rounds[-1] == pytest.approx(rep.t_rounds[-2], rel=1e-6)

    def test_round_relations(self, beta2_config):
        rep = extinction_iteration(beta2_config)
        cfg = rep.config
        w = cfg.potential.omega.omega(rep.tau_rounds)
        expect_t = cfg.gamma * cfg.c7 / cfg.cbar * w
        assert np.allclose(rep.t_rounds, expect_t, rtol=1e-12)
        # the defining radius relation, rounds are not clipped here
        assert rep.clipped_rounds == 0
        got = rep.tau_rounds**2 * (-rep.log_levels) / w
        assert np.allclose(got, cfg.c7, rtol=1e-8)
        assert np.all(np.diff(rep.tau_rounds) < 0)
        assert np.all(np.diff(rep.log_levels) < 0)

    def test_bounded_verdict_with_finite_total(self, beta2_config):
        rep = extinction_iteration(beta2_config)
        assert rep.verdict == "convergent"
        assert math.isfinite(rep.total)
        assert rep.total > rep.sum_t + rep.sum_s - 1e-12

    def test_offset_sum_geometric(self, beta2_config):
        rep = extinction_iteration(beta2_config)
        # s(tau_i) <= const * tau_i^2 with tau_i^2 geometric: tail must be
        # dominated by a geometric series
        ratios = rep.s_rounds[1:] / rep.s_rounds[:-1]
        assert np.all(ratios[5:] < 0.75)
        assert rep.sum_s < 10 * rep.s_rounds[0]

    def test_partial_sums_vs_integral_comparison(self, beta2_config):
        rep = extinction_iteration(beta2_config)
        ratio = rep.omega_sum_partial / rep.integral_comparison
        assert 0.25 < ratio < 4.0

    def test_finite_iff_dini_convergent(self):
        profiles = [
            (OmegaProfile.power(0.5), True), (OmegaProfile.power(1.0), True),
            (OmegaProfile.power(1.5), True), (OmegaProfile.log_power(0.5), False),
            (OmegaProfile.log_power(1.0), False), (OmegaProfile.log_power(1.5), True),
            (OmegaProfile.log_power(2.0), True), (OmegaProfile.log_power(3.0), True),
            (OmegaProfile.constant(1.0), False),
        ]
        for prof, finite in profiles:
            cfg = OdiConfig(potential=PotentialField(1.0, prof), y0=1e-4, q=0.5)
            rep = extinction_iteration(cfg)
            assert math.isfinite(rep.total) == finite, prof.kind
            assert (rep.verdict == "convergent") == finite, prof.kind

    def test_radius_below_search_floor_ends_the_rounds(self, beta2_config):
        # beta = 2 reaches the ln(tau) = -250 floor near round 706; the rounds
        # stop there and the tail majorant covers the rest, nothing is clipped
        rep = extinction_iteration(beta2_config, max_rounds=800)
        assert 200 < rep.rounds < 800
        assert rep.clipped_rounds == 0
        assert np.all(rep.tau_rounds[1:] < beta2_config.tau_max)
        assert np.all(np.diff(rep.tau_rounds) < 0)
        assert rep.verdict == "convergent"
        assert math.isfinite(rep.total) and rep.total < 117.0
        assert rep.total == pytest.approx(extinction_iteration(beta2_config).total, rel=0.01)

    def test_floor_and_domain_are_told_apart(self, beta2_config):
        with pytest.raises(BelowFloorError):
            solve_extinction_radius(beta2_config, [-1e300])
        # a root beyond the domain is inf, and the level's radius is clipped
        logs = lambda taus: map(math.log, taus)
        assert odi._bisect_log_tau(logs, [1.0], odi._TAU_FLOOR, 1.0) == [math.inf]
        assert solve_extinction_radius(beta2_config, [-1e-3]) == [(1.0, True)]
        cfg = OdiConfig(potential=beta2_config.potential, y0=1e-4, q=0.5, tau_max=1e-3)
        with pytest.raises(CurveRangeError) as exc:
            solve_tau_prime(cfg)
        assert not isinstance(exc.value, BelowFloorError)

    def test_deep_radius_bisects_to_rounding(self, beta2_config, monkeypatch):
        # omega = ln(1/tau)^-2 puts the root at ln(tau) = -100 for this level
        log_level = -beta2_config.c7 * math.exp(200.0) / 1e4
        calls = []
        omega = OmegaProfile.omega
        monkeypatch.setattr(OmegaProfile, "omega",
                            lambda self, s: calls.append(s) or omega(self, s))
        [(tau, clipped)] = solve_extinction_radius(beta2_config, [log_level])
        monkeypatch.undo()
        assert not clipped and math.log(tau) == pytest.approx(-100.0, rel=1e-12)
        assert len(calls) <= 70
        got = tau**2 * -log_level / beta2_config.potential.omega.omega(tau)
        assert got == pytest.approx(beta2_config.c7, rel=1e-12)

    def test_first_radius_below_floor_is_inconclusive(self):
        # tau^2/omega = tau^0.001 cannot reach the relation above exp(-250)
        cfg = OdiConfig(potential=PotentialField(1.0, OmegaProfile.power(1.999)),
                        y0=1e-4, q=0.5)
        rep = extinction_iteration(cfg)
        assert rep.rounds == 0 and rep.clipped_rounds == 0
        assert rep.verdict == "inconclusive" and math.isnan(rep.total)

    def test_y0_validation(self, beta2_config):
        with pytest.raises(ValueError):
            extinction_iteration(OdiConfig(potential=beta2_config.potential,
                                           y0=1.0, q=0.5))


def _sequential_rounds(config, max_rounds=200):
    """The round loop with one scalar bisection per level, as it ran before
    the radii were bisected in lock-step: (rounds, clipped, total)."""
    omega = config.potential.omega

    def radius(log_level):   # (tau, clipped), None below the search floor
        target = math.log(config.c7 / (-log_level))

        def g(tau):
            w = omega.omega(tau)
            return 2.0 * math.log(tau) - (math.log(w) if w > 0 else -math.inf)

        lo, hi = math.log(odi._TAU_FLOOR), math.log(config.tau_max)
        if g(math.exp(lo)) > target:
            return None
        if g(math.exp(hi)) < target:
            return config.tau_max, True
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if g(math.exp(mid)) >= target:
                hi = mid
            else:
                lo = mid
        return math.exp(mid), False

    log_y0 = math.log(config.y0)
    taus, ts, ss, log_levels = [], [], [], []
    clipped = 0
    stalled = 0
    for i in range(max_rounds):
        log_level = log_y0 * (1.0 + config.gamma) ** i
        if (root := radius(log_level)) is None:
            break
        tau_i, was_clipped = root
        clipped += int(was_clipped)
        w_i = omega.omega(tau_i)
        t_i = config.gamma * config.c7 / config.cbar * w_i
        s_i = tau_i**2 * config.c7 / (-log_level)
        taus.append(tau_i)
        ts.append(t_i)
        ss.append(s_i)
        log_levels.append(log_level)
        if i >= 1 and ts[-1] >= ts[-2] * 0.999:
            stalled += 1
        else:
            stalled = 0
        if (t_i + s_i) < odi._ROUND_REL_TOL * (sum(ts) + sum(ss)):
            break
        if stalled >= 20:
            break

    dini = dini_integral(omega, c=min(omega.s0, math.exp(-1.0)))
    tail = dini_integral(omega, c=taus[-1]) if taus else None
    if dini.verdict == "divergent":
        total = math.inf
    elif dini.verdict == "convergent" and tail is not None and tail.converged:
        lam = (1.0 + config.gamma) ** -0.5
        total = float(np.sum(ts)) + float(np.sum(ss)) \
            + config.gamma * config.c7 / config.cbar * tail.value / math.log(1.0 / lam)
    else:
        total = math.nan
    return (taus, ts, ss, log_levels), clipped, total


def _rounds(rep):
    return (rep.tau_rounds.tolist(), rep.t_rounds.tolist(), rep.s_rounds.tolist(),
            rep.log_levels.tolist()), rep.clipped_rounds, rep.total


_FAMILY = [pytest.param(OmegaProfile.power(a), id=f"power-{a}") for a in (0.5, 1.0, 1.5)] \
    + [pytest.param(OmegaProfile.log_power(b), id=f"log-power-{b}")
       for b in (0.5, 1.0, 1.5, 2.0, 3.0)] \
    + [pytest.param(OmegaProfile.constant(1.0), id="constant")]


class TestLockStepRounds:
    """The rounds' radii, bisected together, equal one bisection per level
    bit for bit."""

    @staticmethod
    def assert_equal(rep, oracle):
        (got, clipped, total), (want, want_clipped, want_total) = _rounds(rep), oracle
        assert got == want and clipped == want_clipped
        assert total == want_total or (math.isnan(total) and math.isnan(want_total))

    @pytest.mark.parametrize("prof", _FAMILY)
    def test_profile_family(self, prof):
        cfg = OdiConfig(potential=PotentialField(1.0, prof), y0=1e-4, q=0.5)
        self.assert_equal(extinction_iteration(cfg), _sequential_rounds(cfg))

    @pytest.mark.parametrize("prof", [OmegaProfile.log_power(2.0), OmegaProfile.power(1.0)],
                             ids=["log-power", "power"])
    def test_clipped_rounds(self, prof):
        cfg = OdiConfig(potential=PotentialField(1.0, prof), y0=0.9, q=0.5)
        rep = extinction_iteration(cfg)
        assert rep.clipped_rounds == 6
        self.assert_equal(rep, _sequential_rounds(cfg))

    def test_no_round_above_the_floor(self):
        cfg = OdiConfig(potential=PotentialField(1.0, OmegaProfile.power(1.999)),
                        y0=1e-4, q=0.5)
        rep = extinction_iteration(cfg)
        assert rep.rounds == 0
        self.assert_equal(rep, _sequential_rounds(cfg))

    def test_floor_round(self, beta2_config):
        rep = extinction_iteration(beta2_config, max_rounds=800)
        assert 700 < rep.rounds < 800
        self.assert_equal(rep, _sequential_rounds(beta2_config, 800))

    def test_levels_past_the_floor_are_never_made(self, beta2_config):
        # (1 + gamma)**i overflows a float at i = 1024; the levels stop at
        # the first radius below the floor, near round 706
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deep = extinction_iteration(beta2_config, max_rounds=5000)
        self.assert_equal(deep, _rounds(extinction_iteration(beta2_config, max_rounds=800)))
        assert deep.verdict == "convergent"


class TestComparisonProperty:
    def test_ledger_y_below_dominating_curve(self, omega_r_small_run):
        traj, pot = omega_r_small_run
        taus = np.geomspace(0.02, 0.9, 40)
        led = compute_ledger(traj, taus)
        res = ode_inequality_residual(led)
        cfg = OdiConfig(potential=pot, y0=led.y0, q=0.5, c0=res.c0)
        curve = build_curve(cfg)
        margin = curve.value(taus) - led.y
        tol = np.maximum(led.quad_error, 1e-12 * led.y0)
        assert np.all(margin >= -tol)
