import math

import numpy as np
import pytest

from extinctlab.energy import (
    ExponentPack,
    compute_ledger,
    ode_inequality_residual,
    probe_outer_energy_relation,
    verify_global_estimate,
)
from extinctlab.profiles import ConstantPotential, OmegaProfile, PotentialField
from extinctlab.solver import ProblemSpec, RadialGrid, run
from oracles import global_slack, ledger_quad_error, odi_residual, probe_interpolation


class TestExponentPack:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_identities(self, q, N):
        ep = ExponentPack(q, N)
        assert 0 < ep.theta2 < ep.theta1 < 1
        assert ep.lambda0 > ep.lambda2 > ep.lambda1 > 0
        # the two curve-piece decay exponents are tied: 1-t1 = (1-t2)/2
        assert 1 - ep.theta1 == pytest.approx((1 - ep.theta2) / 2, rel=1e-14)
        # lambda/(1+lambda) collapses to the plain decay exponents
        assert ep.lambda2 / (1 + ep.lambda2) == pytest.approx(
            (1 - ep.theta2) * (1 - ep.q) / 2, rel=1e-14)

    def test_reference_values(self):
        ep = ExponentPack(0.5, 1)
        assert ep.theta1 == pytest.approx(4 / 7)
        assert ep.theta2 == pytest.approx(1 / 7)
        assert ep.lambda0 == pytest.approx(1 / 3)
        assert ep.lambda2 == pytest.approx(3 / 11)
        assert ep.lambda1 == pytest.approx(3 / 25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentPack(1.0, 1)


class TestLedger:
    def test_constant_heat_state(self):
        # no absorption, constant data: H(t, tau) is the outer volume, frozen
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=1.0, cells=200,
                           dt=1e-2, horizon=0.5)
        traj = run(spec)
        taus = np.array([0.0, 0.3, 0.7])
        led = compute_ledger(traj, taus)
        outer_vol = 1.0 - taus
        for k in range(led.H.shape[0]):
            assert np.allclose(led.H[k], outer_vol, rtol=1e-12)
        assert np.allclose(led.E, 0.0, atol=1e-20)
        assert np.allclose(led.I, 0.0, atol=1e-20)

    def test_zero_solution(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=0.0,
                           cells=100, dt=1e-2, horizon=0.3)
        traj = run(spec)
        led = compute_ledger(traj, [0.0, 0.5])
        assert np.allclose(led.H, 0.0)
        assert np.allclose(led.I, 0.0)
        assert np.allclose(led.J, 0.0)

    def test_ode_regime_h_matches_exact(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=200, dt=5e-4, horizon=2.2, snapshot_every=40)
        traj = run(spec)
        led = compute_ledger(traj, [0.0])
        exact = np.maximum(1.0 - traj.snapshot_times / 2.0, 0.0) ** 4
        assert np.allclose(led.H[:, 0], exact, atol=0.01)

    def test_h_monotone_in_tau_and_t(self, omega_r_run):
        traj, _ = omega_r_run
        taus = np.geomspace(0.02, 0.9, 24)
        led = compute_ledger(traj, taus)
        assert np.all(np.diff(led.H, axis=1) <= 1e-12)   # shrinking regions
        assert np.all(np.diff(led.H[:, 0]) <= 1e-12)     # dissipation in t
        assert np.all(np.diff(led.y) <= 1e-12)           # y nonincreasing

    def test_ramp_and_exponents_taken_from_the_run(self, omega_r_run):
        traj, pot = omega_r_run
        taus = np.concatenate([[0.0], np.geomspace(0.02, 0.9, 24)])
        led = compute_ledger(traj, taus)
        assert led.sp_tau[0] == 0.0
        assert np.array_equal(led.sp_tau[1:], pot.omega.ramp(taus[1:])[1])
        assert led.exponents == ExponentPack(0.5, 1)

    @pytest.mark.parametrize("potential", [ConstantPotential(0.0), ConstantPotential(1.0)],
                             ids=["zero", "constant"])
    def test_no_ramp_without_a_profile(self, potential):
        spec = ProblemSpec(q=0.5, potential=potential, u0=1.0, cells=50,
                           dt=1e-2, horizon=0.1)
        led = compute_ledger(run(spec), np.linspace(0.0, 0.9, 5))
        assert led.sp_tau is None
        assert np.all(led.s_tau == 0.0)
        with pytest.raises(ValueError):
            ode_inequality_residual(led)

    @pytest.mark.parametrize("taus", [[0.5, 1.5], [-0.1, 0.5], [math.nan]],
                             ids=["above-R", "below-0", "nan"])
    def test_tau_outside_domain_raises(self, taus):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=1.0, cells=50,
                           dt=1e-2, horizon=0.1)
        traj = run(spec)
        with pytest.raises(ValueError):
            compute_ledger(traj, taus)


class TestGlobalEstimate:
    def test_heat_run_identity(self):
        # no absorption, constant data: H = y0 for all t, slack stays zero
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=1.0, cells=100,
                           dt=1e-2, horizon=0.5)
        traj = run(spec)
        led = compute_ledger(traj, [0.0])
        rep = verify_global_estimate(led)
        assert rep.holds
        assert np.allclose(global_slack(led), 0.0, atol=1e-12)

    def test_zero_data_decided(self):
        # y0 = 0 with no quadrature error: H + I <= 0 holds exactly, so the
        # estimate is decided, not inconclusive
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=0.0, cells=100,
                           dt=1e-2, horizon=0.3)
        rep = verify_global_estimate(compute_ledger(run(spec), [0.0]))
        assert rep.quad_error == 0.0
        assert rep.holds is True

    def test_heat_bump_nonnegative_slack(self):
        g = RadialGrid.uniform(300)
        u0 = np.exp(-((g.centers - 0.4) ** 2) / 0.02)
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=u0, cells=300,
                           dt=5e-4, horizon=0.3, snapshot_every=10)
        traj = run(spec)
        led = compute_ledger(traj, [0.0])
        rep = verify_global_estimate(led)
        assert rep.min_slack >= -rep.quad_error

    def test_ode_regime_slack_grows_to_dissipated_share(self, omega_r_run):
        traj, _ = omega_r_run
        led = compute_ledger(traj, [0.0])
        rep = verify_global_estimate(led)
        assert rep.holds
        slack = global_slack(led)
        assert rep.min_slack == np.min(slack[1:])
        assert slack[-1] > 0.0
        assert slack[-1] <= led.y0

    def test_ledger_without_tau_zero_raises(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=1.0, cells=50,
                           dt=1e-2, horizon=0.1)
        led = compute_ledger(run(spec), [0.25, 0.5])
        with pytest.raises(ValueError):
            verify_global_estimate(led)


class TestRelationProbe:
    def test_zero_solution_trivial(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=0.0,
                           cells=100, dt=1e-2, horizon=0.3)
        traj = run(spec)
        led = compute_ledger(traj, np.linspace(0.1, 0.8, 8))
        probe = probe_outer_energy_relation(led)
        assert probe.c_hat == 0.0

    def test_ode_regime_finite_constant(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=200, dt=1e-3, horizon=2.2, snapshot_every=20)
        traj = run(spec)
        led = compute_ledger(traj, np.linspace(0.05, 0.9, 12))
        probe = probe_outer_energy_relation(led)
        assert np.isfinite(probe.c_hat) and probe.c_hat > 0

    def test_extinction_run_stable_under_refinement(self, omega_r_run):
        traj, pot = omega_r_run
        taus = np.geomspace(0.1, 0.8, 12)
        led = compute_ledger(traj, taus)
        c_coarse = probe_outer_energy_relation(led).c_hat

        spec_f = ProblemSpec(q=0.5, potential=pot, u0=1.0, cells=1600,
                             dt=1e-3, horizon=30.0, snapshot_every=50)
        led_f = compute_ledger(run(spec_f), taus)
        c_fine = probe_outer_energy_relation(led_f).c_hat
        assert np.isfinite(c_coarse) and np.isfinite(c_fine)
        assert 0.5 < c_fine / c_coarse < 2.0


class TestInterpolationProbe:
    def test_constant_forces_c2_floor(self):
        g = RadialGrid.uniform(400)
        inner = 0.5
        lam = 1.5
        probe = probe_interpolation(g, inner, lam)
        # v = 1 has no gradient: c2 >= |Omega|^(1/2) / |Omega0|^(1/lam)
        floor = math.sqrt(1.0) / inner ** (1.0 / lam)
        assert probe.c2 >= floor - 1e-9
        assert probe.worst_margin >= -1e-12

    def test_fitted_constants_finite_and_stable(self):
        g = RadialGrid.uniform(400)
        p_small = probe_interpolation(g, 0.4, 2.0, n_random=25)
        p_big = probe_interpolation(g, 0.4, 2.0, n_random=80)
        assert np.isfinite(p_small.c1) and np.isfinite(p_small.c2)
        assert p_big.c1 <= 2.0 * p_small.c1 + 1e-9
        assert p_big.c2 <= 2.0 * p_small.c2 + 1e-9

    def test_scaling_invariance(self):
        # (c1, c2) admissibility is invariant under v -> 2v: all three
        # functionals are degree-1 homogeneous
        g = RadialGrid.uniform(200)
        corpus = [np.ones(200), np.exp(-((g.centers - 0.3) ** 2) / 0.05)]
        p1 = probe_interpolation(g, 0.5, 2.0, sample_functions=corpus)
        p2 = probe_interpolation(g, 0.5, 2.0,
                                 sample_functions=[2.0 * v for v in corpus])
        assert p1.c1 == pytest.approx(p2.c1, rel=1e-12)
        assert p1.c2 == pytest.approx(p2.c2, rel=1e-12)

    def test_validation(self):
        g = RadialGrid.uniform(50)
        with pytest.raises(ValueError):
            probe_interpolation(g, 0.5, 1.0)
        with pytest.raises(ValueError):
            probe_interpolation(g, 1.5, 2.0)


class TestOdiResidual:
    def test_zero_solution_gives_zero_constant(self):
        pot = PotentialField(1.0, OmegaProfile.power(1.0))
        spec = ProblemSpec(q=0.5, potential=pot, u0=0.0, cells=100,
                           dt=1e-2, horizon=0.3)
        traj = run(spec)
        led = compute_ledger(traj, np.geomspace(0.1, 0.8, 8))
        res = ode_inequality_residual(led)
        assert res.c0 == 0.0

    def test_extinction_run_finite_constant(self, omega_r_run):
        traj, _ = omega_r_run
        taus = np.geomspace(0.05, 0.85, 24)
        led = compute_ledger(traj, taus)
        res = ode_inequality_residual(led)
        assert np.isfinite(res.c0) and res.c0 > 0
        residual = odi_residual(led, res.c0)
        ok = np.isfinite(residual)
        assert ok.any()
        assert np.all(residual[ok] >= -1e-9 * max(res.c0, 1.0))

    def test_refinement_drift_bounded(self, omega_r_run):
        traj, pot = omega_r_run
        taus = np.geomspace(0.1, 0.8, 16)
        c_coarse = ode_inequality_residual(compute_ledger(traj, taus)).c0
        spec_f = ProblemSpec(q=0.5, potential=pot, u0=1.0, cells=1600,
                             dt=1e-3, horizon=30.0, snapshot_every=50)
        c_fine = ode_inequality_residual(compute_ledger(run(spec_f), taus)).c0
        assert 0.5 < c_fine / c_coarse < 1.5
