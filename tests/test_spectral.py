import math

import numpy as np
import pytest

from extinctlab.analysis import spectral_log_sum
from extinctlab.profiles import (
    ConstantPotential,
    OmegaProfile,
    PotentialField,
    build_rho_map,
)
from extinctlab.solver import FluxOperator, RadialGrid
from extinctlab.spectral import (
    ground_state,
    knee_radius,
    mu_n_sequence,
    spectral_criterion_series,
    eigenvalue_sandwich_scan,
    inverse_map_sandwich,
)
from oracles import rayleigh_quotient, total_volume


@pytest.fixture(scope="module")
def beta2_potential():
    return PotentialField(1.0, OmegaProfile.log_power(2.0))


def dense_smallest(grid, potential, h):
    """Oracle: full eigendecomposition of the symmetrized operator."""
    if potential is None:
        V = np.zeros(grid.n)
    else:
        V = np.exp(np.minimum(potential.log_a(grid.centers) - 2 * math.log(h), 700.0))
    diag, off = FluxOperator(grid).symmetric(V)
    M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(M)[0])


class TestGroundState:
    def test_zero_potential_constant_mode(self):
        gs = ground_state(None, log_h=math.log(1.0), cells=300)
        assert abs(gs.value) < 1e-10
        assert np.std(gs.vector) / np.mean(gs.vector) < 1e-6

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_constant_potential_exact(self, dimension):
        gs = ground_state(ConstantPotential(2.0), log_h=math.log(0.5), cells=300,
                          dimension=dimension)
        assert gs.value == pytest.approx(2.0 / 0.25, rel=1e-10)

    def test_matches_dense_oracle(self, beta2_potential):
        pots_and_h = [(beta2_potential, h) for h in (3e-3, 1e-2, 3e-2, 1e-1)]
        pots_and_h += [(PotentialField(1.0, OmegaProfile.power(1.0)), h)
                       for h in (1e-2, 3e-2, 1e-1)]
        pots_and_h += [(ConstantPotential(1.0), h) for h in (0.3, 1.0, 3.0)]
        for pot, h in pots_and_h:
            gs = ground_state(pot, log_h=math.log(h), cells=200)
            oracle = dense_smallest(gs.grid, None if isinstance(pot, ConstantPotential)
                                    and False else pot, h)
            assert abs(gs.value - oracle) <= 1e-8 * max(1.0, abs(oracle))

    def test_rayleigh_quotient_consistent(self, beta2_potential):
        gs = ground_state(beta2_potential, log_h=math.log(1e-2), cells=400)
        rq = rayleigh_quotient(gs, beta2_potential, log_h=math.log(1e-2))
        assert rq == pytest.approx(gs.value, rel=1e-10)

    def test_lambda_nonincreasing_in_h(self, beta2_potential):
        hs = np.geomspace(1e-3, 1e-1, 9)
        lams = [ground_state(beta2_potential, log_h=math.log(h), cells=1500).value for h in hs]
        assert np.all(np.diff(lams) <= 1e-9)

    def test_nonnegative(self, beta2_potential):
        gs = ground_state(beta2_potential, log_h=math.log(0.5), cells=200)
        assert gs.value >= -1e-10

    def test_residual_invariant(self, beta2_potential):
        gs = ground_state(beta2_potential, log_h=math.log(1e-2), cells=2000)
        assert gs.residual < 1e-8

    @pytest.mark.parametrize("n", [27, 30, 40])
    @pytest.mark.parametrize("omega", [
        OmegaProfile.log_power(2.0), OmegaProfile.constant(1.0), OmegaProfile.power(1.0),
    ], ids=["beta2", "constant", "alpha1"])
    def test_deep_criterion_states_match_reference(self, restricted_smallest, omega, n):
        # ln h = (1 - q)/2 ln alpha_n at q = 1/2, K = 1; the potential clamps
        # at exp(700) on most of the mesh, which must not excuse the residual
        pot = PotentialField(1.0, omega)
        log_h = -0.25 * n * math.log(n)
        gs = ground_state(pot, log_h, cells=2000)
        ref = restricted_smallest(gs.grid, pot, log_h)
        assert abs(gs.value - ref) <= 1e-8 * ref

    @pytest.mark.xfail(strict=True, reason="the knee-graded mesh puts cells 1e-10 wide "
                       "where the ground state is O(1); needs a mesh scaled to the well")
    def test_near_flat_power_profile_matches_reference(self, restricted_smallest):
        # omega = r^1.85 makes a nearly flat in r, so the knee where h^-2 a
        # crosses one is far inside the ground state's support
        pot = PotentialField(1.0, OmegaProfile.power(1.85))
        log_h = -2.0 * math.log(8.0)
        gs = ground_state(pot, log_h, cells=2000)
        ref = restricted_smallest(gs.grid, pot, log_h)
        assert abs(gs.value - ref) <= 1e-8 * ref

    def test_zero_potential_spellings_bitwise_equal(self):
        ref = ground_state(None, log_h=math.log(0.1), cells=200)
        for pot in (0.0, ConstantPotential(0.0)):
            gs = ground_state(pot, log_h=math.log(0.1), cells=200)
            assert gs.value == ref.value
            assert np.array_equal(gs.vector, ref.vector)

    def test_h_validation(self):
        with pytest.raises(ValueError):
            ground_state(None, log_h=-math.inf)

    def test_stagnation_falls_back_to_bisection(self, beta2_potential, monkeypatch,
                                                restricted_smallest):
        import extinctlab.spectral as spectral
        monkeypatch.setattr(spectral, "_inverse_iteration", lambda d, e: None)
        gs = spectral.ground_state(beta2_potential, log_h=math.log(1e-2), cells=200)
        assert gs.used_fallback
        assert gs.residual < 1e-8
        oracle = dense_smallest(gs.grid, beta2_potential, 1e-2)
        assert abs(gs.value - oracle) <= 1e-8
        # the criterion's n = 40 (q = 1/2, K = 1): the matrix reaches exp(700),
        # so a bisection to eps ||T|| would return noise
        log_h = -10.0 * math.log(40.0)
        gs = spectral.ground_state(beta2_potential, log_h, cells=2000)
        assert gs.used_fallback
        ref = restricted_smallest(gs.grid, beta2_potential, log_h)
        assert abs(gs.value - ref) <= 1e-8 * ref


class TestMu:
    def test_constant_closed_form(self):
        # a = c: mu(alpha) = c * alpha^(q-1)
        alpha, q = 4.0, 0.5
        got = ground_state(ConstantPotential(1.0), log_h=math.log(alpha ** ((1.0 - q) / 2.0)),
                           cells=200).value
        assert got == pytest.approx(0.5, rel=1e-10)

    def test_mu_n_dyadic_exact(self):
        mus = mu_n_sequence(ConstantPotential(1.0), n_max=20, cells=200)
        assert np.allclose(mus, 2.0 ** np.arange(21), rtol=1e-10)
        assert np.all(np.diff(mus) > 0)

    def test_mu_n_zero_potential(self):
        mus = mu_n_sequence(None, n_max=5, cells=100)
        assert np.all(np.abs(mus) < 1e-10)

    def test_kv_sum_geometric(self):
        mus = mu_n_sequence(ConstantPotential(1.0), n_max=20, cells=200)
        diag = spectral_log_sum(mus)  # mu_0 = 1 sits on the cut: rejected
        assert diag.total == pytest.approx(2.0 * math.log(2.0), abs=1e-3)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            mu_n_sequence(ConstantPotential(1.0), n_max=61)

    def test_rayleigh_upper_bound(self, beta2_potential):
        # constant test function: mu_n <= 2^n * mean(a)
        grid = RadialGrid.uniform(300)
        mean_a = grid.integrate(beta2_potential.a(grid.centers)) / total_volume(grid)
        mus = mu_n_sequence(beta2_potential, n_max=10, cells=300)
        assert np.all(mus <= 2.0 ** np.arange(11) * mean_a * (1 + 1e-9))


class TestEigenvalueSandwich:
    def test_bracket_and_stability(self, beta2_potential):
        hs = np.geomspace(1e-3, 1e-1, 7)
        rho_map = build_rho_map(beta2_potential)
        scan = eigenvalue_sandwich_scan(beta2_potential, hs, rho_map, cells=3000)
        assert scan.clipped == 0
        assert scan.width < 100.0      # under two decades
        assert scan.bracket < 50.0
        scan2 = eigenvalue_sandwich_scan(beta2_potential, hs, rho_map, cells=6000)
        move = np.abs(scan2.ratios / scan.ratios - 1.0)
        assert np.all(move < 0.05)

    def test_out_of_range_h_clipped(self, beta2_potential):
        rho_map = build_rho_map(beta2_potential)
        h_big = math.sqrt(rho_map.rho_max) * 10.0
        scan = eigenvalue_sandwich_scan(beta2_potential, [1e-2, h_big], rho_map, cells=500)
        assert scan.clipped == 1
        assert np.isnan(scan.ratios[1])


    def test_rise_fall_potential_scanned_on_its_rising_part(self, rise_fall_potential):
        scan = eigenvalue_sandwich_scan(rise_fall_potential, np.geomspace(1e-3, 1e-1, 7),
                                        build_rho_map(rise_fall_potential), cells=3000)
        assert scan.clipped == 1
        assert np.isnan(scan.ratios[-1]) and np.all(np.isfinite(scan.ratios[:-1]))


class TestInverseMapSandwich:
    def test_no_violations_small_s(self, beta2_potential):
        rep = inverse_map_sandwich(beta2_potential, np.geomspace(1e-12, 1e-6, 200),
                                   build_rho_map(beta2_potential))
        assert rep.violations == 0
        assert rep.r_bracket_violations == 0
        assert rep.below_identity_violations == 0

    def test_bounds_ordered(self, beta2_potential):
        rep = inverse_map_sandwich(beta2_potential, np.geomspace(1e-12, 1e-6, 50),
                                   build_rho_map(beta2_potential))
        assert np.all(rep.lower <= rep.upper)
        assert np.all((rep.lower <= rep.rho_inv) & (rep.rho_inv <= rep.upper))


class TestSpectralCriterion:
    def test_log_ratio_identity(self):
        # ln(alpha_n / alpha_{n+1}) for alpha_n = n^(-Kn), against direct logs
        K = 1.3
        ns = np.arange(2, 30, dtype=float)
        exact = K * ((ns + 1) * np.log(ns + 1) - ns * np.log(ns))
        direct = K * ns * np.log(ns) - K * (ns + 1) * np.log(ns + 1)
        assert np.allclose(exact, -direct, rtol=1e-13)

    def test_constant_potential_closed_form_mu(self):
        # a = 1, q = 1/2: mu(alpha_n) = alpha_n^(-1/2) = n^(Kn/2)
        crit = spectral_criterion_series(ConstantPotential(1.0), K=1.0, q=0.5,
                                n_range=(2, 12), cells=200)
        expect = np.exp(-0.5 * crit.alpha_log)
        assert np.allclose(crit.mu, expect, rtol=1e-8)
        assert crit.verdict == "convergent"

    def test_dini_profile_convergent(self, beta2_potential):
        crit = spectral_criterion_series(beta2_potential, K=1.0, q=0.5,
                                n_range=(2, 40), cells=2000)
        assert crit.verdict == "convergent"
        assert np.all(crit.terms[crit.flagged] == 0.0)

    def test_validation(self, beta2_potential):
        with pytest.raises(ValueError):
            spectral_criterion_series(beta2_potential, K=-1.0)
        with pytest.raises(ValueError):
            spectral_criterion_series(beta2_potential, n_range=(1, 10))


class TestKneeRefinement:
    def test_knee_found_inside_range(self, beta2_potential):
        r = knee_radius(beta2_potential, log_h=math.log(1e-3))
        assert r is not None and 0.05 < r < 0.5
        # the scaled potential indeed crosses one near the knee
        v = math.exp(beta2_potential.log_a(r) + 2 * math.log(1e3))
        assert 0.1 < v < 10.0

    def test_no_knee_for_weak_scaling(self, beta2_potential):
        assert knee_radius(beta2_potential, log_h=math.log(10.0)) is None


class TestSweeps:
    """The mu_n sequence, the criterion and the scan evaluate ln a on the
    knee probe once per sweep; each of their ground states must equal the
    one a lone call computes, probe and all."""

    @pytest.mark.parametrize("prof", [OmegaProfile.log_power(2.0), OmegaProfile.power(1.5),
                                      OmegaProfile.constant(1.0)], ids=lambda p: p.kind)
    def test_sweep_states_equal_lone_solves(self, prof, monkeypatch):
        import extinctlab.spectral as spectral
        potential = PotentialField(1.0, prof)
        real = spectral.ground_state
        solved = []

        def recording(potential, log_h, **kwargs):
            gs = real(potential, log_h, **kwargs)
            solved.append((log_h, kwargs["cells"], gs))
            return gs

        monkeypatch.setattr(spectral, "ground_state", recording)
        mu_n_sequence(potential, n_max=4, cells=200)
        spectral_criterion_series(potential, n_range=(2, 6), cells=300)
        eigenvalue_sandwich_scan(potential, np.geomspace(1e-3, 1e-1, 4),
                                 build_rho_map(potential), cells=400)
        assert len(solved) == 5 + 5 + 4
        for log_h, cells, gs in solved:
            lone = real(potential, log_h, cells=cells)
            assert (lone.value, lone.residual, lone.iterations) == \
                (gs.value, gs.residual, gs.iterations)
            assert np.array_equal(lone.vector, gs.vector)
            assert np.array_equal(lone.grid.faces, gs.grid.faces)
