import math
import tracemalloc
import warnings

import numpy as np
import pytest

from extinctlab.analysis import (
    DomainError,
    _slope,
    _two_stage_tail_fit,
    composite_endpoint_integral,
    dini_integral,
    dini_series,
    equivalence_check,
    spectral_log_sum,
    endpoint_equivalence_ratios,
)
from extinctlab.profiles import OmegaProfile


class TestDiniIntegral:
    def test_linear_profile_unit_integrand(self):
        res = dini_integral(OmegaProfile.power(1.0), c=1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_log_power_beta2_antiderivative(self):
        # antiderivative of ln(1/s)^(-2)/s is -ln(1/s)^(-1): integral over
        # (0, 1/e) equals exactly 1
        res = dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_log_power_beta3_antiderivative(self):
        res = dini_integral(OmegaProfile.log_power(3.0), c=math.exp(-1.0))
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_constant_profile_diverges(self):
        res = dini_integral(OmegaProfile.constant(0.5), c=1.0)
        assert res.verdict == "diverged"
        assert len(res.witness) > 0

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            dini_integral(OmegaProfile.power(1.0), c=-1.0)
        with pytest.raises(DomainError):
            dini_integral(OmegaProfile.power(1.0), c=1.0, tol=0.0)

    def test_refinement_consistency(self):
        loose = dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0), tol=1e-4)
        tight = dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0), tol=1e-10)
        assert abs(loose.value - tight.value) <= loose.error + tight.error + 1e-12


class TestDiniSeries:
    def test_quadratic_profile_convergent(self):
        # omega(s_n) = 1/(n ln n) so the terms are 1/(n^2 ln n)
        diag = dini_series(OmegaProfile.power(2.0))
        assert diag.verdict == "convergent"

    def test_constant_profile_divergent(self):
        diag = dini_series(OmegaProfile.constant(1.0))
        assert diag.verdict == "divergent"
        assert diag.tail_exponent == pytest.approx(-1.0, abs=1e-6)

    def test_beta2_matches_integral_verdict(self):
        quad = dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0))
        ser = dini_series(OmegaProfile.log_power(2.0))
        assert quad.verdict == "converged" and ser.verdict == "convergent"

    def test_n0_validation(self):
        with pytest.raises(DomainError):
            dini_series(OmegaProfile.power(1.0), n0=1)


def _one_shot_series(profile, n0=2, n_max=1_000_000):
    """Terms, partial sums and checkpoints with all terms in one omega call."""
    n = np.arange(n0, n_max + 1, dtype=float)
    t = profile.omega((n * np.log(n)) ** -0.5) / n
    idx = np.unique(np.geomspace(1, len(t), min(200, len(t))).astype(int)) - 1
    return n, t, np.cumsum(t), idx


def _reference_slope(x, y):
    """Centred least-squares slope in long double, means from math.fsum."""
    dx = x.astype(np.longdouble) - np.longdouble(math.fsum(x)) / x.size
    dy = y.astype(np.longdouble) - np.longdouble(math.fsum(y)) / y.size
    return float(np.sum(dx * dy) / np.sum(dx * dx))


_TABLE_S = np.geomspace(1e-4, 0.5, 40)


class TestChunkedSeries:
    @pytest.mark.parametrize("profile", [
        OmegaProfile.log_power(0.5), OmegaProfile.log_power(2.0),
        OmegaProfile.power(1.0), OmegaProfile.constant(1.0),
        OmegaProfile.from_table(_TABLE_S, _TABLE_S ** 0.7),
    ], ids=["log-power-0.5", "log-power-2", "power-1", "constant", "table"])
    def test_bitwise_equal_to_one_shot(self, profile):
        n, t, csum, idx = _one_shot_series(profile)
        diag = dini_series(profile)
        assert np.array_equal(diag.n_values, n[idx])
        assert np.array_equal(diag.terms, t[idx])
        assert np.array_equal(diag.partial_sums, csum[idx])
        assert diag.total == csum[-1]

    @pytest.mark.parametrize("n_max", [1000, 2**16 + 1, 3 * 2**16 + 1])
    def test_chunk_boundaries(self, n_max):
        profile = OmegaProfile.log_power(2.0)
        n, t, csum, idx = _one_shot_series(profile, n_max=n_max)
        diag = dini_series(profile, n_max=n_max)
        assert np.array_equal(diag.terms, t[idx])
        assert np.array_equal(diag.partial_sums, csum[idx])

    @pytest.mark.parametrize("profile", [
        OmegaProfile.log_power(1.0), OmegaProfile.log_power(2.0),
        OmegaProfile.log_power(3.0), OmegaProfile.power(1.0),
        OmegaProfile.power(2.0), OmegaProfile.constant(1.0),
    ], ids=["log-power-1", "log-power-2", "log-power-3", "power-1", "power-2",
            "constant"])
    def test_tail_slope_matches_extended_precision(self, profile):
        n, t, _, _ = _one_shot_series(profile)
        k = np.searchsorted(n, n[-1] / 10.0)
        x, y = np.log(n[k:]), np.log(t[k:])
        ref = _reference_slope(x, y)
        assert abs(_slope(x, y) - ref) <= 4e-15 * abs(ref)
        assert dini_series(profile).tail_exponent == _slope(x, y)

    @pytest.mark.parametrize("profile,expected", [
        (OmegaProfile.power(a), "convergent") for a in (0.5, 1.0, 1.5)
    ] + [
        (OmegaProfile.log_power(b), "convergent" if b > 1 else "divergent")
        for b in (0.5, 1.0, 1.5, 2.0, 3.0)
    ] + [(OmegaProfile.constant(1.0), "divergent")])
    def test_acceptance_family_verdicts(self, profile, expected):
        assert dini_series(profile).verdict == expected

    def test_peak_memory_bounded(self):
        profile = OmegaProfile.log_power(2.0)
        tracemalloc.start()
        try:
            dini_series(profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 75 * 2**20


class TestTailFit:
    def test_slope_of_exact_line(self):
        x = np.linspace(0.0, 5.0, 11)
        assert _slope(x, 3.0 * x + 1.0) == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("x", [np.array([2.0]), np.array([2.0, 2.0]),
                                   np.array([])])
    def test_slope_undetermined(self, x):
        assert _slope(x, np.ones_like(x)) is None

    @pytest.mark.parametrize("n,power,has_slope", [
        (np.r_[np.arange(2.0, 10.0), 1000.0], 2.0, False),  # one-point decade
        (np.arange(2.0, 11.0), 1.1, True),   # n >= 10 window holds one point
        (np.arange(2.0, 10.0), 1.1, True),   # n >= 10 window is empty
    ])
    def test_degenerate_window_inconclusive(self, n, power, has_slope):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, b, verdict = _two_stage_tail_fit(n, n ** -power)
        assert verdict == "inconclusive" and b is None
        if has_slope:
            assert slope == pytest.approx(-power, rel=1e-12)
        else:
            assert math.isnan(slope)


class TestEquivalence:
    @pytest.mark.parametrize("beta,expected", [(3.0, "convergent"), (1.0, "divergent")])
    def test_log_power_boundary(self, beta, expected):
        rep = equivalence_check(OmegaProfile.log_power(beta))
        assert rep.agree is True
        assert rep.series.verdict == expected

    def test_sqrt_profile(self):
        rep = equivalence_check(OmegaProfile.power(0.5))
        assert rep.agree is True
        assert rep.series.verdict == "convergent"


class TestLemmaA1:
    def test_linear_profile_decade_bracket(self):
        # integrand s*exp(-1/s) against closed comparison tau^3*exp(-1/tau)
        rows = endpoint_equivalence_ratios(OmegaProfile.power(1.0), m=2.0, l=0.0, A=1.0,
                              tau_list=np.geomspace(1e-2, 1e-1, 10))
        ratios = np.array([r.ratio for r in rows])
        assert np.all(np.isfinite(ratios))
        assert ratios.max() / ratios.min() < 10.0
        assert np.all((ratios > 0.1) & (ratios < 10.0))

    def test_absorption_weighted_instance(self):
        # the instance driving the matching-radius estimate: integrand
        # r^3 omega^{-1} exp(-A omega/r^2) with A = 1 - theta2 (q=1/2, N=1)
        A = 6.0 / 7.0
        rows = endpoint_equivalence_ratios(OmegaProfile.log_power(2.0), m=5.0, l=-2.0, A=A,
                              tau_list=np.geomspace(1e-2, 1e-1, 10))
        ratios = np.array([r.ratio for r in rows])
        assert np.all(np.isfinite(ratios))
        assert np.all((ratios > 0.1) & (ratios < 10.0))

    def test_against_independent_composite_rule(self):
        prof = OmegaProfile.power(1.0)
        tau = 0.1

        def logf(s):
            w = prof.omega(s)
            return np.log(s) * 0.0 + np.log(w) - w / s**2  # m=2, l=0, A=1

        row = endpoint_equivalence_ratios(prof, m=2.0, l=0.0, A=1.0, tau_list=[tau])[0]
        log_oracle = composite_endpoint_integral(logf, tau)
        assert math.exp(row.log_integral - log_oracle) == pytest.approx(1.0, rel=1e-2)


class TestSpectralLogSum:
    def test_geometric_mu_closed_form(self):
        # mu_n = 2^n: sum ln(mu)/mu = ln2 * sum n/2^n = 2 ln 2
        mu = 2.0 ** np.arange(1, 21)
        diag = spectral_log_sum(mu)
        assert diag.total == pytest.approx(2.0 * math.log(2.0), abs=1e-3)
        assert diag.verdict == "convergent"

    def test_linear_mu_divergent(self):
        with pytest.warns(UserWarning):
            diag = spectral_log_sum(np.arange(1.0, 40000.0))  # mu_1 = 1 rejected
        assert diag.rejected == 1
        assert diag.verdict == "divergent"

    def test_all_rejected_raises(self):
        with pytest.warns(UserWarning):
            with pytest.raises(DomainError):
                spectral_log_sum([0.5, 1.0])
