import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from extinctlab import analysis
from extinctlab.analysis import (
    DomainError,
    _slope,
    _two_stage_tail_fit,
    dini_integral,
    dini_series,
    equivalence_check,
    spectral_log_sum,
)
from extinctlab.profiles import OmegaProfile
from oracles import composite_endpoint_integral, endpoint_equivalence_ratios


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
        res = dini_integral(OmegaProfile.constant(omega0=0.5), c=1.0)
        assert res.verdict == "divergent"

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            dini_integral(OmegaProfile.power(1.0), c=-1.0)

    def test_value_within_error_of_closed_form(self):
        # the integral over (0, 1/e) of log-power beta is 1/(beta - 1)
        for beta in (1.2, 2.0, 3.0):
            res = dini_integral(OmegaProfile.log_power(beta), c=math.exp(-1.0))
            assert res.converged
            assert abs(res.value - 1.0 / (beta - 1.0)) <= res.error


class TestDiniSeries:
    def test_quadratic_profile_convergent(self):
        # omega(s_n) = 1/(n ln n) so the terms are 1/(n^2 ln n)
        diag = dini_series(OmegaProfile.power(2.0))
        assert diag.verdict == "convergent"

    def test_constant_profile_divergent(self):
        # the condensed terms are all omega0: c_k ~ u_k^0
        diag = dini_series(OmegaProfile.constant(omega0=1.0))
        assert diag.verdict == "divergent"
        assert diag.log_factor_exponent == 0.0

    def test_beta2_matches_integral_verdict(self):
        quad = dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0))
        ser = dini_series(OmegaProfile.log_power(2.0))
        assert quad.verdict == "convergent" and ser.verdict == "convergent"


def _fit_window(profile):
    """ln u_k and ln c_k of the condensed terms that dini_series fits: u_k
    >= u_K / 10, every one of them, ln c_k straight from the primitive."""
    u, log_c = analysis._condensed_terms(profile)
    keep = u >= u[-1] / 10.0
    return np.log(u[keep]), log_c[keep]


def _one_shot_series(profile):
    """dini_series written out in one pass from its definition: the direct
    terms n < 2^14 and the condensed terms c_k = omega(s_k), both taken in
    u = ln(1/s), the bracket on the terms past 2^14, b and its drift between
    the fit window's halves from the oracle slope, and the verdict from the
    band and its direction guard."""
    n = np.arange(2.0, 2.0**analysis._DIRECT_BITS)
    head = float(np.sum(np.exp(profile.log_omega(0.5 * np.log(n * np.log(n)))[0]) / n))
    k_ln2 = np.arange(1, analysis._CONDENSED_TERMS + 1) * math.log(2.0)
    u = 0.5 * (k_ln2 + np.log(k_ln2))
    c = np.exp(profile.log_omega(u)[0])
    low = 0.5 * np.sum(c[analysis._DIRECT_BITS:])
    high = np.sum(c[analysis._DIRECT_BITS - 1:-1])
    x, y = _fit_window(profile)
    half = x.size // 2
    b, first, second = (0.0 - oracles.slope_into(x[part].copy(), y[part].copy())
                        for part in (slice(None), slice(half), slice(half, None)))
    drift = second - first
    verdict = ("divergent" if b <= 1.0 + 1e-9 and drift <= 1e-9 else
               "convergent" if b > 1.05 and drift >= -1e-9 else "inconclusive")
    return analysis.CondensedSeries(head + float(low + high) / 2, float(high - low) / 2,
                                    b, drift, verdict)


def _dini_terms(profile, n_max):
    """n = 2..n_max and t_n = omega((n ln n)^(-1/2)) / n, cut before the
    first term that underflows to 0 (the terms do not rise again)."""
    n = np.arange(2, n_max + 1, dtype=float)
    t = profile.omega((n * np.log(n)) ** -0.5) / n
    kept = np.count_nonzero(t > 0)
    assert np.all(t[:kept] > 0)
    return n[:kept], t[:kept]


def _assert_same_diagnosis(profile, n_max):
    """The spectral sums' _diagnose_series on the Dini terms to n_max against
    np.cumsum of the terms and the fit as first written, double for double."""
    n, t = _dini_terms(profile, n_max)
    diag = analysis._diagnose_series(n, t, rejected=0)
    if t.size == 0:
        assert (diag.total, diag.verdict) == (0.0, "inconclusive")
        return
    assert diag.total == np.cumsum(t)[-1]
    assert diag.verdict == _reference_tail_fit(n, t)[2]


def _reference_slope(x, y):
    """Centred least-squares slope in long double, means from math.fsum."""
    dx = x.astype(np.longdouble) - np.longdouble(math.fsum(x)) / x.size
    dy = y.astype(np.longdouble) - np.longdouble(math.fsum(y)) / y.size
    return float(np.sum(dx * dy) / np.sum(dx * dx))


_TABLE_S = np.geomspace(1e-4, 0.5, 40)


class TestChunkedSeries:
    """dini_series, whose condensation reads t_n in dyadic blocks 2^(k-1) <
    n <= 2^k, each bounded by its end terms; and the whole-array total and
    fit that the spectral sums use, on the Dini terms cut at any length."""

    @pytest.mark.parametrize("profile", [
        OmegaProfile.log_power(0.5), OmegaProfile.log_power(2.0),
        OmegaProfile.power(1.0), OmegaProfile.constant(omega0=1.0),
        OmegaProfile.from_table(_TABLE_S, _TABLE_S ** 0.7),
    ], ids=["log-power-0.5", "log-power-2", "power-1", "constant", "table"])
    def test_bitwise_equal_to_one_shot(self, profile):
        assert dini_series(profile) == _one_shot_series(profile)

    @pytest.mark.parametrize("n_max", [1000, 4 * 2**14 + 1, 12 * 2**14 + 1])
    def test_chunk_boundaries(self, n_max):
        # long series, one past multiples of 2^14 terms, where numpy's
        # pairwise sums split deep
        _assert_same_diagnosis(OmegaProfile.log_power(2.0), n_max)

    @pytest.mark.parametrize("profile,expected", [
        (OmegaProfile.power(a), "convergent") for a in (0.5, 1.0, 1.5)
    ] + [
        (OmegaProfile.log_power(b), "convergent" if b > 1 else "divergent")
        for b in (0.5, 1.0, 1.5, 2.0, 3.0)
    ] + [(OmegaProfile.constant(omega0=1.0), "divergent")])
    def test_acceptance_family_verdicts(self, profile, expected):
        assert dini_series(profile).verdict == expected

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_log_factor_exponent_is_beta(self, beta):
        # c_k = u_k^(-beta) exactly once u_k passes the cap at u = 1
        assert dini_series(OmegaProfile.log_power(beta)).log_factor_exponent == \
            pytest.approx(beta, abs=1e-12)

    @pytest.mark.parametrize("profile", [
        OmegaProfile.log_power(1.0), OmegaProfile.log_power(2.0),
        OmegaProfile.log_power(3.0), OmegaProfile.power(1.0),
        OmegaProfile.power(2.0), OmegaProfile.constant(omega0=1.0),
    ], ids=["log-power-1", "log-power-2", "log-power-3", "power-1", "power-2",
            "constant"])
    def test_tail_slope_matches_extended_precision(self, profile):
        ref = _reference_slope(*_fit_window(profile))
        assert abs(-dini_series(profile).log_factor_exponent - ref) <= 4e-15 * abs(ref)

    @pytest.mark.parametrize("profile", [OmegaProfile.power(1.0), OmegaProfile.log_power(3.0)],
                             ids=["power-1", "log-power-3"])
    def test_bracket_meets_integral_test_reference(self, profile):
        low, high = oracles.dini_series_bracket(profile)
        diag = dini_series(profile)
        assert diag.error > 0
        assert diag.total - diag.error <= high and low <= diag.total + diag.error

    def test_omega_points_counted(self, monkeypatch):
        # the direct terms n < 2^14 and the 1000 condensed ones, no more
        points = []
        for name in ("omega", "log_omega"):
            real = getattr(OmegaProfile, name)

            def counted(self, x, real=real):
                points.append(np.size(x))
                return real(self, x)
            monkeypatch.setattr(OmegaProfile, name, counted)
        dini_series(OmegaProfile.log_power(2.0))
        assert 0 < sum(points) <= 2**14 + 1000

    @pytest.mark.parametrize("profile", [OmegaProfile.log_power(2.0),
                                         OmegaProfile.power(1.0)],
                             ids=["log-power-2", "power-1"])
    def test_peak_memory_bounded(self, profile):
        # the direct terms, 2^14 doubles, and their temporaries: no array as
        # long as the series it decides
        tracemalloc.start()
        try:
            dini_series(profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_mostly_zero_terms_bitwise(self):
        # power(10)'s condensed terms exp(-10 u_k) underflow to 0 past
        # u = 74.5, but their logs -10 u_k do not: the fit reads its whole
        # window, as the whole-array slope of the oracles reads it
        profile = OmegaProfile.power(10.0)
        u, log_c = analysis._condensed_terms(profile)
        window = log_c[u >= u[-1] / 10.0]
        assert np.count_nonzero(np.exp(window) > 0) < window.size
        assert np.all(np.isfinite(window))
        diag = dini_series(profile)
        assert diag.verdict == "convergent"
        assert -diag.log_factor_exponent == oracles.slope_into(*_fit_window(profile))

    @pytest.mark.parametrize("n_max", [2, 3, 9, 10, 11, 4 * 2**14 + 1, 4 * 2**14 + 2])
    @pytest.mark.parametrize("profile", [
        OmegaProfile.constant(omega0=1.0), OmegaProfile.log_power(2.0), OmegaProfile.power(200.0),
    ], ids=["constant", "log-power-2", "power-200"])
    def test_edges_bitwise(self, profile, n_max):
        # one term, fewer than 8 terms, fit windows of 0, 1 and 2 points past
        # n = 10, and long series; power-200's terms underflow past n = 287
        _assert_same_diagnosis(profile, n_max)

    def test_empty_series_inconclusive(self):
        # n = 2..1 holds no term: nothing to fit, nothing to judge
        _assert_same_diagnosis(OmegaProfile.constant(omega0=1.0), 1)


def _reference_tail_fit(n, t):
    """The two-stage fit as first written: full-length ln n, ln t, ln ln n
    and n t arrays, and two fresh centring arrays per slope."""
    def slope(x, y):
        if x.size < 2 or x[0] == x[-1]:
            return None
        dx = x - x.mean()
        scratch = np.square(dx)
        sxx = float(scratch.sum())
        np.subtract(y, y.mean(), out=scratch)
        scratch *= dx
        return float(scratch.sum()) / sxx

    pos = t > 0
    if np.count_nonzero(pos) < 8:
        return 0.0, None, "convergent"
    n, t = n[pos], t[pos]
    ln_n = np.log(n)
    last_decade = slice(np.searchsorted(n, n[-1] / 10.0), None)
    a = slope(ln_n[last_decade], np.log(t[last_decade]))
    if a is None:
        return math.nan, None, "inconclusive"
    if a < -1.3:
        return a, None, "convergent"
    if a > -0.95:
        return a, None, "divergent"
    wide = slice(np.searchsorted(n, max(10.0, n[0])), None)
    b = slope(np.log(ln_n[wide]), np.log(n[wide] * t[wide]))
    if b is None:
        return a, None, "inconclusive"
    b = -b
    verdict = "convergent" if b > 1.05 else "divergent" if b < 0.95 else "inconclusive"
    return a, b, verdict


def _assert_same_fit(got, want):
    """(slope, b, verdict) equal as doubles; a NaN slope matches a NaN."""
    assert got[1:] == want[1:]
    assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


_DEGENERATE_WINDOWS = [
    (np.r_[np.arange(2.0, 10.0), 1000.0], 2.0),  # one-point decade
    (np.arange(2.0, 11.0), 1.1),   # n >= 10 window holds one point
    (np.arange(2.0, 10.0), 1.1),   # n >= 10 window is empty
]


_ACCEPTANCE_FAMILY = [
    pytest.param(OmegaProfile.power(a), id=f"power-{a}") for a in (0.5, 1.0, 1.5)
] + [
    pytest.param(OmegaProfile.log_power(b), id=f"log-power-{b}")
    for b in (0.5, 1.0, 1.5, 2.0, 3.0)
] + [pytest.param(OmegaProfile.constant(omega0=1.0), id="constant")]


class TestTailFitOracle:
    """The spectral sums' whole-array fit against the fit as first written,
    double for double; and dini_series where its terms underflow, leaving
    too few to fit."""

    @pytest.mark.parametrize("profile", _ACCEPTANCE_FAMILY)
    def test_acceptance_family(self, profile):
        # the Dini terms n = 2..60, as many as a spectral sum has at most
        n = np.arange(2.0, 61.0)
        t = profile.omega((n * np.log(n)) ** -0.5) / n
        _assert_same_fit(_two_stage_tail_fit(n, t), _reference_tail_fit(n, t))

    @pytest.mark.parametrize("n_max", [1000, 4 * 2**14 + 1, 12 * 2**14 + 1])
    def test_chunk_boundaries(self, n_max):
        n, t = _dini_terms(OmegaProfile.log_power(2.0), n_max)
        _assert_same_fit(_two_stage_tail_fit(n, t), _reference_tail_fit(n, t))

    @pytest.mark.parametrize("n,power", _DEGENERATE_WINDOWS)
    def test_degenerate_windows(self, n, power):
        t = n ** -power
        _assert_same_fit(_two_stage_tail_fit(n, t), _reference_tail_fit(n, t))

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_spectral_criterion_sized_window(self, beta):
        # n = 2..40: the last decade starts at n = 4, before the n >= 10
        # window, so the first fit is the longer one
        n = np.arange(2.0, 41.0)
        t = 1.0 / (n * np.log(n) ** beta)
        _assert_same_fit(_two_stage_tail_fit(n, t), _reference_tail_fit(n, t))


    def test_series_reads_past_underflow(self):
        # power(93)'s condensed terms underflow to 0 before u_K / 10 = 35,
        # but ln c_k = -93 u_k does not: b is the finite slope of -93 u
        # against ln u over the window, far above 1
        diag = dini_series(OmegaProfile.power(93.0))
        assert diag.verdict == "convergent"
        assert math.isfinite(diag.log_factor_exponent) and diag.log_factor_exponent > 1.05
        assert diag.total > 0 and math.isfinite(diag.total)

    def test_no_positive_term_convergent(self):
        # every t_n and c_k underflows (u >= 0.16 there); b stays finite
        diag = dini_series(OmegaProfile.power(5000.0))
        assert (diag.total, diag.error, diag.verdict) == (0.0, 0.0, "convergent")
        assert math.isfinite(diag.log_factor_exponent) and diag.log_factor_exponent > 1.05

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

    def test_window_cap_is_inconclusive(self, monkeypatch):
        # two windows can never be the three quiet ones the sweep needs, so
        # every row hits the cap: no partial sum may pass for a ratio
        monkeypatch.setattr(oracles, "_ENDPOINT_MAX_WINDOWS", 2)
        rows = endpoint_equivalence_ratios(OmegaProfile.power(1.0), m=2.0, l=0.0, A=1.0,
                                           tau_list=[0.05, 0.1])
        for row in rows:
            assert row.inconclusive
            assert math.isnan(row.log_integral) and math.isnan(row.ratio)


class TestSpectralLogSum:
    def test_geometric_mu_closed_form(self):
        # mu_n = 2^n: sum ln(mu)/mu = ln2 * sum n/2^n = 2 ln 2
        mu = 2.0 ** np.arange(1, 21)
        diag = spectral_log_sum(mu)
        assert diag.total == pytest.approx(2.0 * math.log(2.0), abs=1e-3)
        assert diag.verdict == "convergent"

    def test_linear_mu_divergent(self):
        diag = spectral_log_sum(np.arange(1.0, 40000.0))  # mu_1 = 1 rejected
        assert diag.rejected == 1
        assert diag.verdict == "divergent"

    def test_all_rejected_inconclusive(self):
        diag = spectral_log_sum([0.5, 1.0])
        assert diag.verdict == "inconclusive"
        assert diag.total == 0 and diag.rejected == 2
