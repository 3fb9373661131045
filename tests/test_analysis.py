import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from extinctlab import analysis
from extinctlab.analysis import (
    DomainError,
    _two_stage_tail_fit,
    dini_integral,
    dini_series,
    equivalence_check,
    spectral_log_sum,
)
from extinctlab.profiles import OmegaProfile
from oracles import (
    composite_endpoint_integral, endpoint_equivalence_ratios, slope_into, streamed_slope)

#: terms dini_series evaluates at a time; the edge cases below sit on its multiples
CHUNK = analysis._SERIES_CHUNK


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

    def test_refinement_consistency(self, monkeypatch):
        def at_tol(tol):
            monkeypatch.setattr(analysis, "_DINI_TOL", tol)
            return dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0))

        loose, tight = at_tol(1e-4), at_tol(1e-10)
        assert abs(loose.value - tight.value) <= loose.error + tight.error + 1e-12


class TestDiniSeries:
    def test_quadratic_profile_convergent(self):
        # omega(s_n) = 1/(n ln n) so the terms are 1/(n^2 ln n)
        diag = dini_series(OmegaProfile.power(2.0))
        assert diag.verdict == "convergent"

    def test_constant_profile_divergent(self):
        diag = dini_series(OmegaProfile.constant(omega0=1.0))
        assert diag.verdict == "divergent"
        assert diag.tail_exponent == pytest.approx(-1.0, abs=1e-6)

    def test_beta2_matches_integral_verdict(self):
        quad = dini_integral(OmegaProfile.log_power(2.0), c=math.exp(-1.0))
        ser = dini_series(OmegaProfile.log_power(2.0))
        assert quad.verdict == "convergent" and ser.verdict == "convergent"


def _one_shot_series(profile, n_max=1_000_000):
    """Indices, terms and partial sums with all terms in one omega call."""
    n = np.arange(2, n_max + 1, dtype=float)
    t = profile.omega((n * np.log(n)) ** -0.5) / n
    return n, t, np.cumsum(t)


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


def _fit(n, t):
    """The product fit on explicit arrays; it consumes its terms, so it gets
    a copy and ``t`` stays as it was for the reference."""
    return _two_stage_tail_fit(lambda i, j: n[i:j], t.copy())


def _assert_same_fit(got, want):
    """(slope, b, verdict) equal as doubles; a NaN slope matches a NaN."""
    assert got[1:] == want[1:]
    assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


def _assert_same_diagnosis(profile, n_max):
    """dini_series against np.cumsum of the one-shot terms and the
    reference fit, double for double."""
    n, t, csum = _one_shot_series(profile, n_max=n_max)
    diag = dini_series(profile, n_max=n_max)
    assert diag.total == csum[-1]
    _assert_same_fit((diag.tail_exponent, diag.log_factor_exponent, diag.verdict),
                     _reference_tail_fit(n, t))


def _reference_slope(x, y):
    """Centred least-squares slope in long double, means from math.fsum."""
    dx = x.astype(np.longdouble) - np.longdouble(math.fsum(x)) / x.size
    dy = y.astype(np.longdouble) - np.longdouble(math.fsum(y)) / y.size
    return float(np.sum(dx * dy) / np.sum(dx * dx))


_TABLE_S = np.geomspace(1e-4, 0.5, 40)


class TestChunkedSeries:
    @pytest.mark.parametrize("profile", [
        OmegaProfile.log_power(0.5), OmegaProfile.log_power(2.0),
        OmegaProfile.power(1.0), OmegaProfile.constant(omega0=1.0),
        OmegaProfile.from_table(_TABLE_S, _TABLE_S ** 0.7),
    ], ids=["log-power-0.5", "log-power-2", "power-1", "constant", "table"])
    def test_bitwise_equal_to_one_shot(self, profile):
        _assert_same_diagnosis(profile, 1_000_000)

    @pytest.mark.parametrize("n_max", [1000, 4 * CHUNK + 1, 12 * CHUNK + 1])
    def test_chunk_boundaries(self, n_max):
        _assert_same_diagnosis(OmegaProfile.log_power(2.0), n_max)

    @pytest.mark.parametrize("profile", [
        OmegaProfile.log_power(1.0), OmegaProfile.log_power(2.0),
        OmegaProfile.log_power(3.0), OmegaProfile.power(1.0),
        OmegaProfile.power(2.0), OmegaProfile.constant(omega0=1.0),
    ], ids=["log-power-1", "log-power-2", "log-power-3", "power-1", "power-2",
            "constant"])
    def test_tail_slope_matches_extended_precision(self, profile):
        n, t, _ = _one_shot_series(profile)
        k = np.searchsorted(n, n[-1] / 10.0)
        x, y = np.log(n[k:]), np.log(t[k:])
        ref = _reference_slope(x, y)
        assert abs(slope_into(x.copy(), y.copy()) - ref) <= 4e-15 * abs(ref)
        assert dini_series(profile).tail_exponent == slope_into(x.copy(), y.copy())

    @pytest.mark.parametrize("profile,expected", [
        (OmegaProfile.power(a), "convergent") for a in (0.5, 1.0, 1.5)
    ] + [
        (OmegaProfile.log_power(b), "convergent" if b > 1 else "divergent")
        for b in (0.5, 1.0, 1.5, 2.0, 3.0)
    ] + [(OmegaProfile.constant(omega0=1.0), "divergent")])
    def test_acceptance_family_verdicts(self, profile, expected):
        assert dini_series(profile).verdict == expected

    @pytest.mark.parametrize("profile", [OmegaProfile.log_power(2.0),
                                         OmegaProfile.power(1.0)],
                             ids=["log-power-2", "power-1"])
    def test_peak_memory_bounded(self, profile):
        # t, one array of n_max doubles, plus chunk-sized buffers and
        # temporaries (log-power-2 runs both fit stages, power-1 only the
        # first); no array as long as a fit window
        n_max = 1_000_000
        tracemalloc.start()
        try:
            dini_series(profile, n_max=n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n_max

    def test_mostly_zero_terms_bitwise(self):
        # (n ln n)^-100 / n underflows to 0 past n = 287: the fit keeps the
        # 286 terms before the first zero
        profile = OmegaProfile.power(200.0)
        _, t, _ = _one_shot_series(profile)
        assert 8 <= np.count_nonzero(t > 0) < t.size
        _assert_same_diagnosis(profile, 1_000_000)

    @pytest.mark.parametrize("n_max", [2, 3, 9, 10, 11, 4 * CHUNK + 1, 4 * CHUNK + 2])
    @pytest.mark.parametrize("profile", [
        OmegaProfile.constant(omega0=1.0), OmegaProfile.log_power(2.0), OmegaProfile.power(200.0),
    ], ids=["constant", "log-power-2", "power-200"])
    def test_edges_bitwise(self, profile, n_max):
        # one term, fewer than 8 terms, fit windows of 0, 1 and 2 points past
        # n = 10, and n_max - 1 terms that end on a chunk edge or one past it
        _assert_same_diagnosis(profile, n_max)

    def test_empty_series_inconclusive(self):
        diag = dini_series(OmegaProfile.constant(omega0=1.0), n_max=1)
        assert diag.verdict == "inconclusive" and diag.total == 0.0


_ACCEPTANCE_FAMILY = [
    pytest.param(OmegaProfile.power(a), id=f"power-{a}") for a in (0.5, 1.0, 1.5)
] + [
    pytest.param(OmegaProfile.log_power(b), id=f"log-power-{b}")
    for b in (0.5, 1.0, 1.5, 2.0, 3.0)
] + [pytest.param(OmegaProfile.constant(omega0=1.0), id="constant")]

_DEGENERATE_WINDOWS = [
    (np.r_[np.arange(2.0, 10.0), 1000.0], 2.0),  # one-point decade
    (np.arange(2.0, 11.0), 1.1),   # n >= 10 window holds one point
    (np.arange(2.0, 10.0), 1.1),   # n >= 10 window is empty
]


class TestTailFitOracle:
    """The buffered fit against the fit as first written, double for double."""

    @pytest.mark.parametrize("profile", _ACCEPTANCE_FAMILY)
    def test_acceptance_family(self, profile):
        n, t, _ = _one_shot_series(profile)
        diag = dini_series(profile)
        want = _reference_tail_fit(n, t)
        _assert_same_fit(_fit(n, t), want)
        _assert_same_fit((diag.tail_exponent, diag.log_factor_exponent, diag.verdict), want)

    @pytest.mark.parametrize("n_max", [1000, 4 * CHUNK + 1, 12 * CHUNK + 1])
    def test_chunk_boundaries(self, n_max):
        n, t, _ = _one_shot_series(OmegaProfile.log_power(2.0), n_max=n_max)
        _assert_same_fit(_fit(n, t), _reference_tail_fit(n, t))

    @pytest.mark.parametrize("n,power", _DEGENERATE_WINDOWS)
    def test_degenerate_windows(self, n, power):
        t = n ** -power
        _assert_same_fit(_fit(n, t), _reference_tail_fit(n, t))

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_spectral_criterion_sized_window(self, beta):
        # n = 2..40: the last decade starts at n = 4, before the n >= 10
        # window, so the first fit is the longer one
        n = np.arange(2.0, 41.0)
        t = 1.0 / (n * np.log(n) ** beta)
        _assert_same_fit(_fit(n, t), _reference_tail_fit(n, t))

    def test_series_ends_at_underflow(self):
        # power(93)'s terms underflow to 0 past n = 521,156 and stay 0: the
        # series is its positive prefix, fitted as the reference fits it
        profile = OmegaProfile.power(93.0)
        n, t, csum = _one_shot_series(profile)
        kept = np.count_nonzero(t > 0)
        assert 0 < kept < t.size and np.all(t[:kept] > 0)
        diag = dini_series(profile)
        assert diag.total == csum[-1]
        _assert_same_fit((diag.tail_exponent, diag.log_factor_exponent, diag.verdict),
                         _reference_tail_fit(n[:kept], t[:kept]))

    def test_no_positive_term_convergent(self):
        diag = dini_series(OmegaProfile.power(5000.0))
        assert (diag.total, diag.tail_exponent, diag.verdict) == (0.0, 0.0, "convergent")


class TestTailFit:
    def test_slope_of_exact_line(self):
        x = np.linspace(0.0, 5.0, 11)
        assert streamed_slope(x, 3.0 * x + 1.0) == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("x", [np.array([2.0]), np.array([2.0, 2.0]),
                                   np.array([])])
    def test_slope_undetermined(self, x):
        assert streamed_slope(x, np.ones_like(x)) is None

    @pytest.mark.parametrize("n,power,has_slope", [
        (np.r_[np.arange(2.0, 10.0), 1000.0], 2.0, False),  # one-point decade
        (np.arange(2.0, 11.0), 1.1, True),   # n >= 10 window holds one point
        (np.arange(2.0, 10.0), 1.1, True),   # n >= 10 window is empty
    ])
    def test_degenerate_window_inconclusive(self, n, power, has_slope):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, b, verdict = _fit(n, n ** -power)
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
