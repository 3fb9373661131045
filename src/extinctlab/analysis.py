"""Quadrature and series engines for the extinction criteria.

Two independent routes decide whether a profile admits finite-time
extinction: the endpoint integral of omega(s)/s near s = 0, and the series
sum_n omega((n ln n)^{-1/2})/n.  Both must agree.  Read in u = ln(1/s),
the borderline logarithmic profiles become plain power tails, and both
routes hand one tail test, ``_tail_test``, the logs of terms t_k ~
u_k^(-b): the integral's means over windows of u in geometric progression,
the series' condensed terms c_k = 2^k t_{2^k} (k = 1..1000, u <= 350).
Both take ln omega from ``OmegaProfile.log_omega``, so no term underflows.
The series' total covers n < 2^1000: a direct sum for n < 2^14 and, for
the rest, the bracket that condensation gives.  The spectral criterion
hands the same test its own condensed terms, with a drift allowance scaled
to b; the mu-log sum keeps a two-stage fit against n.

All integrands go through one log-space 32-point Gauss-Legendre rule,
``log_segment_integrals``: it returns the log of each segment's integral,
scaling every segment by its own largest integrand, so magnitudes far below
the double-precision underflow limit stay exact.  The Dini integral takes
all its windows from one call, and the dominating curve of ``odi`` takes
running sums of its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import OmegaProfile

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

#: dini_integral's windows per octave of u, and its octaves past u0
_WINDOWS_PER_OCTAVE = 8
_OCTAVES = 60
#: condensed terms c_k, k = 1.._CONDENSED_TERMS, of dini_series: u_K = 349.8
_CONDENSED_TERMS = 1000
#: dini_series sums t_n term by term for n < 2**_DIRECT_BITS
_DIRECT_BITS = 14


class DomainError(ValueError):
    """Integrand not defined on the requested interval."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    exponent: float  # b, with window means ~ u_k^(-b)
    drift: float     # b on the fit window's second half minus b on its first
    verdict: str  # "convergent" | "divergent" | "inconclusive"

    @property
    def converged(self) -> bool:
        return self.verdict == "convergent"


@dataclass(frozen=True)
class SeriesDiagnosis:
    total: float
    verdict: str  # "convergent" | "divergent" | "inconclusive"
    rejected: int


@dataclass(frozen=True)
class CondensedSeries:
    total: float               # midpoint of the bracket on the sum over n < 2^1000
    error: float               # half-width of that bracket
    log_factor_exponent: float  # b, with c_k ~ u_k^(-b)
    drift: float               # b on the fit window's second half minus b on its first
    verdict: str  # "convergent" | "divergent" | "inconclusive"


def _slope(x: np.ndarray, y: np.ndarray) -> float | None:
    """Least-squares slope of y against ascending x: sum((x - mean x)(y -
    mean y)) / sum((x - mean x)^2), each a numpy pairwise sum.  None when x
    holds fewer than two distinct values."""
    if x.size < 2 or x[0] == x[-1]:
        return None
    dx = x - x.sum() / x.size
    return float(np.sum((y - y.sum() / y.size) * dx) / np.sum(np.square(dx)))


def _tail_test(u: np.ndarray, log_t: np.ndarray,
               drift_ratio: float = math.inf) -> tuple[float, float, str]:
    """(b, drift, verdict) of a sum or integral of terms t_k ~ u_k^(-b),
    finite iff b > 1, from ln t_k at the ascending u_k.

    b is minus the least-squares slope of ln t against ln u over
    u >= u_K / 10, and drift is b on the window's second half minus b on
    its first.  The verdict is divergent for b <= 1 + 1e-9 (a rounding
    allowance: log-power beta = 1 reads b = 1 to about 1e-14) and
    convergent for b > 1.05, each only while b does not drift toward the
    other side by more than 1e-9, or by more than |b - 1| / drift_ratio
    where that is larger: a falling b, as on 1/(u ln(u)^gamma), may sink to
    1 past every u read.  The Dini routes read b to rounding and keep the
    1e-9; the spectral criterion's b carries a slowly varying factor whose
    drift, a few thousandths at its depth, is no rounding error, so it
    passes a ratio.  Anything else is inconclusive.
    """
    fit = u >= u[-1] / 10.0
    x, y = np.log(u[fit]), log_t[fit]
    half = x.size // 2
    # 0.0 - slope: a flat fit reads b = 0, not -0
    b, first, second = (0.0 - _slope(x[part], y[part])
                        for part in (slice(None), slice(half), slice(half, None)))
    drift = second - first
    allowed = max(1e-9, abs(b - 1.0) / drift_ratio)
    verdict = ("divergent" if b <= 1.0 + 1e-9 and drift <= allowed else
               "convergent" if b > 1.05 and drift >= -allowed else "inconclusive")
    return b, drift, verdict


def dini_integral(omega: OmegaProfile, c: float) -> QuadratureResult:
    """The endpoint integral of omega(s)/s over (0, c), read in u = ln(1/s)
    as the integral of omega(exp(-u)) du over (ln(1/c), inf).

    One ``log_segment_integrals`` call integrates the windows between the
    knots u0 2^(j/8), j = 0..480, from u0 = max(ln(1/c), 1) to
    u_max = u0 2^60, and, when c > 1/e, the range (ln(1/c), 1) before them
    on the knots u_c + (1 - u_c) 2^(-j/8), j = 480..1, after u_c = ln(1/c),
    graded toward u_c, where a steep power exp(-alpha u) falls on a scale
    of 1/alpha; a second call, on every other knot, checks it.  The windows'
    mean values W_k / width_k, at their left knots u_k, go to
    ``_tail_test``: on omega(exp(-u)) ~ u^(-b) they fall as u_k^(-b).  The
    value is the integral up to u_max; a convergent one adds the geometric
    tail past u_max, W_K rho / (1 - rho) with rho = 2^((1-b)/8), exact on
    a pure power of u.  The error is that tail, the part not integrated,
    plus the quadrature's change when every other knot is dropped, plus
    n eps times the value, a rounding allowance over the n segments.  A
    value that is not convergent is the finite part of the integral up to
    u_max, and its error leaves out the tail.
    """
    if c <= 0:
        raise DomainError("upper limit c must be positive")
    probe = omega.omega(np.geomspace(min(c, 0.5) * 1e-6, min(c, 0.5), 16))
    if not np.all(np.isfinite(probe)) or np.any(probe < 0):
        raise DomainError("omega is not finite and nonnegative near 0")

    u_c = -math.log(c)
    steps = np.arange(_OCTAVES * _WINDOWS_PER_OCTAVE + 1) / _WINDOWS_PER_OCTAVE
    knots = max(u_c, 1.0) * 2.0**steps
    lead = [u_c, *(u_c + (1.0 - u_c) * 2.0**-steps[:0:-1])] if u_c < 1.0 else []
    fine = np.concatenate([lead, knots])

    log_w = log_segment_integrals(omega.log_omega, fine)
    b, drift, verdict = _tail_test(knots[:-1], log_w[len(lead):] - np.log(np.diff(knots)))
    w = np.exp(log_w)
    value = float(np.sum(w))
    # the coarse rule's error, which bounds the fine rule's
    coarse = float(np.sum(np.exp(log_segment_integrals(omega.log_omega, fine[::2]))))
    tail = 0.0
    if verdict == "convergent":   # b > 1.05, so the windows' ratio rho < 1
        rho = 2.0 ** ((1.0 - b) / _WINDOWS_PER_OCTAVE)
        tail = float(w[-1] * rho / (1.0 - rho))
    error = tail + abs(value - coarse) + w.size * 2.0**-52 * value
    return QuadratureResult(value + tail, error, b, drift, verdict)


def _two_stage_tail_fit(n: np.ndarray, t: np.ndarray) -> tuple[float, float | None, str]:
    """Verdict for sum t_n from a power fit plus a log-factor refinement.

    A plain log-log slope cannot separate 1/(n ln n) from 1/(n ln^2 n) at any
    reachable index, so slopes inside (-1.3, -0.95) fall through to a second
    fit of ln(n * t_n) against ln ln n whose slope estimates the log-factor
    exponent: summable iff > 1.  The terms t are positive, or fewer than 8
    and unread; their indices n are ascending doubles, so that both fit
    windows are suffixes.  A window with fewer than two distinct indices
    determines no slope and makes the verdict "inconclusive" (with a NaN
    tail exponent when it is the first window), as does a series with no
    term at all.
    """
    if t.size == 0:  # no usable term: nothing to fit, nothing to judge
        return math.nan, None, "inconclusive"
    if t.size < 8:
        return 0.0, None, "convergent"  # too few terms to fit; a finite sum
    decade = np.searchsorted(n, n[-1] / 10.0)
    slope = _slope(np.log(n[decade:]), np.log(t[decade:]))
    if slope is None:
        return math.nan, None, "inconclusive"
    if slope < -1.3:
        return slope, None, "convergent"
    if slope > -0.95:
        return slope, None, "divergent"
    # harmonic boundary: examine the log factor over the full index range
    wide = np.searchsorted(n, max(10.0, n[0]))
    b = _slope(np.log(np.log(n[wide:])), np.log(n[wide:] * t[wide:]))
    if b is None:
        return slope, None, "inconclusive"
    b = -b
    return slope, b, "convergent" if b > 1.05 else "divergent" if b < 0.95 else "inconclusive"


def _diagnose_series(n: np.ndarray, t: np.ndarray, rejected: int) -> SeriesDiagnosis:
    """Tail-fit verdict and total, a sequential running sum, of sum t_n over
    the ascending indices n."""
    total = float(np.cumsum(t)[-1]) if t.size else 0.0
    return SeriesDiagnosis(total, _two_stage_tail_fit(n, t)[2], rejected)


def _condensed_terms(omega: OmegaProfile) -> tuple[np.ndarray, np.ndarray]:
    """(u_k, ln c_k) for k = 1.._CONDENSED_TERMS: c_k = 2^k t_{2^k} = omega(s_k)
    at u_k = ln(1/s_k) = (k ln 2 + ln(k ln 2)) / 2, taken in u so that no s_k
    underflows, and in ln omega so that no c_k does."""
    k_ln2 = np.arange(1, _CONDENSED_TERMS + 1) * math.log(2.0)
    u = 0.5 * (k_ln2 + np.log(k_ln2))
    return u, omega.log_omega(u)


def dini_series(omega: OmegaProfile) -> CondensedSeries:
    """Sum over n >= 2 of t_n = omega((n ln n)^{-1/2}) / n, by Cauchy's
    condensation test.

    The terms t_n are nonincreasing (eventually so on every built-in kind),
    so the series converges exactly when sum_k c_k does, c_k = 2^k t_{2^k}.
    ``_tail_test`` reads b and its drift from ln c_k against u_k:
    c_k ~ u_k^(-b), summable iff b > 1.  ln c_k comes from ``log_omega``,
    finite also where c_k underflows, so b is finite on every kind that is
    finite at s > 0.

    The total sums t_n for n < 2^_DIRECT_BITS and brackets the rest up to
    n = 2^_CONDENSED_TERMS between (1/2) sum_{k > _DIRECT_BITS} c_k and
    sum_{k >= _DIRECT_BITS} c_k; it is the bracket's midpoint, and its
    half-width is the error.
    """
    n = np.arange(2.0, 2.0**_DIRECT_BITS)
    head = float(np.sum(np.exp(omega.log_omega(0.5 * np.log(n * np.log(n)))) / n))
    u, log_c = _condensed_terms(omega)
    c = np.exp(log_c)
    low, high = 0.5 * np.sum(c[_DIRECT_BITS:]), np.sum(c[_DIRECT_BITS - 1:-1])
    return CondensedSeries(head + float(low + high) / 2, float(high - low) / 2,
                           *_tail_test(u, log_c))


@dataclass(frozen=True)
class EquivalenceReport:
    integral: QuadratureResult
    series: CondensedSeries
    agree: bool | None  # None when either side is inconclusive


def equivalence_check(omega: OmegaProfile) -> EquivalenceReport:
    """Do the integral over (0, 1/e) and the condensed series agree on a verdict?

    Inconclusive pairs are reported as agree=None, never coerced.
    """
    quad = dini_integral(omega, math.exp(-1.0))
    ser = dini_series(omega)
    agree = (None if "inconclusive" in (quad.verdict, ser.verdict)
             else quad.verdict == ser.verdict)
    return EquivalenceReport(quad, ser, agree)


def log_segment_integrals(logf, knots: np.ndarray) -> np.ndarray:
    """ln of the integral of exp(logf) over each segment between knots.

    ``logf`` is called once, on the (knots.size - 1, 32) array of every
    segment's Gauss-Legendre nodes.  Each segment is shifted by its own
    largest node value before exponentiation, so integrands far below the
    double range keep their relative accuracy; a segment whose largest
    value is not finite (every node -inf, or a NaN) gets -inf.
    """
    mid, half = 0.5 * (knots[:-1] + knots[1:]), 0.5 * (knots[1:] - knots[:-1])
    g = logf(mid[:, None] + half[:, None] * _GL_NODES)
    m = g.max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):  # rows with no finite max
        out = m + np.log(half * (np.exp(g - m[:, None]) * _GL_WEIGHTS).sum(axis=1))
    return np.where(np.isfinite(m), out, -np.inf)


def mu_log_terms(mu_values) -> np.ndarray:
    """ln(mu_n)/mu_n of each mu_n, and 0 where mu_n <= 1: the mu-log sum
    rejects those terms, whose logarithm is not positive."""
    mu = np.asarray(mu_values, dtype=float)
    good = mu > 1.0
    terms = np.zeros(mu.size)
    terms[good] = np.log(mu[good]) / mu[good]
    return terms


def spectral_log_sum(mu_values) -> SeriesDiagnosis:
    """Total of sum_n ln(mu_n)/mu_n over mu_n > 1, with its tail-fit verdict;
    the rejected terms are counted in ``rejected``, and with no term left the
    series is empty and its verdict inconclusive."""
    good = np.asarray(mu_values, dtype=float) > 1.0
    terms = mu_log_terms(mu_values)[good]
    return _diagnose_series(np.arange(1.0, terms.size + 1), terms,
                            rejected=int(np.count_nonzero(~good)))
