"""Quadrature and series engines for the extinction criteria.

Two independent routes decide whether a profile admits finite-time
extinction: the endpoint integral of omega(s)/s near s = 0, and the series
sum_n omega((n ln n)^{-1/2})/n.  Both must agree.  Both are read in the
radius variable u = ln(1/s), which turns the borderline logarithmic
profiles into plain power tails: the integral through geometric
dyadic-window sums, the series through Cauchy's condensation test, whose
terms c_k = 2^k t_{2^k} (k = 1..1000) reach u = 350.  Both read omega
through its one primitive, ``OmegaProfile.log_omega``: the integral takes
its exp, and the series fits ln c_k as it comes, so no term underflows.
The series calls itself divergent when c_k ~ u_k^(-b) with b <= 1, up to
rounding, and convergent when b > 1.05; in between it is inconclusive.
Its total covers n < 2^1000: a direct sum for n < 2^14 and, for the rest,
the bracket that condensation gives.

All integrands carrying the factor exp(-A*omega(s)/s**2) go through one
log-space 32-point Gauss-Legendre rule, ``log_segment_integrals``: it
returns the log of each segment's integral, scaling every segment by its
own largest integrand, so magnitudes far below the double-precision
underflow limit stay exact.  The dominating curve of ``odi`` takes running
sums of its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import OmegaProfile

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES_HALF, _GL_WEIGHTS_HALF = np.polynomial.legendre.leggauss(16)

#: window-sum ratio above which decay no longer counts as geometric
_DIVERGENCE_RATIO = 0.97
#: consecutive non-decaying windows before an integral is declared divergent
_DIVERGENCE_RUN = 20
#: condensed terms c_k, k = 1.._CONDENSED_TERMS, of dini_series: u_K = 349.8
_CONDENSED_TERMS = 1000
#: dini_series sums t_n term by term for n < 2**_DIRECT_BITS
_DIRECT_BITS = 14
#: b at or below this is divergent: 1 plus a rounding allowance, so that
#: log-power beta = 1, whose b is 1 to about 1e-14, stays divergent
_SERIES_DIVERGENT_B = 1.0 + 1e-9
#: b above this is convergent; between the two bounds, inconclusive
_SERIES_CONVERGENT_B = 1.05
#: dyadic windows dini_integral sums before it gives up as inconclusive
_DINI_MAX_WINDOWS = 400
#: largest geometric-tail bound dini_integral accepts as convergent
_DINI_TOL = 1e-9


class DomainError(ValueError):
    """Integrand not defined on the requested interval."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
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
    verdict: str  # "convergent" | "divergent" | "inconclusive"


def _gl_window(f, a: float, b: float) -> tuple[float, float]:
    """32-point Gauss-Legendre on [a, b] with a 16-point error estimate."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    v32 = half * np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES))
    v16 = half * np.dot(_GL_WEIGHTS_HALF, f(mid + half * _GL_NODES_HALF))
    return float(v32), abs(float(v32 - v16))


def dini_integral(omega: OmegaProfile, c: float) -> QuadratureResult:
    """Adaptive evaluation of the endpoint integral of omega(s)/s over (0, c).

    Substituting u = ln(1/s) gives the integral of omega(exp(-u)) du over
    (ln(1/c), inf); dyadic windows in u are summed until either the window
    sums decay geometrically (convergent, with the geometric tail added and
    its mismatch charged to the error) or they fail to decay for 20
    consecutive windows (divergent).
    """
    if c <= 0:
        raise DomainError("upper limit c must be positive")
    probe = omega.omega(np.geomspace(min(c, 0.5) * 1e-6, min(c, 0.5), 16))
    if not np.all(np.isfinite(probe)) or np.any(probe < 0):
        raise DomainError("omega is not finite and nonnegative near 0")

    value = 0.0
    err = 0.0
    # regular part between s = min(c, 1/e) and c, in the original variable
    s_break = min(c, math.exp(-1.0))
    if c > s_break:
        v, e = _gl_window(lambda s: omega.omega(s) / s, s_break, c)
        value += v
        err += e

    u0 = max(math.log(1.0 / s_break), 1.0)
    windows = []
    for k in range(_DINI_MAX_WINDOWS):
        a, b = u0 * 2.0**k, u0 * 2.0 ** (k + 1)
        w, e = _gl_window(lambda u: np.exp(omega.log_omega(u)[0]), a, b)
        windows.append(w)
        value += w
        err += e

        if len(windows) > _DIVERGENCE_RUN:
            recent = windows[-(_DIVERGENCE_RUN + 1):]
            ratios = [recent[i + 1] / recent[i] for i in range(_DIVERGENCE_RUN)
                      if recent[i] > 0]
            if len(ratios) == _DIVERGENCE_RUN and min(ratios) >= _DIVERGENCE_RATIO:
                return QuadratureResult(value, err, "divergent")

        if len(windows) >= 4:
            last = windows[-4:]
            if last[0] <= 0 or max(last) == 0:
                # integrand fell below representable range: tail is exactly 0
                return QuadratureResult(value, err, "convergent")
            rhos = [last[i + 1] / last[i] for i in range(3) if last[i] > 0]
            if len(rhos) == 3 and max(rhos) < 0.9:
                rho = float(np.mean(rhos))
                tail = windows[-1] * rho / (1.0 - rho)
                bound = windows[-1] * max(rhos) / (1.0 - max(rhos))
                if bound < _DINI_TOL:
                    return QuadratureResult(value + tail, err + bound, "convergent")
    return QuadratureResult(value, err, "inconclusive")


def _slope(x: np.ndarray, y: np.ndarray) -> float | None:
    """Least-squares slope of y against ascending x: sum((x - mean x)(y -
    mean y)) / sum((x - mean x)^2), each a numpy pairwise sum.  None when x
    holds fewer than two distinct values."""
    if x.size < 2 or x[0] == x[-1]:
        return None
    dx = x - x.sum() / x.size
    return float(np.sum((y - y.sum() / y.size) * dx) / np.sum(np.square(dx)))


def _two_stage_tail_fit(n: np.ndarray, t: np.ndarray) -> tuple[float, float | None, str]:
    """Verdict for sum t_n from a power fit plus a log-factor refinement.

    A plain log-log slope cannot separate 1/(n ln n) from 1/(n ln^2 n) at any
    reachable index, so slopes inside (-1.3, -0.95) fall through to a second
    fit of ln(n * t_n) against ln ln n whose slope estimates the log-factor
    exponent: summable iff > 1.  The terms t are positive, or fewer than 8
    and unread; their indices n are ascending doubles, so that both fit
    windows are suffixes.  A window with fewer than two distinct indices
    determines no slope and makes the verdict "inconclusive" (with a NaN
    tail exponent when it is the first window).
    """
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
    if t.size == 0:  # no usable term: nothing to fit, nothing to judge
        return SeriesDiagnosis(0.0, "inconclusive", rejected)
    return SeriesDiagnosis(float(np.cumsum(t)[-1]), _two_stage_tail_fit(n, t)[2], rejected)


def _condensed_terms(omega: OmegaProfile) -> tuple[np.ndarray, np.ndarray]:
    """(u_k, ln c_k) for k = 1.._CONDENSED_TERMS: c_k = 2^k t_{2^k} = omega(s_k)
    at u_k = ln(1/s_k) = (k ln 2 + ln(k ln 2)) / 2, taken in u so that no s_k
    underflows, and in ln omega so that no c_k does."""
    k_ln2 = np.arange(1, _CONDENSED_TERMS + 1) * math.log(2.0)
    u = 0.5 * (k_ln2 + np.log(k_ln2))
    return u, omega.log_omega(u)[0]


def dini_series(omega: OmegaProfile) -> CondensedSeries:
    """Sum over n >= 2 of t_n = omega((n ln n)^{-1/2}) / n, by Cauchy's
    condensation test.

    The terms t_n are nonincreasing (eventually so on every built-in kind),
    so the series converges exactly when sum_k c_k does, c_k = 2^k t_{2^k}.
    The verdict reads b, minus the least-squares slope of ln c_k against
    ln u_k over u_k >= u_K / 10: c_k ~ u_k^(-b), summable iff b > 1.  ln c_k
    comes from ``log_omega``, finite also where c_k underflows, so b is
    finite on every kind that is finite at s > 0.

    The total sums t_n for n < 2^_DIRECT_BITS and brackets the rest up to
    n = 2^_CONDENSED_TERMS between (1/2) sum_{k > _DIRECT_BITS} c_k and
    sum_{k >= _DIRECT_BITS} c_k; it is the bracket's midpoint, and its
    half-width is the error.
    """
    n = np.arange(2.0, 2.0**_DIRECT_BITS)
    head = float(np.sum(np.exp(omega.log_omega(0.5 * np.log(n * np.log(n)))[0]) / n))
    u, log_c = _condensed_terms(omega)
    c = np.exp(log_c)
    low, high = 0.5 * np.sum(c[_DIRECT_BITS:]), np.sum(c[_DIRECT_BITS - 1:-1])
    fit = u >= u[-1] / 10.0
    # 0.0 - slope: a flat fit reads b = 0, not -0
    b = 0.0 - _slope(np.log(u[fit]), log_c[fit])
    verdict = ("divergent" if b <= _SERIES_DIVERGENT_B else
               "convergent" if b > _SERIES_CONVERGENT_B else "inconclusive")
    return CondensedSeries(head + float(low + high) / 2, float(high - low) / 2, b, verdict)


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
