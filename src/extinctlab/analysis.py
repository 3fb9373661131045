"""Quadrature and series engines for the extinction criteria.

Two independent routes decide whether a profile admits finite-time
extinction: the endpoint integral of omega(s)/s near s = 0, and the series
sum_n omega((n ln n)^{-1/2})/n.  Both must agree; the integral is computed
after the substitution u = ln(1/s), which turns the borderline logarithmic
profiles into plain power tails with geometric dyadic-window sums.

All integrands carrying the factor exp(-A*omega(s)/s**2) go through one
log-space 32-point Gauss-Legendre rule, ``log_segment_integrals``: it
returns the log of each segment's integral, scaling every segment by its
own largest integrand, so magnitudes far below the double-precision
underflow limit stay exact.  The endpoint integrals call it once per dyadic
window; the dominating curve of ``odi`` takes running sums of its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import OmegaProfile

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES_HALF, _GL_WEIGHTS_HALF = np.polynomial.legendre.leggauss(16)

#: window-sum ratio above which decay no longer counts as geometric
_DIVERGENCE_RATIO = 0.97
#: consecutive non-decaying windows before an integral is declared divergent
_DIVERGENCE_RUN = 20
#: series indices whose terms dini_series evaluates per omega call
_SERIES_CHUNK = 1 << 16
#: dyadic windows dini_integral sums before it gives up as inconclusive
_DINI_MAX_WINDOWS = 400
#: log_endpoint_integral stops once three windows add less than this share
_ENDPOINT_REL_TOL = 1e-10
#: dyadic windows log_endpoint_integral sweeps before it returns NaN
_ENDPOINT_MAX_WINDOWS = 600


class DomainError(ValueError):
    """Integrand not defined on the requested interval."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    subdivisions: int
    verdict: str  # "convergent" | "divergent" | "inconclusive"
    witness: tuple[float, ...] = ()

    @property
    def converged(self) -> bool:
        return self.verdict == "convergent"


@dataclass(frozen=True)
class SeriesDiagnosis:
    n_values: np.ndarray = field(repr=False)
    terms: np.ndarray = field(repr=False)
    partial_sums: np.ndarray = field(repr=False)
    total: float
    tail_exponent: float
    log_factor_exponent: float | None
    verdict: str  # "convergent" | "divergent" | "inconclusive"
    rejected: int = 0


def _gl_window(f, a: float, b: float) -> tuple[float, float]:
    """32-point Gauss-Legendre on [a, b] with a 16-point error estimate."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    v32 = half * np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES))
    v16 = half * np.dot(_GL_WEIGHTS_HALF, f(mid + half * _GL_NODES_HALF))
    return float(v32), abs(float(v32 - v16))


def dini_integral(omega: OmegaProfile, c: float, tol: float = 1e-9) -> QuadratureResult:
    """Adaptive evaluation of the endpoint integral of omega(s)/s over (0, c).

    Substituting u = ln(1/s) gives the integral of omega(exp(-u)) du over
    (ln(1/c), inf); dyadic windows in u are summed until either the window
    sums decay geometrically (convergent, with the geometric tail added and
    its mismatch charged to the error) or they fail to decay for 20
    consecutive windows (divergent, the windows are the witness).
    """
    if c <= 0:
        raise DomainError("upper limit c must be positive")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
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
    n_eval = 0
    for k in range(_DINI_MAX_WINDOWS):
        a, b = u0 * 2.0**k, u0 * 2.0 ** (k + 1)
        w, e = _gl_window(omega.omega_neglog, a, b)
        windows.append(w)
        value += w
        err += e
        n_eval += 1

        if len(windows) > _DIVERGENCE_RUN:
            recent = windows[-(_DIVERGENCE_RUN + 1):]
            ratios = [recent[i + 1] / recent[i] for i in range(_DIVERGENCE_RUN)
                      if recent[i] > 0]
            if len(ratios) == _DIVERGENCE_RUN and min(ratios) >= _DIVERGENCE_RATIO:
                return QuadratureResult(value, err, n_eval, "divergent",
                                        tuple(windows[-5:]))

        if len(windows) >= 4:
            last = windows[-4:]
            if last[0] <= 0 or max(last) == 0:
                # integrand fell below representable range: tail is exactly 0
                return QuadratureResult(value, err, n_eval, "convergent")
            rhos = [last[i + 1] / last[i] for i in range(3) if last[i] > 0]
            if len(rhos) == 3 and max(rhos) < 0.9:
                rho = float(np.mean(rhos))
                tail = windows[-1] * rho / (1.0 - rho)
                bound = windows[-1] * max(rhos) / (1.0 - max(rhos))
                if bound < tol:
                    return QuadratureResult(value + tail, err + bound, n_eval,
                                            "convergent")
    return QuadratureResult(value, err, n_eval, "inconclusive", tuple(windows[-5:]))


def _slope_into(x: np.ndarray, y: np.ndarray) -> float | None:
    """``_slope(x, y)`` with x and y as its scratch: both are overwritten."""
    if x.size < 2 or x[0] == x[-1]:
        return None
    x -= x.mean()
    y -= y.mean()
    y *= x
    sxy = float(y.sum())
    np.square(x, out=x)
    return sxy / float(x.sum())


def _slope(x: np.ndarray, y: np.ndarray) -> float | None:
    """Least-squares slope of y against ascending x, in centred closed form.

    sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), with numpy's
    pairwise sums.  None when x holds fewer than two distinct values, where
    no line is determined.  ``x`` and ``y`` are left unchanged.
    """
    return _slope_into(x.copy(), y.copy())


def _two_stage_tail_fit(n: np.ndarray, t: np.ndarray) -> tuple[float, float | None, str]:
    """Verdict for sum t_n from a power fit plus a log-factor refinement.

    A plain log-log slope cannot separate 1/(n ln n) from 1/(n ln^2 n) at any
    reachable index, so slopes inside (-1.3, -0.95) fall through to a second
    fit of ln(n * t_n) against ln ln n whose slope estimates the log-factor
    exponent: summable iff > 1.  ``n`` must be ascending, so that both fit
    windows are suffixes.  A window with fewer than two distinct indices
    determines no slope and makes the verdict "inconclusive" (with a NaN
    tail exponent when it is the first window).
    """
    pos = t > 0
    kept = np.count_nonzero(pos)
    if kept < 8:
        return 0.0, None, "convergent"  # terms died; finite sum
    if kept < t.size:
        n, t = n[pos], t[pos]
    decade = np.searchsorted(n, n[-1] / 10.0)
    wide = np.searchsorted(n, max(10.0, n[0]))
    # both fits share two buffers, each the longer window long
    bx = np.empty(n.size - min(decade, wide))
    by = np.empty_like(bx)
    x, y = bx[:n.size - decade], by[:n.size - decade]
    np.log(n[decade:], out=x)
    np.log(t[decade:], out=y)
    slope = _slope_into(x, y)
    if slope is None:
        return math.nan, None, "inconclusive"
    if slope < -1.3:
        return slope, None, "convergent"
    if slope > -0.95:
        return slope, None, "divergent"
    # harmonic boundary: examine the log factor over the full index range
    x, y = bx[:n.size - wide], by[:n.size - wide]
    np.log(np.log(n[wide:], out=x), out=x)
    np.log(np.multiply(n[wide:], t[wide:], out=y), out=y)
    b = _slope_into(x, y)
    if b is None:
        return slope, None, "inconclusive"
    b = -b
    if b > 1.05:
        return slope, b, "convergent"
    if b < 0.95:
        return slope, b, "divergent"
    return slope, b, "inconclusive"


def _diagnose_series(n: np.ndarray, t: np.ndarray, rejected: int = 0) -> SeriesDiagnosis:
    """Tail-fit verdict and total of sum t_n; keeps ~200 geometric partial sums."""
    if t.size == 0:  # no usable term: nothing to fit, nothing to judge
        return SeriesDiagnosis(n, t, t, 0.0, math.nan, None, "inconclusive", rejected)
    # fit before the cumsum array exists: n, t and the fit's two window
    # buffers are the peak
    slope, b, verdict = _two_stage_tail_fit(n, t)
    csum = np.cumsum(t)
    idx = np.unique(np.geomspace(1, len(t), min(200, len(t))).astype(int)) - 1
    return SeriesDiagnosis(
        n_values=n[idx], terms=t[idx], partial_sums=csum[idx],
        total=float(csum[-1]), tail_exponent=slope, log_factor_exponent=b,
        verdict=verdict, rejected=rejected)


def dini_series(omega: OmegaProfile, n_max: int = 1_000_000) -> SeriesDiagnosis:
    """Partial sums of sum_{n >= 2} omega((n ln n)^{-1/2}) / n with tail fit.

    The terms are evaluated _SERIES_CHUNK indices at a time into one array,
    bit for bit as one call over all n would give them, so memory stays at
    ``n``, ``t`` and the fit's two window buffers: four arrays of n_max
    doubles.  The indices are ascending, as ``_two_stage_tail_fit`` needs;
    a degenerate fit window is inconclusive.
    """
    n = np.arange(2, n_max + 1, dtype=float)
    t = np.empty_like(n)
    for i in range(0, n.size, _SERIES_CHUNK):
        m = n[i:i + _SERIES_CHUNK]
        t[i:i + _SERIES_CHUNK] = omega.omega((m * np.log(m)) ** -0.5) / m
    return _diagnose_series(n, t)


@dataclass(frozen=True)
class EquivalenceReport:
    integral: QuadratureResult
    series: SeriesDiagnosis
    agree: bool | None  # None when either side is inconclusive


def equivalence_check(omega: OmegaProfile) -> EquivalenceReport:
    """Do the integral over (0, 1/e) and the series to n = 10^6 agree on a verdict?

    Inconclusive pairs are reported as agree=None, never coerced.
    """
    quad = dini_integral(omega, math.exp(-1.0))
    ser = dini_series(omega)
    agree = (None if "inconclusive" in (quad.verdict, ser.verdict)
             else quad.verdict == ser.verdict)
    return EquivalenceReport(quad, ser, agree)


# ---------------------------------------------------------------------------
# asymptotic equivalence of endpoint integrals (log-space machinery)
# ---------------------------------------------------------------------------

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


def log_endpoint_integral(logf, tau: float) -> float:
    """log of the integral of exp(logf(s)) ds over (0, tau].

    Windows shrink dyadically toward 0; the sweep stops once three
    consecutive windows contribute below _ENDPOINT_REL_TOL of the running
    total.  Integrands here decay super-exponentially at 0, so the
    truncation is harmless.  Returns -inf for an identically underflowed
    integrand and NaN when _ENDPOINT_MAX_WINDOWS windows end the sweep first.
    """
    log_total = -np.inf
    quiet = 0
    for k in range(_ENDPOINT_MAX_WINDOWS):
        lw = log_segment_integrals(logf, np.array([tau * 2.0 ** -(k + 1), tau * 2.0**-k]))[0]
        log_total = np.logaddexp(log_total, lw)
        if np.isfinite(log_total) and lw < log_total + math.log(_ENDPOINT_REL_TOL):
            quiet += 1
            if quiet >= 3:
                return float(log_total)
        else:
            quiet = 0
    return math.nan if np.isfinite(log_total) else -np.inf


@dataclass(frozen=True)
class RatioRow:
    tau: float
    log_integral: float
    ratio: float
    inconclusive: bool = False


def endpoint_equivalence_ratios(omega: OmegaProfile, m: float, l: float, A: float,
                   tau_list) -> list[RatioRow]:
    """Ratio of the endpoint integral of s^(m-2) omega^(l+1) exp(-A omega/s^2)
    to its closed-form comparison tau^(m+1) omega(tau)^l exp(-A omega/tau^2).

    The equivalence predicts ratios trapped in a fixed bracket as tau -> 0.
    """
    if A <= 0:
        raise DomainError("A must be positive")
    rows = []
    for tau in np.atleast_1d(np.asarray(tau_list, dtype=float)):
        def logf(s):
            w = omega.omega(s)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = (m - 2.0) * np.log(s) + (l + 1.0) * np.log(w) - A * w / s**2
            return np.where(np.isfinite(out), out, -np.inf)

        log_int = log_endpoint_integral(logf, float(tau))
        w_tau = omega.omega(float(tau))
        log_cf = (m + 1.0) * math.log(tau) + l * math.log(w_tau) - A * w_tau / tau**2
        if np.isfinite(log_int):
            rows.append(RatioRow(float(tau), log_int, math.exp(log_int - log_cf)))
        else:
            rows.append(RatioRow(float(tau), log_int, math.nan, True))
    return rows


def composite_endpoint_integral(logf, tau: float) -> float:
    """Fixed-order composite-midpoint oracle for the same endpoint integral.

    Deliberately independent of the adaptive window machinery; used to
    cross-check single rows.  Works on 20 000 geometric cells over [tau*1e-8, tau].
    """
    edges = np.geomspace(tau * 1e-8, tau, 20_001)
    mids = np.sqrt(edges[:-1] * edges[1:])
    g = logf(mids)
    m = float(np.max(g))
    if not np.isfinite(m):
        return -np.inf
    return m + math.log(float(np.sum(np.exp(g - m) * np.diff(edges))))


def spectral_log_sum(mu_values) -> SeriesDiagnosis:
    """Partial sums of sum_n ln(mu_n)/mu_n for a positive sequence mu_n > 1.

    Terms with mu_n <= 1 carry a nonpositive logarithm and are rejected
    rather than summed, and counted in ``rejected``; with no term left the
    series is empty and its verdict inconclusive.
    """
    mu = np.asarray(mu_values, dtype=float)
    good = mu > 1.0
    rejected = int(np.count_nonzero(~good))
    mu = mu[good]
    n = np.arange(1, mu.size + 1, dtype=float)
    t = np.log(mu) / mu
    return _diagnose_series(n, t, rejected=rejected)
