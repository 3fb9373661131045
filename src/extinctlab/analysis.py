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
underflow limit stay exact.  The dominating curve of ``odi`` takes running
sums of its output.
"""

from __future__ import annotations

import bisect
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
#: series indices whose terms dini_series evaluates per omega call
_SERIES_CHUNK = 1 << 14
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
        w, e = _gl_window(omega.omega_neglog, a, b)
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


def _chunks(start: int, stop: int):
    """(i, j) bounds of the _SERIES_CHUNK-long slices that cover start..stop-1."""
    return ((i, min(i + _SERIES_CHUNK, stop)) for i in range(start, stop, _SERIES_CHUNK))


def _pairwise_sums(fill, start: int, stop: int, buf: np.ndarray) -> np.ndarray:
    """np.sum of each row that ``fill`` makes over positions start..stop-1, bit
    for bit, a leaf at a time: numpy splits a run of n > 128 after n // 2
    rounded down to a multiple of 8, and so does this, down to runs that fit
    the rows of ``buf``; ``fill(i, j, out)`` writes such a leaf into ``out``,
    a view of ``buf``, and returns its rows."""
    n = stop - start
    if n <= buf.shape[1]:
        return np.array([row.sum() for row in fill(start, stop, buf[:, :n])])
    half = n // 2 - n // 2 % 8
    return (_pairwise_sums(fill, start, start + half, buf)
            + _pairwise_sums(fill, start + half, stop, buf))


def _slope_streamed(xy_into, start: int, stop: int) -> float | None:
    """Least-squares slope of y against ascending x over positions start..stop-1:
    sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), each a whole-window
    numpy pairwise sum, bit for bit.  ``xy_into(i, j, out)`` writes x and y at
    positions i..j-1 into the rows of ``out`` and returns them.  None when
    fewer than two distinct x determine no line."""
    buf = np.empty((2, _SERIES_CHUNK))
    if stop - start < 2 or (xy_into(start, start + 1, buf[:, :1])[0][0]
                            == xy_into(stop - 1, stop, buf[:, :1])[0][0]):
        return None
    x_mean, y_mean = _pairwise_sums(xy_into, start, stop, buf) / (stop - start)

    def centred(i, j, out):  # (x - mean x)^2 and (x - mean x)(y - mean y)
        dx, dy = xy_into(i, j, out)
        dx -= x_mean
        dy -= y_mean
        dy *= dx
        return np.square(dx, out=dx), dy

    sxx, sxy = _pairwise_sums(centred, start, stop, buf)
    return float(sxy / sxx)


def _two_stage_tail_fit(n_at, t: np.ndarray) -> tuple[float, float | None, str]:
    """Verdict for sum t_n from a power fit plus a log-factor refinement.

    A plain log-log slope cannot separate 1/(n ln n) from 1/(n ln^2 n) at any
    reachable index, so slopes inside (-1.3, -0.95) fall through to a second
    fit of ln(n * t_n) against ln ln n whose slope estimates the log-factor
    exponent: summable iff > 1.  The terms t are positive, or fewer than 8
    and unread.  ``n_at(i, j)`` gives the indices n of t[i:j], j - i <=
    _SERIES_CHUNK, as doubles, ascending, so that both fit windows are
    suffixes.  A window with fewer than two distinct indices determines no
    slope and makes the verdict "inconclusive" (with a NaN tail exponent
    when it is the first window).

    Both fits stream their points through chunk buffers and allocate no
    window-long array; the second overwrites ``t`` with its y values.
    """
    if t.size < 8:
        return 0.0, None, "convergent"  # too few terms to fit; a finite sum

    def first_at_least(v):  # np.searchsorted of v in the indices
        return bisect.bisect_left(range(t.size), v, key=lambda k: n_at(k, k + 1)[0])

    decade = first_at_least(n_at(t.size - 1, t.size)[0] / 10.0)
    slope = _slope_streamed(lambda i, j, out: (np.log(n_at(i, j), out=out[0]),
                                               np.log(t[i:j], out=out[1])), decade, t.size)
    if slope is None:
        return math.nan, None, "inconclusive"
    if slope < -1.3:
        return slope, None, "convergent"
    if slope > -0.95:
        return slope, None, "divergent"
    # harmonic boundary: examine the log factor over the full index range
    wide = first_at_least(max(10.0, n_at(0, 1)[0]))
    for i, j in _chunks(wide, t.size):  # y = ln(n t), in place
        np.log(np.multiply(n_at(i, j), t[i:j], out=t[i:j]), out=t[i:j])

    def lnln_n_and_y(i, j, out):
        np.log(np.log(n_at(i, j), out=out[0]), out=out[0])
        out[1] = t[i:j]
        return out

    b = _slope_streamed(lnln_n_and_y, wide, t.size)
    if b is None:
        return slope, None, "inconclusive"
    b = -b
    return slope, b, "convergent" if b > 1.05 else "divergent" if b < 0.95 else "inconclusive"


def _sequential_sum(t: np.ndarray) -> float:
    """np.cumsum(t)[-1], bit for bit, in one chunk of memory: a sequential
    running sum carried from chunk to chunk, not numpy's pairwise t.sum()."""
    buf, carry = np.empty(min(t.size, _SERIES_CHUNK)), 0.0
    for i, j in _chunks(0, t.size):
        run = buf[:j - i]
        run[:] = t[i:j]
        if i:  # the first chunk starts from t[0] itself, as np.cumsum does
            run[0] += carry
        np.cumsum(run, out=run)
        carry = run[-1]
    return float(carry)


def _diagnose_series(n_at, t: np.ndarray, rejected: int = 0) -> SeriesDiagnosis:
    """Tail-fit verdict and total of sum t_n.

    ``n_at(i, j)`` gives the indices of t[i:j], as ``_two_stage_tail_fit``
    reads them; ``t`` is consumed, as the fit overwrites it once the total
    is taken.
    """
    if t.size == 0:  # no usable term: nothing to fit, nothing to judge
        return SeriesDiagnosis(0.0, math.nan, None, "inconclusive", rejected)
    total = _sequential_sum(t)
    slope, b, verdict = _two_stage_tail_fit(n_at, t)
    return SeriesDiagnosis(total, slope, b, verdict, rejected)


def dini_series(omega: OmegaProfile, n_max: int = 1_000_000) -> SeriesDiagnosis:
    """Total of sum_{n >= 2} omega((n ln n)^{-1/2}) / n, with its tail-fit verdict.

    The terms are evaluated _SERIES_CHUNK indices at a time into one array,
    bit for bit as one call over all n would give them, and each chunk
    makes its own indices, exact integers in doubles.  Memory stays at the
    terms ``t``, one array of n_max doubles, plus chunk buffers.  The
    indices are ascending, as ``_two_stage_tail_fit`` needs; a degenerate
    fit window is inconclusive.  A term vanishes only by underflow, as omega
    falls toward s = 0, so the zeros are a suffix: the series is the positive
    prefix, made up to the first chunk that holds a 0.
    """
    t = np.empty(max(n_max - 1, 0))
    first = np.arange(2.0, 2.0 + min(t.size, _SERIES_CHUNK))

    def n_at(i, j):  # exact integers: the first chunk's indices shifted by i
        return first[:j - i] + i

    for i, j in _chunks(0, t.size):
        m = n_at(i, j)
        chunk = np.divide(omega.omega((m * np.log(m)) ** -0.5), m, out=t[i:j])
        if not chunk[-1] > 0:  # with none positive, a lone 0: a convergent sum of 0
            t = t[:max(i + np.count_nonzero(chunk > 0), 1)]
            break
    return _diagnose_series(n_at, t)


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
    return _diagnose_series(lambda i, j: np.arange(i + 1, j + 1, dtype=float),
                            mu_log_terms(mu_values)[good],
                            rejected=int(np.count_nonzero(~good)))
