"""Ground states of the radial Schrodinger operator -Lap + h^(-2) a(|x|)
with zero-flux boundaries, and the spectral extinction criteria built on them.
Ground states live on the unit ball and the sweeps run in one dimension, on
[0, 1]: ``[problem] dimension`` and ``radius`` do not reach this route.

``ground_state`` takes ln h, so the potential exp(ln a - 2 ln h) is formed
without h itself.  The operator is the solver's ``FluxOperator`` symmetrized
with the square root of the volume weights, on a mesh graded around the knee
where the scaled potential crosses one.  Shifted inverse iteration factors
the symmetric T - sigma I as L D L^T once per shift, keeps sigma below
lambda1 (a failed factorization says it is not), and accepts an iterate
against a rounding floor taken from it, eps || |T| |x| ||, so entries
clamped at exp(700), where the vector vanishes, set no scale; a
Sturm-sequence bisection is the fallback.  Both take their LAPACK routines
from ``solver.lapack``, which loads scipy's compiled wrappers alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import SeriesDiagnosis, _diagnose_series
from .profiles import PotentialField, RhoMap
from .profiles import build_rho_map  # noqa: F401  cmd_spectral calls it from here
from .solver import FluxOperator, RadialGrid, lapack

_OVERFLOW_LOG = 700.0  # potential entries clamp at exp(700); the ground state
                       # vanishes there anyway
_MAX_ITERS = 120


class EigenSolveError(RuntimeError):
    """Both the iteration and the fallback failed to converge."""


@dataclass(frozen=True)
class GroundState:
    value: float
    vector: np.ndarray          # cell values, unit norm in the volume weight
    residual: float             # ||B v - lambda v|| / (||v|| max(1, |lambda|))
    iterations: int
    used_fallback: bool
    grid: RadialGrid


def _tridiag_matvec(diag, off, x, out, tmp):
    """T x into ``out`` for the symmetric tridiagonal T = (diag, off);
    ``tmp`` is scratch one shorter."""
    np.multiply(diag, x, out=out)
    out[:-1] += np.multiply(off, x[1:], out=tmp)
    out[1:] += np.multiply(off, x[:-1], out=tmp)
    return out


def _inverse_iteration(diag, off):
    """Smallest eigenpair by shifted inverse iteration on the tridiagonal.

    Starts unshifted (the matrix is positive semidefinite), then re-shifts
    at the running Rayleigh quotient every fourth pass; T - sigma I is
    factored as L D L^T (``dpttrf``) only when sigma changes.  A failed
    factorization certifies sigma >= lambda1; it and a singular solve back
    sigma off by a step that doubles while they fail, and no later Rayleigh
    shift at or above a failed one is taken.  Returns (value, vector,
    residual, iterations) or None on stagnation.
    """
    flapack = lapack()   # LAPACK loads here, at the first ground state
    eps = np.finfo(float).eps
    abs_diag, abs_off = np.abs(diag), np.abs(off)
    Tx, absTx, tmp = np.empty(diag.size), np.empty(diag.size), np.empty(off.size)
    x = 1.0 / (1.0 + np.maximum(diag - diag.min(), 0.0))
    x /= np.linalg.norm(x)
    mag = np.linalg.norm(_tridiag_matvec(abs_diag, abs_off, x, absTx, tmp))  # || |T| |x| ||
    sigma, ldl, back = 0.0, None, 0.0
    ceiling = math.inf   # the lowest shift that failed: lambda1 lies below it
    rho_old = math.inf
    best = None
    for k in range(1, _MAX_ITERS + 1):
        if ldl is None:
            *ldl, info = flapack.dpttrf(diag - sigma, off, overwrite_d=1)
            ldl = ldl if info == 0 else None
        norm = math.nan
        if ldl is not None:
            y = flapack.dpttrs(*ldl, x)[0]
            norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm == 0.0:
            # sigma >= lambda1, or on it: back off, further on each failure
            ceiling = min(ceiling, sigma)
            back = max(2.0 * back, 1e-12 * mag, 1e-300)
            sigma -= back
            ldl = None
            continue
        back = 0.0
        x = y / norm
        _tridiag_matvec(diag, off, x, Tx, tmp)
        rho = float(x @ Tx)
        resid = float(np.linalg.norm(Tx - rho * x))
        # eps * mag is the rounding floor of T x at this iterate
        mag = float(np.linalg.norm(_tridiag_matvec(abs_diag, abs_off, np.abs(x), absTx, tmp)))
        if best is None or resid < best[2]:
            best = (rho, x.copy(), resid, k, mag)
        if resid <= max(1e-12 * max(1.0, abs(rho)), 15.0 * eps * mag):
            return rho, x, resid, k
        if k % 4 == 0:
            # Rayleigh shift, nudged below to keep converging from beneath;
            # an iterate whose shift would fail is still far from lambda1
            shift = rho - max(10.0 * resid, 1e-9 * max(1.0, abs(rho)))
            if shift < ceiling:
                sigma, ldl = shift, None
        if abs(rho - rho_old) < 1e-15 * max(1.0, abs(rho)) and k > 12:
            break
        rho_old = rho
    if best is not None and best[2] <= 200.0 * eps * best[4]:
        return best[:4]
    return None


_KNEE_PROBE = np.geomspace(1e-8, 1.0, 2000)


def knee_radius(potential, log_h: float, probe_log_a=None) -> float | None:
    """Radius in (0, 1] where h^(-2) a(r) crosses one, if in the monotone range.

    The knee is the first of 2000 geometric probe radii where ln a reaches
    2 ln h.  ``probe_log_a`` is ln a on those radii; a sweep over ln h
    evaluates it once and passes it to every solve.
    """
    la = potential.log_a(_KNEE_PROBE) if probe_log_a is None else probe_log_a
    idx = np.searchsorted(la, 2.0 * log_h)
    if idx == 0 or idx >= _KNEE_PROBE.size:
        return None
    return float(_KNEE_PROBE[idx])


def _graded_faces(n: int, knee: float | None) -> np.ndarray:
    """Faces on [0, 1] putting 30% of the cells within 20% of the knee."""
    if knee is None or knee * 1.2 > 0.95 or knee <= 0:
        return np.linspace(0.0, 1.0, n + 1)
    a, b = knee * 0.8, knee * 1.2
    n_mid = max(int(0.3 * n), 4)
    rest = n - n_mid
    n_lo = max(int(rest * a / (a + 1.0 - b)), 4)
    n_hi = max(rest - n_lo, 4)
    return np.concatenate([
        np.linspace(0.0, a, n_lo + 1)[:-1],
        np.linspace(a, b, n_mid + 1)[:-1],
        np.linspace(b, 1.0, n_hi + 1),
    ])


def ground_state(potential, log_h: float, cells: int = 2000,
                 probe_log_a=None) -> GroundState:
    """Smallest eigenpair of -Lap + h^(-2) a(|x|) on the unit interval
    [0, 1] with zero-flux boundaries, at ln h = ``log_h``.

    Falls back to a Sturm-sequence bisection eigensolve when the iteration
    stagnates.  The returned vector is normalized against the volume weight
    (positive phase).  ``probe_log_a`` is passed on to ``knee_radius``.
    """
    if not math.isfinite(log_h):
        raise ValueError("log_h must be finite")
    # a constant potential has no crossing, so its knee is None
    faces = _graded_faces(cells, knee_radius(potential, log_h, probe_log_a))
    grid = RadialGrid.from_faces(faces, 1)
    log_V = potential.log_a(grid.centers) - 2.0 * log_h
    with np.errstate(under="ignore"):
        V = np.exp(np.minimum(log_V, _OVERFLOW_LOG))

    diag, off = FluxOperator(grid).symmetric(V)
    out = _inverse_iteration(diag, off)
    used_fallback = out is None
    if used_fallback:
        # the first eigenvalue by bisection to full precision, then its
        # vector: the calls of eigh_tridiagonal(select="i", tol=tiny)
        flapack = lapack()
        m, w, iblock, isplit, info = flapack.dstebz(diag, off, 2, 0.0, 1.0, 1, 1,
                                                    np.finfo(float).tiny, "B")
        if info == 0:
            vecs, info = flapack.dstein(diag, off, w[:m], iblock, isplit)
        rho = float(w[0])
        if info != 0 or not np.isfinite(rho):
            raise EigenSolveError(f"tridiagonal eigensolve failed (info = {info})")
        x = vecs[:, 0]
        Tx = _tridiag_matvec(diag, off, x, np.empty_like(x), np.empty_like(off))
        resid = float(np.linalg.norm(Tx - rho * x))
        iters = 0
    else:
        rho, x, resid, iters = out

    # undo the symmetrization and normalize in the volume inner product
    vec = x / np.sqrt(grid.volumes)
    vec /= math.sqrt(grid.integrate(vec**2))
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return GroundState(rho, vec, resid / max(1.0, abs(rho)), iters,
                       used_fallback, grid)


def _ground_sweep(potential, log_hs, cells: int) -> list[GroundState]:
    """Ground states at each ln h of ``log_hs``, with ln a on the knee probe
    evaluated once for the whole sweep."""
    probe_log_a = potential.log_a(_KNEE_PROBE)
    return [ground_state(potential, lh, cells=cells, probe_log_a=probe_log_a)
            for lh in log_hs]


def _ground_values(potential, log_hs, cells: int) -> np.ndarray:
    """Ground-state values at each ln h of ``log_hs``."""
    return np.array([gs.value for gs in _ground_sweep(potential, log_hs, cells)])


def mu_n_sequence(potential, n_max: int, cells: int) -> np.ndarray:
    """Ground states mu_n for the dyadically amplified weights 2^n a_0,
    that is at ln h = -(n/2) ln 2.  ln h keeps every weight in range, but
    past n ~ 300 the knee-graded mesh makes mu_n non-monotone, so n_max stays
    capped at 60 until the mesh scales with the well.
    """
    if n_max > 60:
        raise ValueError("n_max must be at most 60")
    return _ground_values(potential, np.arange(n_max + 1) * (-0.5 * math.log(2.0)), cells)


@dataclass(frozen=True)
class SpectralScan:
    h: np.ndarray
    lambda1: np.ndarray
    residuals: np.ndarray
    rho_inv: np.ndarray          # rho^(-1)(h^2), NaN where out of range
    ratios: np.ndarray           # lambda1 / (h^(-2) rho_inv(h^2))
    bracket: float               # C with all ratios inside [1/C, C]
    clipped: int                 # h values outside the invertible range

    @property
    def width(self) -> float:
        """Spread of the ratios, max/min."""
        ok = np.isfinite(self.ratios)
        return float(np.max(self.ratios[ok]) / np.min(self.ratios[ok]))


def eigenvalue_sandwich_scan(potential, h_values, rho_map: RhoMap,
                             cells: int) -> SpectralScan:
    """Sandwich scan: lambda1(h) against h^(-2) rho^(-1)(h^2).

    h values out of the invertible range of the potential are skipped (NaN
    rows) and counted in ``clipped``; the reported bracket constant covers
    the rest.
    """
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    states = _ground_sweep(potential, [math.log(h) for h in h_values], cells)
    lam = np.array([gs.value for gs in states])
    res = np.array([gs.residual for gs in states])
    s = h_values**2
    in_range = (rho_map.rho_min <= s) & (s <= rho_map.rho_max)
    rinv = np.full_like(h_values, np.nan)
    rinv[in_range] = rho_map.rho_inv(s[in_range])   # one solve for all h
    clipped = int(np.count_nonzero(~in_range))
    with np.errstate(invalid="ignore"):
        ratios = lam * s / rinv
    ok = np.isfinite(ratios)
    if not np.any(ok):
        raise EigenSolveError("no usable ratios in the scan range")
    C = float(max(np.max(ratios[ok]), 1.0 / np.min(ratios[ok])))
    return SpectralScan(h_values, lam, res, rinv, ratios, C, clipped)


def inverse_map_sandwich(potential: PotentialField, s_values, rho_map: RhoMap) -> int:
    """How many s, clipped into the range of rho, have a numeric inverse
    rho^(-1)(s) outside its closed two-sided bounds.

    The lower bound evaluates omega at sqrt(2 omega0/ln(1/s)), the
    upper at (1/ln(1/s))^(1/delta); both follow from the power minorant and
    the monotonicity of omega.
    """
    omega = potential.omega
    w0, delta = omega.omega0, omega.delta
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    s_values = np.clip(s_values, rho_map.rho_min, rho_map.rho_max)
    L = np.log(1.0 / s_values)
    lower = s_values / 2.0 * L / omega.omega(np.sqrt(w0 * 2.0 / L))
    upper = s_values * L / omega.omega((1.0 / L) ** (1.0 / delta))
    rinv = np.asarray(rho_map.rho_inv(s_values))
    return int(np.count_nonzero((rinv < lower * (1 - 1e-9)) | (rinv > upper * (1 + 1e-9))))


@dataclass(frozen=True)
class CriterionReport:
    n: np.ndarray
    mu: np.ndarray
    terms: np.ndarray
    flagged: np.ndarray          # mu <= 1: excluded from the sum
    diagnosis: SeriesDiagnosis

    @property
    def verdict(self) -> str:
        return self.diagnosis.verdict


def spectral_criterion_series(potential, K: float, q: float, n_range: tuple[int, int],
                              cells: int) -> CriterionReport:
    """Spectral extinction criterion along alpha_n = n^(-K n).

    Each term is (1/mu(alpha_n)) (ln mu + ln(alpha_n/alpha_{n+1}) + 1), with
    the logarithmic increment evaluated exactly; terms with mu <= 1 carry a
    meaningless logarithm and are flagged out of the sum.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    n0, n1 = n_range
    if n0 < 2:
        raise ValueError("the sequence is decreasing from n = 2 on")
    ns = np.arange(n0, n1 + 1, dtype=float)
    log_alpha = -K * ns * np.log(ns)
    log_ratio = K * ((ns + 1) * np.log(ns + 1) - ns * np.log(ns))
    mus = _ground_values(potential, (1.0 - q) / 2.0 * log_alpha, cells)
    flagged = mus <= 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        addends = np.stack([np.log(mus), log_ratio, np.ones_like(ns)], axis=1)
        terms = np.where(~flagged, np.nansum(addends, axis=1) / mus, 0.0)
    used = ~flagged & (terms > 0)
    diag = _diagnose_series(ns[used], terms[used], rejected=int(flagged.sum()))
    return CriterionReport(ns, mus, terms, flagged, diag)
