"""Ground states of the radial Schrodinger operator -Lap + h^(-2) a(|x|)
with zero-flux boundaries, and the spectral extinction criteria built on them.
Ground states live on the unit ball and the sweeps run in one dimension, on
[0, 1]: ``[problem] dimension`` and ``radius`` do not reach this route.

``ground_state`` takes ln h, so the potential exp(ln a - 2 ln h) is formed
without h itself.  The operator is the solver's ``FluxOperator`` symmetrized
with the square root of the volume weights, on a mesh graded around the knee
where the scaled potential crosses one.  Shifted inverse iteration factors
T - sigma I once per shift and accepts an iterate against a rounding floor
taken from it, eps || |T| |x| ||, so entries clamped at exp(700), where the
vector vanishes, set no scale; a Sturm-sequence bisection is the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from .analysis import SeriesDiagnosis, _diagnose_series
from .profiles import PotentialField, RhoMap, as_potential
from .profiles import build_rho_map  # noqa: F401  cmd_spectral calls it from here
from .solver import FluxOperator, RadialGrid

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


def _tridiag_matvec(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _inverse_iteration(diag, off):
    """Smallest eigenpair by shifted inverse iteration on the tridiagonal.

    Starts unshifted (the matrix is positive semidefinite), then re-shifts
    at the running Rayleigh quotient every fourth pass; T - sigma I is
    factored only when sigma changes.  Returns (value, vector, residual,
    iterations) or None on stagnation.
    """
    eps = np.finfo(float).eps
    abs_diag, abs_off = np.abs(diag), np.abs(off)
    x = 1.0 / (1.0 + np.maximum(diag - diag.min(), 0.0))
    x /= np.linalg.norm(x)
    mag = np.linalg.norm(_tridiag_matvec(abs_diag, abs_off, x))  # || |T| |x| ||
    sigma, lu = 0.0, None
    rho_old = math.inf
    best = None
    for k in range(1, _MAX_ITERS + 1):
        if lu is None:
            *lu, _ = dgttrf(off, diag - sigma, off)
        y = dgttrs(*lu, x)[0]
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm == 0.0:
            sigma -= max(1e-12 * mag, 1e-300)  # back off a singular shift
            lu = None
            continue
        x = y / norm
        Tx = _tridiag_matvec(diag, off, x)
        rho = float(x @ Tx)
        resid = float(np.linalg.norm(Tx - rho * x))
        # eps * mag is the rounding floor of T x at this iterate
        mag = float(np.linalg.norm(_tridiag_matvec(abs_diag, abs_off, np.abs(x))))
        if best is None or resid < best[2]:
            best = (rho, x.copy(), resid, k, mag)
        if resid <= max(1e-12 * max(1.0, abs(rho)), 15.0 * eps * mag):
            return rho, x, resid, k
        if k % 4 == 0:
            # Rayleigh shift, nudged below to keep converging from beneath
            sigma = rho - max(10.0 * resid, 1e-9 * max(1.0, abs(rho)))
            lu = None
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


def ground_state(potential, log_h: float = 0.0, dimension: int = 1,
                 cells: int = 2000, probe_log_a=None) -> GroundState:
    """Smallest eigenpair of -Lap + h^(-2) a(|x|) on the unit ball with
    zero-flux boundaries, at ln h = ``log_h``.

    Falls back to a Sturm-sequence bisection eigensolve when the iteration
    stagnates.  The returned vector is normalized against the volume weight
    (positive phase).  ``probe_log_a`` is passed on to ``knee_radius``.
    """
    if not math.isfinite(log_h):
        raise ValueError("log_h must be finite")
    potential = as_potential(potential)
    # a constant potential has no crossing, so its knee is None
    faces = _graded_faces(cells, knee_radius(potential, log_h, probe_log_a))
    grid = RadialGrid.from_faces(faces, dimension)
    log_V = potential.log_a(grid.centers) - 2.0 * log_h
    with np.errstate(under="ignore"):
        V = np.exp(np.minimum(log_V, _OVERFLOW_LOG))

    diag, off = FluxOperator(grid).symmetric(V)
    out = _inverse_iteration(diag, off)
    used_fallback = out is None
    if used_fallback:
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                      tol=np.finfo(float).tiny)
        rho = float(vals[0])
        x = vecs[:, 0]
        resid = float(np.linalg.norm(_tridiag_matvec(diag, off, x) - rho * x))
        iters = 0
        if not np.isfinite(rho):
            raise EigenSolveError("tridiagonal eigensolve returned non-finite value")
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
    potential = as_potential(potential)
    probe_log_a = potential.log_a(_KNEE_PROBE)
    return [ground_state(potential, lh, cells=cells, probe_log_a=probe_log_a)
            for lh in log_hs]


def _ground_values(potential, log_hs, cells: int) -> np.ndarray:
    """Ground-state values at each ln h of ``log_hs``."""
    return np.array([gs.value for gs in _ground_sweep(potential, log_hs, cells)])


def mu_n_sequence(potential, n_max: int = 20, cells: int = 400) -> np.ndarray:
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
                             cells: int = 3000) -> SpectralScan:
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
    rinv[in_range] = rho_map.rho_inv(s[in_range])   # one bisection for all h
    clipped = int(np.count_nonzero(~in_range))
    with np.errstate(invalid="ignore"):
        ratios = lam * s / rinv
    ok = np.isfinite(ratios)
    if not np.any(ok):
        raise EigenSolveError("no usable ratios in the scan range")
    C = float(max(np.max(ratios[ok]), 1.0 / np.min(ratios[ok])))
    return SpectralScan(h_values, lam, res, rinv, ratios, C, clipped)


@dataclass(frozen=True)
class SandwichReport:
    s: np.ndarray
    rho_inv: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    violations: int
    r_bracket_violations: int    # of the intermediate r(z) bracket
    below_identity_violations: int  # of rho_inv(s) >= s


def inverse_map_sandwich(potential: PotentialField, s_values,
                         rho_map: RhoMap) -> SandwichReport:
    """Closed two-sided bounds on rho^(-1)(s) against the numeric inverse.

    The lower bound evaluates omega at sqrt(2 omega0/ln(1/s)), the
    upper at (1/ln(1/s))^(1/delta); both follow from the power minorant and
    the monotonicity of omega.  Also checks the intermediate bracket on the
    inverse radius r(z) and the coarse identity rho_inv(s) >= s.
    """
    omega = potential.omega
    w0, delta = omega.omega0, omega.delta
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    s_values = np.clip(s_values, rho_map.rho_min, rho_map.rho_max)
    L = np.log(1.0 / s_values)
    lower = s_values / 2.0 * L / omega.omega(np.sqrt(w0 * 2.0 / L))
    upper = s_values * L / omega.omega((1.0 / L) ** (1.0 / delta))
    rinv = np.asarray(rho_map.rho_inv(s_values))
    violations = int(np.count_nonzero((rinv < lower * (1 - 1e-9)) |
                                      (rinv > upper * (1 + 1e-9))))

    # intermediate bracket: (1/ln(1/z))^(1/delta) <= r(z) <= sqrt(w0/ln(1/z))
    z = rinv
    r = np.asarray(rho_map.r_of_z(z))
    Lz = np.log(1.0 / z)
    r_lo = (1.0 / Lz) ** (1.0 / delta)
    r_hi = np.sqrt(w0 / Lz)
    r_bad = int(np.count_nonzero((r < r_lo * (1 - 1e-9)) | (r > r_hi * (1 + 1e-9))))

    below = int(np.count_nonzero(rinv < s_values * (1 - 1e-9)))
    return SandwichReport(s_values, rinv, lower, upper, violations, r_bad, below)


@dataclass(frozen=True)
class CriterionReport:
    n: np.ndarray
    alpha_log: np.ndarray        # ln(alpha_n), exact
    mu: np.ndarray
    terms: np.ndarray
    flagged: np.ndarray          # mu <= 1: excluded from the sum
    diagnosis: SeriesDiagnosis

    @property
    def verdict(self) -> str:
        return self.diagnosis.verdict


def spectral_criterion_series(potential, K: float = 1.0, q: float = 0.5,
                     n_range: tuple[int, int] = (2, 40), cells: int = 2000) -> CriterionReport:
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
    return CriterionReport(ns, log_alpha, mus, terms, flagged, diag)
