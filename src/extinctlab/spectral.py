"""Ground states of the radial Schrodinger operator -Lap + h^(-2) a(|x|)
with zero-flux boundaries, and the spectral extinction criteria built on them.

The operator is the diffusion solver's own ``FluxOperator`` (the same face
conductances), symmetrized with the square root of the volume weights; the
smallest eigenvalue of that symmetric tridiagonal matrix is found by shifted
inverse iteration (with a Sturm-sequence bisection fallback).  Since the
ground state localizes where the scaled potential crosses order one, the
mesh concentrates nodes around that knee radius.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .analysis import SeriesDiagnosis, _diagnose_series
from .profiles import PotentialField, RhoMap, as_potential, build_rho_map
from .solver import FluxOperator, RadialGrid, sample_potential

_OVERFLOW_LOG = 700.0  # potential entries clamp at exp(700); the ground state
                       # vanishes there anyway


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


def _inverse_iteration(diag, off, max_iters: int = 120):
    """Smallest eigenpair by shifted inverse iteration on the tridiagonal.

    Starts unshifted (the matrix is positive semidefinite), then re-shifts
    at the running Rayleigh quotient.  Returns (value, vector, residual,
    iterations) or None on stagnation.
    """
    n = diag.size
    eps = np.finfo(float).eps
    scale = float(np.max(np.abs(diag)) + np.max(np.abs(off), initial=0.0))
    ab = np.zeros((3, n))
    x = 1.0 / (1.0 + np.maximum(diag - diag.min(), 0.0))
    x /= np.linalg.norm(x)
    sigma = 0.0
    rho_old = math.inf
    best = None
    for k in range(1, max_iters + 1):
        ab[0, 1:] = off
        ab[1] = diag - sigma
        ab[2, :-1] = off
        with np.errstate(all="ignore"):
            y = solve_banded((1, 1), ab, x)
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm == 0.0:
            sigma -= max(1e-12 * scale, 1e-300)  # back off a singular shift
            continue
        x = y / norm
        rho = float(x @ _tridiag_matvec(diag, off, x))
        resid = float(np.linalg.norm(_tridiag_matvec(diag, off, x) - rho * x))
        if best is None or resid < best[2]:
            best = (rho, x.copy(), resid, k)
        if resid <= max(1e-12 * max(1.0, abs(rho)), 15.0 * eps * scale):
            return rho, x, resid, k
        if k % 4 == 0:
            # Rayleigh shift, nudged below to keep converging from beneath
            sigma = rho - max(10.0 * resid, 1e-9 * max(1.0, abs(rho)))
        if abs(rho - rho_old) < 1e-15 * max(1.0, abs(rho)) and k > 12:
            break
        rho_old = rho
    if best is not None and best[2] <= 200.0 * eps * scale:
        return best
    return None


def knee_radius(potential, h: float, r_max: float = 1.0) -> float | None:
    """Radius where h^(-2) a(r) crosses one, if inside the monotone range."""
    target = 2.0 * math.log(h)
    probe = np.geomspace(1e-8, r_max, 2000)
    la = potential.log_a(probe)
    idx = np.searchsorted(la, target)
    if idx == 0 or idx >= probe.size:
        return None
    return float(probe[idx])


def _graded_faces(n: int, radius: float, knee: float | None,
                  frac: float = 0.3, window: float = 0.2) -> np.ndarray:
    """Mesh faces concentrating ``frac`` of the cells around the knee."""
    if knee is None or knee * (1 + window) > 0.95 * radius or knee <= 0:
        return np.linspace(0.0, radius, n + 1)
    a, b = knee * (1 - window), knee * (1 + window)
    n_mid = max(int(frac * n), 4)
    rest = n - n_mid
    n_lo = max(int(rest * a / (a + radius - b)), 4)
    n_hi = max(rest - n_lo, 4)
    faces = np.concatenate([
        np.linspace(0.0, a, n_lo + 1)[:-1],
        np.linspace(a, b, n_mid + 1)[:-1],
        np.linspace(b, radius, n_hi + 1),
    ])
    return faces


def ground_state(potential, h: float = 1.0, grid: RadialGrid | None = None,
                 dimension: int = 1, cells: int = 2000, radius: float = 1.0) -> GroundState:
    """Smallest eigenpair of -Lap + h^(-2) a(|x|) with zero-flux boundaries.

    Falls back to a Sturm-sequence bisection eigensolve when the iteration
    stagnates.  The returned vector is normalized against the volume weight
    (positive phase).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    potential = as_potential(potential)
    if grid is None:
        # a constant potential has no crossing, so its knee is None
        knee = knee_radius(potential, h, radius)
        grid = RadialGrid.from_faces(_graded_faces(cells, radius, knee), dimension)

    log_V = potential.log_a(grid.centers) - 2.0 * math.log(h)
    with np.errstate(under="ignore"):
        V = np.exp(np.minimum(log_V, _OVERFLOW_LOG))

    diag, off = FluxOperator(grid).symmetric(V)
    out = _inverse_iteration(diag, off)
    used_fallback = False
    if out is None:
        used_fallback = True
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
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


def rayleigh_quotient(gs: GroundState, potential, h: float = 1.0) -> float:
    """Recompute the quotient of the returned eigenvector from scratch."""
    grid = gs.grid
    a = sample_potential(potential, grid)
    num = FluxOperator(grid).gradient_energy(gs.vector)
    num += grid.integrate(a * gs.vector**2) / h**2
    return num / grid.integrate(gs.vector**2)


def mu_n_sequence(potential, n_max: int = 20, cells: int = 400,
                  dimension: int = 1) -> np.ndarray:
    """Ground states mu_n for the dyadically amplified weights 2^n a_0.

    Amplification enters as h = 2^(-n/2); n_max is capped at 60 so the
    scaled potential stays inside double range without rescaling tricks.
    """
    if n_max > 60:
        raise ValueError("n_max > 60 would overflow the dyadic weights")
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        out[n] = ground_state(potential, h=2.0 ** (-n / 2.0), cells=cells,
                              dimension=dimension).value
    return out


@dataclass(frozen=True)
class SpectralScan:
    h: np.ndarray
    lambda1: np.ndarray
    residuals: np.ndarray
    rho_inv: np.ndarray          # rho^(-1)(h^2), NaN where out of range
    ratios: np.ndarray           # lambda1 / (h^(-2) rho_inv(h^2))
    bracket: float               # C with all ratios inside [1/C, C]
    clipped: int

    @property
    def width(self) -> float:
        """Spread of the ratios, max/min."""
        ok = np.isfinite(self.ratios)
        return float(np.max(self.ratios[ok]) / np.min(self.ratios[ok]))


def eigenvalue_sandwich_scan(potential, h_values, cells: int = 3000,
                     dimension: int = 1, rho_map: RhoMap | None = None) -> SpectralScan:
    """Sandwich scan: lambda1(h) against h^(-2) rho^(-1)(h^2).

    Ratios out of the invertible range of the potential are clipped with a
    warning (NaN rows); the reported bracket constant covers the rest.
    """
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    if rho_map is None:
        rho_map = build_rho_map(potential)
    lam = np.empty_like(h_values)
    res = np.empty_like(h_values)
    rinv = np.full_like(h_values, np.nan)
    clipped = 0
    for i, h in enumerate(h_values):
        gs = ground_state(potential, h=h, cells=cells, dimension=dimension)
        lam[i], res[i] = gs.value, gs.residual
        s = h * h
        if rho_map.rho_min <= s <= rho_map.rho_max:
            rinv[i] = rho_map.rho_inv(s)
        else:
            clipped += 1
    if clipped:
        warnings.warn(f"sandwich scan: {clipped} h value(s) outside the "
                      "invertible range were skipped")
    with np.errstate(invalid="ignore"):
        ratios = lam * h_values**2 / rinv
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


def inverse_map_sandwich(potential: PotentialField, s_values, alpha: float = 1.0,
                     rho_map: RhoMap | None = None) -> SandwichReport:
    """Closed two-sided bounds on rho^(-1)(s) against the numeric inverse.

    The lower bound evaluates omega at sqrt(omega0 (1+alpha)/ln(1/s)), the
    upper at (1/ln(1/s))^(1/delta); both follow from the power minorant and
    the monotonicity of omega.  Also checks the intermediate bracket on the
    inverse radius r(z) and the coarse identity rho_inv(s) >= s.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    omega = potential.omega
    w0, delta = omega.omega0, omega.delta
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    if rho_map is None:
        rho_map = build_rho_map(potential)
    s_values = np.clip(s_values, rho_map.rho_min, rho_map.rho_max)
    L = np.log(1.0 / s_values)
    lower = s_values / (1 + alpha) * L / omega.omega(np.sqrt(w0 * (1 + alpha) / L))
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
    addends: np.ndarray          # (len, 3): ln(mu), ln(alpha_n/alpha_{n+1}), 1
    terms: np.ndarray
    flagged: np.ndarray          # mu <= 1: excluded from the sum
    diagnosis: SeriesDiagnosis

    @property
    def verdict(self) -> str:
        return self.diagnosis.verdict


def spectral_criterion_series(potential, K: float = 1.0, q: float = 0.5,
                     n_range: tuple[int, int] = (2, 40), cells: int = 2000,
                     dimension: int = 1) -> CriterionReport:
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
    mus = np.empty_like(ns)
    for i, la in enumerate(log_alpha):
        h = math.exp((1.0 - q) / 2.0 * la)
        mus[i] = ground_state(potential, h=h, cells=cells,
                              dimension=dimension).value
    flagged = mus <= 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        addends = np.stack([np.log(mus), log_ratio, np.ones_like(ns)], axis=1)
        terms = np.where(~flagged, np.nansum(addends, axis=1) / mus, 0.0)
    used = ~flagged & (terms > 0)
    diag = _diagnose_series(ns[used], terms[used], rejected=int(flagged.sum()))
    return CriterionReport(ns, log_alpha, mus, addends, terms, flagged, diag)
