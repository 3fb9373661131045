"""Ground states of the radial Schrodinger operator -Lap + h^(-2) a(|x|)
with zero-flux boundaries, the semi-classical map that stands in for them,
and the spectral extinction criteria.  Ground states live on the unit ball
and the sweeps run in one dimension, on [0, 1]: ``[problem] dimension`` and
``radius`` do not reach this route.

Two sweeps solve ground states: the sandwich scan measures lambda1(h)
against the semi-classical value h^(-2) rho^(-1)(h^2), within a bracket
C, and the mu-log sum takes mu_n at the weights 2^n a.  The criterion
along alpha_n = n^(-K n) solves none: it reads mu_n off that map, one
root per n in one lock-step solve, and decides on 10^4 condensed terms;
the scan's C vouches for the map.

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

from .analysis import _tail_test
from .profiles import PotentialField, RhoMap, solve_increasing
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


def mu_n_sequence(potential, n_max: int, cells: int) -> np.ndarray:
    """Ground states mu_n for the dyadically amplified weights 2^n a_0,
    that is at ln h = -(n/2) ln 2.  ln h keeps every weight in range, but
    past n ~ 300 the knee-graded mesh makes mu_n non-monotone, so n_max stays
    capped at 60 until the mesh scales with the well.
    """
    if n_max > 60:
        raise ValueError("n_max must be at most 60")
    log_hs = np.arange(n_max + 1) * (-0.5 * math.log(2.0))
    return np.array([gs.value for gs in _ground_sweep(potential, log_hs, cells)])


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


#: the criterion's condensed terms c_k = 2^k t_(2^k), k = 1.._CONDENSED_TERMS:
#: at 10^3, (b - 1)/|drift| reads 7.1 on log-power beta = 1.1 and up to 4.2
#: on the iterated-log family, too close to separate
_CONDENSED_TERMS = 10_000
#: the criterion's drift ratio for ``_tail_test``: at 10^4 condensed terms
#: (b - 1) / |drift| is at least 39 on log-power beta >= 1.1 and at most 6.6
#: on 1/(u ln(u)^gamma), gamma <= 3
_DRIFT_RATIO = 16.0
#: the widest sandwich bracket C (lambda1 within [1/C, C] times the map's
#: value) at which the map stands in for the ground states
_MAX_BRACKET = 10.0
#: the map's roots are sought on [0, _U_SPAN times the largest target]: on
#: power alpha they lie near 1/(2 - alpha) times their targets, so alpha up
#: to about 1.999 is read; the shared grid of ``_map_roots`` makes a wide
#: span cost no pass
_U_SPAN = 1024.0


@dataclass(frozen=True)
class CriterionReport:
    n: np.ndarray            # the direct rows n_min..n_max
    u: np.ndarray            # u*_n = ln(1/r) at the map's root; 0 where flagged
    mu: np.ndarray           # exp(2 u*_n)
    terms: np.ndarray        # t_n, 0 where flagged
    flagged: np.ndarray      # no root in (0, u_max]: mu <= 1, or past the span
    exponent: float | None   # b of the condensed terms c_k ~ u*_k^(-b); None if clipped
    drift: float | None
    verdict: str


def _map_roots(omega, log_targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u*, clipped): the roots in u of ln(omega(e^-u) e^(2u) + 2u) = each
    target, by one lock-step ``solve_increasing`` call on [0, u_max],
    u_max = _U_SPAN times the largest target; the map's value comes from
    ln omega alone, so it neither overflows nor underflows at any depth.
    The first halvings of [0, u_max], which a bisection would repeat target
    by target, are taken once: each target starts from the cell of the grid
    0, u_max 2^-j (j = 40..0) where the map's running maximum first reaches
    it, and wherever the map is monotone in floating point its root is the
    one a bisection of [0, u_max] finds.  A target at or below the map at
    u = 0 gets u* = 0; one above every grid value is clipped to u_max."""
    def g(u):
        with np.errstate(divide="ignore"):   # ln(2u) at u = 0
            return np.logaddexp(omega.log_omega(u) + 2.0 * u, np.log(2.0 * u))

    u_max = _U_SPAN * max(float(np.max(log_targets)), 1.0)
    grid = np.append(0.0, u_max * 2.0 ** -np.arange(40.0, -1.0, -1.0))
    cell = np.searchsorted(np.maximum.accumulate(g(grid)), log_targets)
    clipped = cell == grid.size
    live = (cell > 0) & ~clipped
    u = np.where(clipped, u_max, 0.0)
    u[live] = solve_increasing(g, log_targets[live], grid[cell[live] - 1], grid[cell[live]])
    return u, clipped


def spectral_criterion_series(potential: PotentialField, K: float, q: float,
                              n_range: tuple[int, int], bracket: float | None) -> CriterionReport:
    """Spectral extinction criterion along alpha_n = n^(-K n), through the
    semi-classical map lambda1(h) ~ h^(-2) rho^(-1)(h^2).

    At ln h = (1 - q)/2 ln alpha_n the well's radius r = e^(-u) solves
    omega(e^-u) e^(2u) + 2u = Lambda_n + ln d0, Lambda_n = -2 ln h =
    (1 - q) K n ln n, and mu_n = e^(2u*).  Each term is
    t_n = (ln mu_n + ln(alpha_n/alpha_(n+1)) + 1) / mu_n, with
    ln(alpha_n/alpha_(n+1)) = K (ln n + (n + 1) ln(1 + 1/n)).  The direct
    rows n_min..n_max are reported, flagged with term 0 where the map has
    no root above u = 0 (mu <= 1) or is clipped.  The verdict is
    ``_tail_test`` on the condensed terms c_k = 2^k t_(2^k),
    k = 1.._CONDENSED_TERMS, taken in ln n = k ln 2 and solved with the
    direct rows, against ln u*_k; it is inconclusive when a condensed root
    is clipped (b is then None), and when the sandwich ``bracket`` C is
    None (no rho map) or exceeds _MAX_BRACKET.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    n0, n1 = n_range
    if n0 < 2:
        raise ValueError("the sequence is decreasing from n = 2 on")
    ns = np.arange(n0, n1 + 1, dtype=float)
    ln_n = np.concatenate([np.log(ns), np.arange(1, _CONDENSED_TERMS + 1) * math.log(2.0)])
    log_lam = math.log((1.0 - q) * K) + ln_n + np.log(ln_n)
    with np.errstate(over="ignore", divide="ignore"):
        # ln(Lambda_n + ln d0): ln d0 / Lambda_n is 0 where Lambda_n overflows,
        # and the target -inf where Lambda_n + ln d0 <= 0
        targets = log_lam + np.log1p(np.maximum(math.log(potential.d0) / np.exp(log_lam), -1.0))
    u, clipped = _map_roots(potential.omega, targets)
    x = np.exp(-ln_n)   # 1/n, 0 past underflow, where (n + 1) ln(1 + 1/n) is 1
    log_ratio = K * (ln_n + (1.0 + x) * np.divide(np.log1p(x), x, out=np.ones_like(x),
                                                   where=x > 0))
    log_t = np.log(2.0 * u + log_ratio + 1.0) - 2.0 * u

    direct = slice(None, ns.size)
    flagged = (u[direct] == 0.0) | clipped[direct]
    with np.errstate(over="ignore"):   # a clipped row's mu
        mu = np.exp(2.0 * u[direct])
    terms = np.where(flagged, 0.0, np.exp(log_t[direct]))
    deep = slice(ns.size, None)
    if clipped[deep].any():
        b = drift = None
        verdict = "inconclusive"
    else:
        b, drift, verdict = _tail_test(u[deep], ln_n[deep] + log_t[deep], _DRIFT_RATIO)
    if bracket is None or bracket > _MAX_BRACKET:
        verdict = "inconclusive"
    return CriterionReport(ns, u[direct], mu, terms, flagged, b, drift, verdict)
