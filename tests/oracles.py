"""The paper's intermediate lemmas, which only the tests check: profile
claims, endpoint-integral ratios, interpolation constants, the inequality's
regions, the positivity probe and its least-squares slope, the Dini
series' sum bracketed by the integral test, the discrete energies of one
step, the maps r(z) = a^{-1}(z) and rho(z) = z r(z)^2 with the brackets on
them, the rho map's earlier bisection in r, and the sum of omega over the
dominating radii against its integral.  Also the numbers that no subcommand
emits: the error proxy and margins of the energy ledger, the dominating
curve's joins and matching constant, and its candidate final radii."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from extinctlab.analysis import DomainError, dini_integral, log_segment_integrals
from extinctlab.odi import (
    _TAU_FLOOR,
    OdiConfig,
    _log_match_boundary,
    _log_match_constant,
    _solve_log_tau,
    solve_extinction_radius,
)
from extinctlab.profiles import MonotonicityError, solve_increasing
from extinctlab.solver import FluxOperator, ProblemSpec, run

CONDITION_NAMES = ("monotone", "origin", "bounded", "slope", "minorant", "knee")


def condition(checks, name: str):
    """The check called ``name`` among ``check_conditions``' results."""
    return next(c for c in checks if c.name == name)


def passed(checks, name: str) -> bool:
    return condition(checks, name).passed


def all_passed(checks) -> bool:
    return all(passed(checks, n) for n in CONDITION_NAMES)


def claims(profile) -> tuple[str, ...]:
    """Which structural conditions the profile's kind is expected to satisfy."""
    if profile.kind == "power":
        base = ["monotone", "origin", "bounded", "knee" if profile.alpha < 2 else ""]
        if profile.alpha <= 2.0 - profile.delta:
            base += ["slope", "minorant"]
        return tuple(c for c in base if c)
    if profile.kind == "log-power":
        return CONDITION_NAMES
    if profile.kind == "constant":
        return ("monotone", "bounded", "slope", "minorant", "knee")
    if profile.kind == "log-singular":
        return ("knee",)
    return ("monotone", "origin", "bounded")


#: log_endpoint_integral stops once three windows add less than this share
_ENDPOINT_REL_TOL = 1e-10
#: dyadic windows log_endpoint_integral sweeps before it returns NaN
_ENDPOINT_MAX_WINDOWS = 600


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


def endpoint_equivalence_ratios(omega, m: float, l: float, A: float,
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
    """Composite-midpoint rule for the same endpoint integral on 20 000
    geometric cells over [tau*1e-8, tau], independent of the window sweep."""
    edges = np.geomspace(tau * 1e-8, tau, 20_001)
    mids = np.sqrt(edges[:-1] * edges[1:])
    g = logf(mids)
    m = float(np.max(g))
    if not np.isfinite(m):
        return -np.inf
    return m + math.log(float(np.sum(np.exp(g - m) * np.diff(edges))))


def total_volume(grid) -> float:
    """R^N / N, the exact volume integral over [0, R]."""
    return grid.radius ** grid.dimension / grid.dimension


def gradient_energy(op: FluxOperator, u: np.ndarray) -> float:
    """Discrete integral of |grad u|^2, u^T K u."""
    return float(np.sum(op.face_energy(u)))


def absorption_energy(stepper, u: np.ndarray) -> float:
    """Discrete integral of a |u|^(q+1)."""
    return stepper.grid.integrate(stepper.a * np.abs(u) ** (stepper.q + 1.0))


def rayleigh_quotient(gs, potential, log_h: float = 0.0) -> float:
    """Recompute the quotient of a ground state's eigenvector from scratch."""
    grid = gs.grid
    a = potential.a(grid.centers)
    num = gradient_energy(FluxOperator(grid), gs.vector)
    num += grid.integrate(a * gs.vector**2) * math.exp(-2.0 * log_h)
    return num / grid.integrate(gs.vector**2)


@dataclass(frozen=True)
class InterpolationProbe:
    c1: float
    c2: float
    worst_margin: float          # min over corpus of c1*G + c2*P - L (>= 0)


def _radial_corpus(grid, n_random: int) -> list[np.ndarray]:
    r = grid.centers
    R = grid.radius
    corpus = [np.ones_like(r), 0.5 * np.ones_like(r), r / R, 1.0 - r / R]
    for c, w in [(0.0, 0.1), (0.0, 0.3), (0.4, 0.1), (0.8, 0.05), (0.6, 0.2)]:
        corpus.append(np.exp(-((r - c) ** 2) / (2 * w**2)))
    rng = np.random.RandomState(42)
    for _ in range(n_random):
        coef = rng.standard_normal(6) / (1.0 + np.arange(6)) ** 2
        v = np.zeros_like(r)
        for k, ck in enumerate(coef):
            v += ck * np.cos(math.pi * k * r / R)
        corpus.append(v - v.min() + 0.1)   # keep them nonnegative
    return corpus


def probe_interpolation(grid, inner_radius: float, lam: float,
                        sample_functions=None, n_random: int = 40) -> InterpolationProbe:
    """Fit minimal (c1, c2) in  ||v||_2 <= c1 ||grad v||_2 + c2 ||v||_{lam, inner}.

    The inner region is the centered ball of the given radius (strictly
    interior).  The corpus mixes constants, bumps and random smooth radial
    functions (seed 42); the reported pair minimizes c1 + c2 along the
    feasibility frontier.
    """
    if not 1.0 < lam <= 2.0:
        raise ValueError("lam must lie in (1, 2]")
    if not 0 < inner_radius < grid.radius:
        raise ValueError("inner region must be strictly interior")
    corpus = list(sample_functions) if sample_functions is not None else \
        _radial_corpus(grid, n_random)
    op = FluxOperator(grid)
    inner = grid.centers < inner_radius
    L = np.empty(len(corpus))
    G = np.empty(len(corpus))
    P = np.empty(len(corpus))
    for i, v in enumerate(corpus):
        L[i] = math.sqrt(grid.integrate(v**2))
        G[i] = math.sqrt(gradient_energy(op, v))
        P[i] = float(np.dot(grid.volumes[inner], np.abs(v[inner]) ** lam)) ** (1.0 / lam)
    if np.any(P <= 0):
        raise ValueError("corpus contains a function vanishing on the inner region")

    best = None
    for c1 in np.geomspace(1e-3, 1e3, 181):
        c2 = float(np.max(np.maximum(L - c1 * G, 0.0) / P))
        if best is None or c1 + c2 < best[0] + best[1]:
            best = (float(c1), c2)
    c1, c2 = best
    margin = float(np.min(c1 * G + c2 * P - L))
    return InterpolationProbe(c1, c2, margin)


def round_sum_and_integral(config: OdiConfig, rep) -> tuple[float, float]:
    """For the extinction report of ``config`` with j rounds: the sum of
    omega over the dominating radii C1 lam^i, i = 1..j (capped at tau_max),
    and the integral it tracks, ln(1/lam)^-1 times the integral of
    omega(s)/s over (C1 lam^j, C1), infinite when the endpoint integral
    diverges."""
    omega = config.potential.omega
    lam = (1.0 + config.gamma) ** -0.5
    C1 = math.sqrt(config.c7 * omega.omega0
                   / ((-math.log(config.y0)) * (1.0 + config.gamma)))
    j = rep.rounds
    comp = dini_integral(omega, c=C1)
    comp_lo = dini_integral(omega, c=max(C1 * lam**j, 1e-250))
    integral = ((comp.value - comp_lo.value) / math.log(1.0 / lam)
                if comp.verdict != "divergent" else math.inf)
    radii = np.minimum(C1 * lam ** np.arange(1, j + 1), config.tau_max)
    return float(np.sum(omega.omega(radii))), integral


def bracket_constant(config: OdiConfig, tau_pp: float) -> float:
    """a^(1-theta2) s'^2 / y0^((1-theta2)(1-q)/2) at tau'': its stability
    across y0 is the independence cross-check of the matching radius."""
    p2 = (1.0 - config.exponents.theta2) * (1.0 - config.q) / 2.0
    return math.exp(_log_match_constant(config, tau_pp) - p2 * math.log(config.y0))


def triple_prime_roots(config: OdiConfig) -> tuple[float, float]:
    """Two candidate final radii of the curve: the direct root of the
    sufficient matching condition a^(1-theta2) s'^2 = c4 y0^((1-theta2)(1-q)/2),
    solved as ``odi.curve_y1_and_tau_triple_prime`` does, and the root of
    the closed logarithmic relation tau^2/omega(tau) = c7/ln(1/y0), which
    absorbs the free constants into c7."""
    p2 = (1.0 - config.exponents.theta2) * (1.0 - config.q) / 2.0
    target = math.log(config.c4) + p2 * math.log(config.y0)
    [direct] = _solve_log_tau(lambda x: _log_match_constant(config, np.exp(x)), [target],
                              _TAU_FLOOR, config.tau_max * 4.0).tolist()
    (ad_hoc,), _ = solve_extinction_radius(config, [math.log(config.y0)])
    return direct, float(ad_hoc)


def join_gaps(Y, labels) -> tuple[float, float]:
    """|jump| of a dominating curve's values Y across its plateau|mid and
    mid|final label boundaries."""
    Y, labels = np.asarray(Y, dtype=float), np.asarray(labels)
    k = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    assert labels[k].tolist() == ["mid", "final"], labels[k]
    g1, g2 = np.abs(Y[k] - Y[k - 1]).tolist()
    return g1, g2


def curve_value(curve, tau):
    """The dominating curve at tau, linear between its samples."""
    return np.interp(tau, curve.tau, curve.Y)


def ledger_quad_error(ledger) -> np.ndarray:
    """Trapezoid error proxy of each I(tau): half the sum over snapshot
    steps of |jump of E(., tau)| times the step, plus 1e-15 |I(tau)|."""
    dt = np.diff(ledger.t_snap)
    return np.array([0.5 * float(np.dot(np.abs(np.diff(E)), dt)) + 1e-15 * abs(I)
                     for E, I in zip(ledger.E.T, ledger.I)])


def global_slack(ledger) -> np.ndarray:
    """y0 - H(t, 0) - I_0^t(0) at each snapshot: the margins of the a priori
    bound whose least ``energy.verify_global_estimate`` reports."""
    j = int(np.argmin(ledger.tau_grid))
    E0 = ledger.E[:, j]
    I_cum = np.concatenate([[0.0], np.cumsum(0.5 * (E0[1:] + E0[:-1])
                                             * np.diff(ledger.t_snap))])
    return ledger.y0 - ledger.H[:, j] - I_cum


def odi_residual(ledger, c0: float) -> np.ndarray:
    """c0 sum_i (-y'/psi_i)^(1+lambda_i) - y per tau, the residual of the
    differential inequality (>= 0 at the fitted c0), with positive slopes
    of y clipped to zero; NaN where the absorption vanishes or the sum is
    not finite and positive."""
    ep = ledger.exponents
    y = ledger.y
    yp = np.minimum(np.gradient(y, ledger.tau_grid), 0.0)
    a, sp = ledger.a_tau, ledger.sp_tau
    psis = (a * sp, a ** (1 - ep.theta1), a ** (1 - ep.theta2) * sp)
    lams = (ep.lambda0, ep.lambda1, ep.lambda2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        S = sum((-yp / psi) ** (1 + lam) for psi, lam in zip(psis, lams))
    usable = (a > 0) & np.isfinite(S) & (S > 0)
    return np.where(usable, c0 * S - y, np.nan)


def region_boundaries(config: OdiConfig, tau):
    """Closed-form (upper, lower) boundaries separating the three regions."""
    q = config.q
    upper = 3.0 * config.c0 * np.exp(2.0 / (1.0 - q) * config.potential.log_a(tau))
    lower = np.exp(_log_match_boundary(config, tau))
    return upper, lower


def region_classifier(tau, y, config: OdiConfig):
    """Index of the slowest decay mode at (tau, y): argmin of the mode speeds.

    Ties break toward the lower index.  Vectorizes over tau/y arrays.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(taus <= 0) or np.any(ys <= 0):
        raise ValueError("region classification needs tau > 0 and y > 0")
    ep = config.exponents
    log_sp = config.potential.omega.log_ramp_slope(taus)
    log_a = config.potential.log_a(taus)
    log_y = np.log(ys / (3.0 * config.c0))
    log_psis = (log_a + log_sp,
                (1.0 - ep.theta1) * log_a,
                (1.0 - ep.theta2) * log_a + log_sp)
    lams = (ep.lambda0, ep.lambda1, ep.lambda2)
    F = np.stack([lp + log_y / (1.0 + lam) for lp, lam in zip(log_psis, lams)])
    shifted = F - F.min(axis=0, keepdims=True)
    out = np.where(shifted[0] <= 1e-12, 0,
                   np.where(shifted[1] <= 1e-12, 1, 2)).astype(int)
    return int(out[0]) if np.ndim(tau) == 0 and np.ndim(y) == 0 else out


def ode_extinction_time(eps: float, q: float, u0_sup: float) -> float:
    """Extinction time of v' + eps*|v|^(q-1) v = 0 from v(0) = u0_sup."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if u0_sup < 0:
        raise ValueError("u0_sup must be nonnegative")
    return u0_sup ** (1.0 - q) / (eps * (1.0 - q))


def slope_into(x: np.ndarray, y: np.ndarray) -> float | None:
    """Least-squares slope of y against ascending x, in place: sum((x - mean
    x)(y - mean y)) / sum((x - mean x)^2) with numpy's pairwise sums.  None
    when x holds fewer than two distinct values.  ``x`` and ``y`` are
    overwritten."""
    if x.size < 2 or x[0] == x[-1]:
        return None
    x -= x.mean()
    y -= y.mean()
    y *= x
    sxy = float(y.sum())
    np.square(x, out=x)
    return sxy / float(x.sum())


def dini_series_bracket(omega) -> tuple[float, float]:
    """(low, high) around the sum of t_n = omega((n ln n)^(-1/2)) / n over
    2 <= n < 2^1000, for t_n nonincreasing from n = 2^20 on: the terms below
    2^20 summed one by one, the rest between the integral of t over
    [2^20, 2^1000] and that integral plus t at 2^20.  In v = ln x the
    integrand t(x) dx is omega(exp(-u)) dv with u = (v + ln v) / 2."""
    n = np.arange(2.0, 2.0**20)
    head = math.fsum(omega.omega((n * np.log(n)) ** -0.5) / n)
    v0, v1 = 20 * math.log(2.0), 1000 * math.log(2.0)
    def omega_of_v(v):
        return math.exp(omega.log_omega(0.5 * (v + math.log(v)))[0])

    tail, err = quad(omega_of_v, v0, v1, limit=200, epsabs=1e-13, epsrel=1e-12)
    first = omega_of_v(v0) / 2.0**20
    return head + tail - err, head + tail + err + first


@dataclass(frozen=True)
class PositivityReport:
    times: np.ndarray
    decay_rate: float          # fitted exponential rate of min u (0 if flat)
    collapsed: bool            # min u hit the extinction threshold
    final_min: float


def positivity_probe(spec: ProblemSpec) -> PositivityReport:
    """Track min u over the horizon and fit its exponential decay rate.

    Used to contrast the superflat (non-extinction) potentials against the
    extinction regime: the former keep min u bounded away from zero on any
    desk-scale horizon.
    """
    traj = run(spec)
    tail = traj.umin > 0
    rate = 0.0
    if np.count_nonzero(tail) >= 10:
        tt, mm = traj.times[tail], traj.umin[tail]
        keep = slice(np.searchsorted(tt, 0.1 * tt[-1]), None)
        slope = slope_into(tt[keep].copy(), np.log(mm[keep]))
        if slope is not None and abs(slope) >= 1e-12:
            rate = -slope
    collapsed = bool(traj.umin[-1] < traj.threshold)
    return PositivityReport(traj.times, rate, collapsed,
                            float(traj.umin[-1]))


def z_range(rho_map) -> tuple[float, float]:
    """(z_min, z_max): a at the ends r_lo and r_hi of a ``RhoMap``."""
    z_min, z_max = np.exp(rho_map.potential.log_a(np.array([rho_map.r_lo, rho_map.r_hi])))
    return float(z_min), float(z_max)


def r_of_z(rho_map, z):
    """r(z) = a^{-1}(z) of a ``RhoMap``, by ``profiles.solve_increasing`` in
    ln r as its rho^{-1} solves; z outside [z_min, z_max] raises
    MonotonicityError."""
    z_min, z_max = z_range(rho_map)
    arr = np.asarray(z, dtype=float)
    if np.any(arr < z_min * (1 - 1e-9)) or np.any(arr > z_max * (1 + 1e-9)):
        raise MonotonicityError("z outside the tabulated monotone range of a")
    r = np.exp(solve_increasing(lambda x: rho_map.potential.log_a(np.exp(x)),
                                np.log(np.clip(arr, z_min, z_max)),
                                math.log(rho_map.r_lo), math.log(rho_map.r_hi)))
    return float(r) if np.ndim(z) == 0 else r


def rho(rho_map, z):
    """rho(z) = z r(z)^2 of a ``RhoMap``."""
    out = np.asarray(z, dtype=float) * np.asarray(r_of_z(rho_map, z)) ** 2
    return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class InverseMapBrackets:
    s: np.ndarray
    rho_inv: np.ndarray
    lower: np.ndarray            # closed bounds on rho^(-1)(s)
    upper: np.ndarray
    r_bracket_violations: int    # of the intermediate r(z) bracket
    below_identity_violations: int  # of rho^(-1)(s) >= s


def inverse_map_brackets(potential, s_values, rho_map) -> InverseMapBrackets:
    """The closed bounds of ``spectral.inverse_map_sandwich`` on rho^(-1)(s),
    s clipped into the range of rho, with the intermediate bracket
    (1/ln(1/z))^(1/delta) <= r(z) <= sqrt(omega0/ln(1/z)) at z = rho^(-1)(s)
    and the coarse identity rho^(-1)(s) >= s."""
    omega = potential.omega
    w0, delta = omega.omega0, omega.delta
    s = np.clip(np.asarray(s_values, dtype=float), rho_map.rho_min, rho_map.rho_max)
    L = np.log(1.0 / s)
    lower = s / 2.0 * L / omega.omega(np.sqrt(w0 * 2.0 / L))
    upper = s * L / omega.omega((1.0 / L) ** (1.0 / delta))
    z = rho_map.rho_inv(s)
    r = r_of_z(rho_map, z)
    Lz = np.log(1.0 / z)
    r_bad = (r < (1.0 / Lz) ** (1.0 / delta) * (1 - 1e-9)) | (r > np.sqrt(w0 / Lz) * (1 + 1e-9))
    return InverseMapBrackets(s, z, lower, upper, int(np.count_nonzero(r_bad)),
                              int(np.count_nonzero(z < s * (1 - 1e-9))))


def bisect_increasing(fn, lo, hi, targets):
    """Vectorized bisection in r, as the rho map solved before it bisected
    in ln r: fn increasing on [lo, hi], solve fn(r) = target.

    Each target stops on its own test, (hi - lo) <= 1e-15 hi, and from then
    on is neither bisected nor passed to ``fn``.
    """
    targets = np.asarray(targets, dtype=float)
    flat = targets.ravel()
    lo = np.full_like(flat, lo)
    hi = np.full_like(flat, hi)
    active = np.arange(flat.size)
    for _ in range(200):
        if not active.size:
            break
        a_lo, a_hi = lo[active], hi[active]
        mid = 0.5 * (a_lo + a_hi)
        high = fn(mid) >= flat[active]
        a_hi = np.where(high, mid, a_hi)
        a_lo = np.where(high, a_lo, mid)
        lo[active], hi[active] = a_lo, a_hi
        active = active[~((a_hi - a_lo) <= 1e-15 * np.maximum(a_hi, 1e-300))]
    return (0.5 * (lo + hi)).reshape(targets.shape)


def r_of_z_in_r(rho_map, z) -> np.ndarray:
    """r(z) by ``bisect_increasing``, for z in [z_min, z_max]."""
    return bisect_increasing(rho_map.potential.log_a, rho_map.r_lo, rho_map.r_hi,
                             np.log(np.clip(z, *z_range(rho_map))))


def rho_inv_in_r(rho_map, s) -> np.ndarray:
    """rho^{-1}(s) by ``bisect_increasing``, for s in [rho_min, rho_max]."""
    log_a = rho_map.potential.log_a
    r = bisect_increasing(lambda r: log_a(r) + 2.0 * np.log(r),
                          rho_map.r_lo, rho_map.r_hi, np.log(s))
    return np.exp(log_a(r))
