"""The paper's intermediate lemmas, which only the tests check: profile
claims, endpoint-integral ratios, interpolation constants, the inequality's
regions, the positivity probe and the discrete energies of one step."""

import math
from dataclasses import dataclass

import numpy as np

from extinctlab.analysis import DomainError, _slope_into, log_segment_integrals
from extinctlab.odi import OdiConfig, _log_match_boundary
from extinctlab.solver import FluxOperator, ProblemSpec, run, sample_potential

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
    a = sample_potential(potential, grid)
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
        slope = _slope_into(tt[keep].copy(), np.log(mm[keep]))
        if slope is not None and abs(slope) >= 1e-12:
            rate = -slope
    collapsed = bool(traj.umin[-1] < traj.threshold)
    return PositivityReport(traj.times, rate, collapsed,
                            float(traj.umin[-1]))
