"""Dominating curve and multi-round extinction-time bound.

The outer-region energy y(tau) of a run obeys a first-order differential
inequality whose solutions are dominated by an explicit piecewise curve:

* a plateau at the initial energy y0 up to the radius tau' where the first
  region boundary is crossed,
* a closed-form decaying piece Y2 driven by psi_2 = a^(1-theta2) * s',
* a faster closed-form piece Y1 driven by psi_1 = a^(1-theta1),

hitting zero at a finite radius.  Both pieces come from one builder: the
weight integral of psi on 800 geometric knots is the running sum of
``analysis.log_segment_integrals``, the log-space Gauss-Legendre rule the
endpoint integrals use too.  Feeding the zero radius back into the
original problem and restarting yields rounds (tau_i, t_i) whose total

    R = sum_i t_i + sum_i s(tau_i)

is finite exactly when the endpoint integral of omega(s)/s converges.  Every
radius comes from one bisection in ln(tau); the radii of all rounds are
bisected together, with one array call of omega per pass, and each is bit
for bit the root a bisection of its level alone would give.  The
structural constants are not pinned by the theory; they are configuration
here, and every report echoes the values used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import dini_integral, log_segment_integrals
from .energy import ExponentPack
from .profiles import PotentialField

_TAU_FLOOR = math.exp(-250.0)  # lower end of the radius searches
_N_KNOTS = 800                 # geometric knots of each curve piece
_SAMPLES_PER_PIECE = 160       # curve samples per decaying piece
_ROUND_REL_TOL = 1e-10         # a round adding less than this share ends the rounds


class NoPlateauError(ValueError):
    """y0 >= 3 c0: the curve starts past its plateau."""


class RegionSkippedError(RuntimeError):
    """The middle curve piece never meets its matching boundary."""


class CurveRangeError(RuntimeError):
    """A root search left the domain of the potential."""


class BelowFloorError(CurveRangeError):
    """A root lies below the smallest radius the search covers."""


@dataclass(frozen=True)
class OdiConfig:
    potential: PotentialField
    y0: float
    q: float = 0.5
    dimension: int = 1
    c0: float = 1.0
    c4: float = 1.0
    c7: float | None = None   # None: the derivation's own value 2/(1-q)
    cbar: float | None = None  # Poincare rate scale; None: 1/tau_max^2 of the domain
    gamma: float = 1.0        # per-round gain exponent
    tau_max: float = 1.0

    def __post_init__(self):
        if not self.y0 > 0:   # NaN fails too, as in the loop below
            raise ValueError("y0 must be positive")
        if self.c7 is None:
            # the exponent comparison behind the logarithmic radius relation
            # yields 2(1-nu)/(1-q); nu is absorbed here in the limit nu -> 0
            object.__setattr__(self, "c7", 2.0 / (1.0 - self.q))
        if self.cbar is None and self.tau_max > 0:   # a bad tau_max fails below
            object.__setattr__(self, "cbar", 1.0 / self.tau_max**2)
        for name in ("c0", "c4", "c7", "gamma", "tau_max", "cbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def exponents(self) -> ExponentPack:
        return ExponentPack(self.q, self.dimension)


def _bisect_log_tau(g, targets, lo: float, hi: float) -> list[float]:
    """Solve g(tau) = t on [lo, hi] for every t of ``targets``, g increasing.

    ``g`` maps a list of radii to an iterable of their values, so all
    targets are bisected in lock-step with one call of g per pass.  Each
    target follows the path a lone bisection would take: it bisects in
    ln(tau), which keeps tiny roots relatively accurate, until the midpoint
    rounds onto an end of its bracket, so no tolerance or iteration cap is
    needed.  The targets must not rise; they are read up to the first whose
    root lies below lo, and BelowFloorError is raised if that is the first.
    A root beyond hi comes back as inf.
    """
    lo, hi = math.log(lo), math.log(hi)
    [g_lo] = g([math.exp(lo)])
    targets = np.array(list(itertools.takewhile(lambda t: not g_lo > t, targets)))
    if not targets.size:
        raise BelowFloorError("root lies below the tau search range")
    [g_hi] = g([math.exp(hi)])
    beyond = g_hi < targets
    los = np.where(beyond, hi, lo)
    his = np.full(targets.size, hi)
    while (open_ := (los < (mids := 0.5 * (los + his))) & (mids < his)).any():
        k = np.flatnonzero(open_)
        values = g([math.exp(m) for m in mids[k].tolist()])
        up = np.fromiter(values, float, k.size) >= targets[k]
        his[k[up]] = mids[k[up]]
        los[k[~up]] = mids[k[~up]]
    return [math.inf if b else math.exp(m) for b, m in zip(beyond.tolist(), mids.tolist())]


def solve_tau_prime(config: OdiConfig) -> float:
    """Radius where the plateau at y0 meets y = 3 c0 a(tau)^(2/(1-q)).

    With unit amplitude this is the relation tau^2/omega(tau) =
    (2/(1-q)) / ln(3 c0 / y0); the solve works on ln a directly so other
    amplitudes are handled too.
    """
    if config.y0 >= 3.0 * config.c0:
        raise NoPlateauError(
            f"y0 = {config.y0:.3g} >= 3 c0 = {3 * config.c0:.3g}: curve starts "
            "past the plateau")
    target = (math.log(config.y0) - math.log(3.0 * config.c0)) * (1.0 - config.q) / 2.0
    [tau] = _bisect_log_tau(lambda taus: map(config.potential.log_a, taus), [target],
                            _TAU_FLOOR, config.tau_max)
    if tau == math.inf:
        raise CurveRangeError("root lies beyond the domain radius")
    return tau


@dataclass(frozen=True)
class CurvePiece:
    start_value: float
    decay_exponent: float       # p = lambda/(1+lambda) of the driving mode
    coefficient: float          # p * (3c0)^(-1/(1+lambda))
    knots: np.ndarray = field(repr=False)
    cum_integral: np.ndarray = field(repr=False)

    def __call__(self, tau):
        taus = np.atleast_1d(np.asarray(tau, dtype=float))
        Q = np.interp(taus, self.knots, self.cum_integral)
        base = self.start_value ** self.decay_exponent - self.coefficient * Q
        vals = np.maximum(base, 0.0) ** (1.0 / self.decay_exponent)
        vals[taus >= self.zero_radius()] = 0.0  # not left to interp rounding
        return float(vals[0]) if np.ndim(tau) == 0 else vals

    def zero_radius(self) -> float:
        """Where the bracket hits zero; inf if not inside the knot range."""
        need = self.start_value ** self.decay_exponent / self.coefficient
        if self.cum_integral[-1] < need:
            return math.inf
        return float(np.interp(need, self.cum_integral, self.knots))


def _curve_piece(config: OdiConfig, lam: float, log_psi, start_tau: float,
                 start_value: float, end_tau: float) -> CurvePiece:
    """Separable solution of Y' = -psi(tau) (Y/(3c0))^(1/(1+lam)) from
    (start_tau, start_value), its weight integral taken on geometric knots
    up to end_tau."""
    p = lam / (1.0 + lam)
    coeff = p * (3.0 * config.c0) ** (-1.0 / (1.0 + lam))
    knots = np.geomspace(start_tau, end_tau, _N_KNOTS)
    cum = np.zeros(knots.size)
    cum[1:] = np.cumsum(np.exp(log_segment_integrals(log_psi, knots)))
    return CurvePiece(start_value, p, coeff, knots, cum)


def curve_y2(config: OdiConfig, tau_prime: float) -> CurvePiece:
    """Closed-form middle piece started at (tau', y0), driven by
    psi_2 = a^(1-theta2) s'; its decay exponent lam2/(1+lam2) equals
    (1-theta2)(1-q)/2.
    """
    ep = config.exponents
    omega = config.potential.omega

    def log_psi2(tau):
        log_sp = omega.log_ramp_slope(tau)
        return (1.0 - ep.theta2) * config.potential.log_a(tau) + log_sp

    return _curve_piece(config, ep.lambda2, log_psi2, tau_prime, config.y0,
                        config.tau_max)


def _log_match_boundary(config: OdiConfig, tau):
    """ln of 3c0 a^(2/(1-q)) s'^(2/((1-q)(theta1-theta2)))."""
    ep = config.exponents
    q = config.q
    log_sp = config.potential.omega.log_ramp_slope(tau)
    return (math.log(3.0 * config.c0)
            + 2.0 / (1.0 - q) * config.potential.log_a(tau)
            + 2.0 / ((1.0 - q) * (ep.theta1 - ep.theta2)) * log_sp)


def _log_match_constant(config: OdiConfig, tau: float) -> float:
    """ln of a^(1-theta2) s'^2, the matching constant before its y0 scaling."""
    log_sp = config.potential.omega.log_ramp_slope(tau)
    return (1.0 - config.exponents.theta2) * config.potential.log_a(tau) + 2.0 * log_sp


@dataclass(frozen=True)
class TauDoublePrime:
    tau: float
    value: float                 # Y2(tau'')
    bracket_constant: float      # a^(1-theta2) s'^2 / y0^((1-theta2)(1-q)/2)


def solve_tau_double_prime(config: OdiConfig, piece2: CurvePiece,
                           tau_prime: float) -> TauDoublePrime:
    """Radius where Y2 meets the lower region boundary, by bracketed bisection.

    Also evaluates the matching constant a^(1-theta2) s'^2 / y0^(...), whose
    stability across y0 is the independence cross-check.
    """
    zero = piece2.zero_radius()
    hi = min(zero * (1 - 1e-12) if math.isfinite(zero) else config.tau_max,
             config.tau_max)

    def g(tau):  # ln(boundary / Y2), increasing in tau
        y2 = piece2(tau)
        if y2 <= 0:
            return math.inf
        return float(_log_match_boundary(config, tau)) - math.log(y2)

    if g(tau_prime) >= 0:
        raise RegionSkippedError("curve already below the matching boundary at tau'")
    if g(hi) < 0:
        raise RegionSkippedError("no sign change before the curve piece dies")
    [tau_pp] = _bisect_log_tau(lambda taus: map(g, taus), [0.0], tau_prime, hi)
    p2 = (1.0 - config.exponents.theta2) * (1.0 - config.q) / 2.0
    k = math.exp(_log_match_constant(config, tau_pp) - p2 * math.log(config.y0))
    return TauDoublePrime(tau_pp, float(piece2(tau_pp)), k)


def curve_y1(config: OdiConfig, tau_pp: float, start_value: float) -> CurvePiece:
    """Closed-form final piece started at (tau'', Y2(tau'')), driven by
    psi_1 = a^(1-theta1).

    The knot range extends (beyond the domain radius if necessary, since the
    weight integral keeps growing there) until the bracket reaches zero, so
    the assembled curve always terminates.
    """
    ep = config.exponents

    def log_psi1(tau):
        return (1.0 - ep.theta1) * config.potential.log_a(tau)

    hi = config.tau_max
    while True:
        hi *= 4.0
        piece = _curve_piece(config, ep.lambda1, log_psi1, tau_pp, start_value, hi)
        if math.isfinite(piece.zero_radius()) or hi > 1e4 * config.tau_max:
            return piece


def solve_extinction_radius(config: OdiConfig, log_levels) -> list[tuple[float, bool]]:
    """Extinction radii from tau^2/omega(tau) = c7 / ln(1/level), one per
    ``log_level`` = ln(level), which survives deep rounds; the radii of all
    levels are bisected together.

    Returns (tau, clipped) per level: clipped means the required radius
    exceeded the domain and was cut to tau_max (the machinery assumes it
    stays inside); the caller reports it.  The levels must not rise: they
    are read up to the first whose radius lies below the search floor
    _TAU_FLOOR = exp(-250), and if that is the first, BelowFloorError is
    raised.
    """
    def target(log_level):
        if log_level >= 0:
            raise ValueError("level must lie strictly below one")
        return math.log(config.c7 / (-log_level))

    def g(taus):
        # omega underflows to 0 for steep profiles
        ws = config.potential.omega.omega(np.array(taus)).tolist()
        return [2.0 * math.log(tau) - (math.log(w) if w > 0 else -math.inf)
                for tau, w in zip(taus, ws)]

    taus = _bisect_log_tau(g, map(target, log_levels), _TAU_FLOOR, config.tau_max)
    return [(config.tau_max, True) if tau == math.inf else (tau, False) for tau in taus]


@dataclass(frozen=True)
class TauTriplePrime:
    tau: float                   # enforced final radius (curve hits zero here)
    direct_root: float           # root of a^(1-theta2) s'^2 = c4 y0^(...)
    ad_hoc_root: float           # root of the closed logarithmic relation, 0 below the floor
    bumped: bool                 # true when forced above 2 tau''


def curve_y1_and_tau_triple_prime(config: OdiConfig, tau_pp: float,
                                  start_value: float) -> tuple[CurvePiece, TauTriplePrime]:
    """Final curve piece plus the three candidate extinction radii.

    The direct root solves the sufficient matching condition with constant
    c4; the logarithmic form absorbs the free constants into c7.  Whatever
    the candidates say, the reported radius is never below the actual zero
    of the final piece nor below twice tau''; a radius forced up to twice
    tau'' sets ``bumped``.  A bracket on which omega vanishes raises
    CurveRangeError.
    """
    ep = config.exponents
    p2 = (1.0 - ep.theta2) * (1.0 - config.q) / 2.0
    piece1 = curve_y1(config, tau_pp, start_value)

    target = math.log(config.c4) + p2 * math.log(config.y0)
    try:
        [direct] = _bisect_log_tau(
            lambda taus: (_log_match_constant(config, tau) for tau in taus), [target],
            _TAU_FLOOR, config.tau_max * 4.0)
    except ZeroDivisionError as exc:
        # omega vanishes inside the bracket (log-singular for s >= 1), so
        # the ramp and the matching constant are undefined there
        raise CurveRangeError(f"direct tau''' root: {exc}") from exc
    except BelowFloorError:
        direct = math.inf
    try:
        [(ad5, _)] = solve_extinction_radius(config, [math.log(config.y0)])
    except BelowFloorError:
        ad5 = 0.0
    y1_zero = piece1.zero_radius()

    candidates = [c for c in (direct, y1_zero) if math.isfinite(c)]
    tau_ppp = max(candidates) if candidates else config.tau_max
    bumped = False
    if tau_ppp <= 2.0 * tau_pp:
        tau_ppp = 2.0 * tau_pp * (1.0 + 1e-9)
        bumped = True
    return piece1, TauTriplePrime(tau_ppp, direct, ad5, bumped)


@dataclass(frozen=True)
class OdiCurve:
    config: OdiConfig
    tau_prime: float
    tau_double_prime: float
    tau_triple_prime: float
    tau: np.ndarray
    Y: np.ndarray
    labels: np.ndarray           # "plateau" | "mid" | "final" per sample
    triple_info: TauTriplePrime
    bracket_constant: float
    region2_skipped: bool
    join_gap_prime: float        # piece mismatch at tau' (0 by construction)
    join_gap_double_prime: float

    def value(self, tau):
        return np.interp(tau, self.tau, self.Y)


def build_curve(config: OdiConfig) -> OdiCurve:
    """Assemble the full dominating curve with its region labels."""
    tau_p = solve_tau_prime(config)
    piece2 = curve_y2(config, tau_p)
    skipped = False
    try:
        tpp = solve_tau_double_prime(config, piece2, tau_p)
        tau_pp, y_pp, k = tpp.tau, tpp.value, tpp.bracket_constant
    except RegionSkippedError:
        skipped = True
        tau_pp, y_pp, k = tau_p, config.y0, math.nan
    piece1, triple = curve_y1_and_tau_triple_prime(config, tau_pp, y_pp)

    gap1 = abs(piece2(tau_p) - config.y0)
    gap2 = abs(piece1(tau_pp) - (config.y0 if skipped else piece2(tau_pp)))

    t_plateau = np.linspace(0.0, tau_p, _SAMPLES_PER_PIECE // 4)
    t_mid = np.geomspace(tau_p, tau_pp, _SAMPLES_PER_PIECE) if tau_pp > tau_p \
        else np.array([tau_p])
    t_fin = np.geomspace(tau_pp, triple.tau, _SAMPLES_PER_PIECE)
    tau = np.concatenate([t_plateau, t_mid, t_fin])
    Y = np.concatenate([np.full(t_plateau.size, config.y0),
                        piece2(t_mid) if t_mid.size > 1 else [config.y0],
                        piece1(t_fin)])
    labels = np.concatenate([np.full(t_plateau.size, "plateau"),
                             np.full(t_mid.size, "mid"),
                             np.full(t_fin.size, "final")])
    return OdiCurve(config, tau_p, tau_pp, triple.tau, tau, Y, labels,
                    triple, k, skipped, float(gap1), float(gap2))


# ---------------------------------------------------------------------------
# multi-round extinction iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtinctionBoundReport:
    config: OdiConfig
    tau_rounds: np.ndarray
    t_rounds: np.ndarray
    s_rounds: np.ndarray
    log_levels: np.ndarray       # ln of the energy bound entering each round
    clipped_rounds: int
    sum_t: float
    sum_s: float
    total: float                 # R = sum_t + sum_s (+ tail), inf if divergent
    verdict: str                 # "convergent" | "divergent" | "inconclusive"
    dini_verdict: str
    omega_sum_partial: float     # sum of omega(tau_i), for the integral check
    integral_comparison: float   # ln(1/lambda)^{-1} * integral of omega/s

    @property
    def rounds(self) -> int:
        return self.tau_rounds.size


def extinction_iteration(config: OdiConfig, max_rounds: int = 200) -> ExtinctionBoundReport:
    """Run the extinction rounds and total the time bound R.

    Round i shrinks the energy bound to y0^((1+gamma)^i); its radius tau_i
    solves the logarithmic relation with the shrunken level, the waiting
    time is t_i = (gamma c7 / cbar) omega(tau_i) and the restart offset is
    s(tau_i).  A divergent endpoint integral for omega makes the t-sums
    non-summable; the report then carries an infinite total instead of
    raising.  The rounds end early when the offsets become negligible, when
    the waiting times stall, or when a radius falls below the search floor
    _TAU_FLOOR = exp(-250); the tail majorant then covers the deeper rounds.
    A report with no round at all (the first radius is below the floor) is
    inconclusive.
    """
    if config.y0 >= 1.0:
        raise ValueError("the iteration needs y0 < 1 (shrink u0 or rescale)")
    omega = config.potential.omega
    dini = dini_integral(omega, c=min(omega.s0, math.exp(-1.0)))
    lam = (1.0 + config.gamma) ** -0.5
    log_y0 = math.log(config.y0)

    # the levels are made lazily: past the floor round they would overflow
    levels = (log_y0 * (1.0 + config.gamma) ** i for i in range(max_rounds))
    try:
        radii = solve_extinction_radius(config, levels)
    except BelowFloorError:
        radii = []
    ws = omega.omega(np.array([tau for tau, _ in radii])).tolist()

    taus, ts, ss, log_levels = [], [], [], []
    clipped = 0
    stalled = 0
    for i, ((tau_i, was_clipped), w_i) in enumerate(zip(radii, ws)):
        log_level = log_y0 * (1.0 + config.gamma) ** i
        clipped += int(was_clipped)
        t_i = config.gamma * config.c7 / config.cbar * w_i
        s_i = tau_i**2 * config.c7 / (-log_level)
        taus.append(tau_i)
        ts.append(t_i)
        ss.append(s_i)
        log_levels.append(log_level)
        if i >= 1 and ts[-1] >= ts[-2] * 0.999:
            stalled += 1
        else:
            stalled = 0
        if (t_i + s_i) < _ROUND_REL_TOL * (sum(ts) + sum(ss)):
            break
        if stalled >= 20:
            break

    taus = np.asarray(taus)
    ts = np.asarray(ts)
    ss = np.asarray(ss)
    sum_t, sum_s = float(ts.sum()), float(ss.sum())

    # majorant of the remaining t-rounds through the window-sum comparison:
    # sum_{i>j} omega(C1 lam^i) <~ ln(1/lam)^(-1) * integral_0^{tau_j} omega/s
    tail_quad = dini_integral(omega, c=float(taus[-1])) if taus.size else None
    if dini.verdict == "divergent":
        verdict, total = "divergent", math.inf
    elif dini.verdict == "convergent" and tail_quad is not None and tail_quad.converged:
        t_tail = (config.gamma * config.c7 / config.cbar) * tail_quad.value \
            / math.log(1.0 / lam)
        total = sum_t + sum_s + t_tail
        verdict = "convergent"
    else:
        verdict, total = "inconclusive", math.nan

    # partial-sum vs integral comparison over the dominating radii
    C1 = math.sqrt(config.c7 * omega.omega0 / ((-log_y0) * (1.0 + config.gamma)))
    j = taus.size
    comp = dini_integral(omega, c=C1)
    comp_lo = dini_integral(omega, c=max(C1 * lam**j, 1e-250))
    integral_comparison = (comp.value - comp_lo.value) / math.log(1.0 / lam) \
        if comp.verdict != "divergent" else math.inf
    omega_partial = float(np.sum(omega.omega(np.minimum(C1 * lam ** np.arange(1, j + 1),
                                                        config.tau_max))))

    return ExtinctionBoundReport(
        config=config, tau_rounds=taus, t_rounds=ts, s_rounds=ss,
        log_levels=np.asarray(log_levels), clipped_rounds=clipped,
        sum_t=sum_t, sum_s=sum_s, total=total,
        verdict=verdict, dini_verdict=dini.verdict,
        omega_sum_partial=omega_partial, integral_comparison=integral_comparison)
