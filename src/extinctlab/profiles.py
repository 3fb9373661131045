"""Modulus profiles and the degenerate radial absorption potential.

A profile ``omega(s)`` measures how fast the absorption coefficient

    a(r) = d0 * exp(-omega(r) / r**2)

flattens at the origin.  Everything downstream (extinction verdicts,
spectral sandwiches, the dominating curve) is driven by the small-``s``
behaviour of ``omega``.  Built-in kinds:

* ``power``        omega(s) = min(s**alpha, omega0)
* ``log-power``    omega(s) = min(ln(1/s)**(-beta), omega0)
* ``constant``     omega(s) = omega0  (absorption bounded away from zero)
* ``log-singular`` omega(s) = kappa * ln(1/s) (kappa = 25 unless given),
                   unbounded at the origin;
                   the potential is then flatter than exp(-C/r**2) for
                   every C and solutions are expected to stay positive
* ``table``        user samples (s_k, w_k), ln omega linear between rows in
                   x = ln u (u - 1 below u = 1), held above the top row and
                   continued past the deepest as omega ~ u**(-b)

Each kind is stated once, in ``OmegaProfile.log_omega``: ln omega, and on
request d ln omega/du, in the radius variable u = ln(1/s), in which the
Dini-like condition reads as the integral of omega(exp(-u)) du.  ``omega``
is its exp, the condition checks read -d ln omega/du as the slope
s omega'/omega, and a profile's space-time ramp s(tau) = tau**4 / omega(tau)
takes both.
The module also provides the inverse of the monotone map
rho(z) = z * r(z)**2, r(z) = a^{-1}(z), attached to an invertible
potential, and ``solve_increasing``, the one root finder of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# exp(x) underflows to exactly 0.0 below this; values that small are
# analytically indistinguishable from zero for every probe in this package.
EXP_UNDERFLOW = -745.0

_KINDS = ("power", "log-power", "constant", "log-singular", "table")


class ProfileError(ValueError):
    """Bad profile definition or evaluation outside the valid domain."""


class MonotonicityError(RuntimeError):
    """The potential, or the ramp s(tau), does not rise on the requested range."""


def _asfarray(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class OmegaProfile:
    """A nonnegative modulus s -> omega(s), stated in u = ln(1/s) with its
    analytic log-derivative.

    ``omega0`` acts as a hard cap for the power and log-power kinds, which
    keeps them bounded and keeps the induced potential nondecreasing on the
    whole domain.  ``s0`` is the radius below which the technical slope /
    minorant / knee conditions are claimed; ``delta`` is the slack used in
    those conditions.
    """

    kind: str
    alpha: float = 1.0
    beta: float = 2.0
    omega0: float = 1.0
    s0: float | None = None
    delta: float = 0.5
    kappa: float = 25.0
    table_s: np.ndarray | None = None
    table_w: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ProfileError(f"unknown profile kind {self.kind!r}; expected one of {_KINDS}")
        if not self.omega0 > 0:   # NaN fails too, as in every check below
            raise ProfileError("omega0 must be positive")
        if not 0 < self.delta < 2:
            raise ProfileError("delta must lie in (0, 2)")
        if self.kind == "power" and not self.alpha > 0:
            raise ProfileError("power profile needs alpha > 0")
        if self.kind == "log-power" and not self.beta > 0:
            raise ProfileError("log-power profile needs beta > 0")
        if self.kind == "log-singular" and not self.kappa > 0:
            raise ProfileError("log-singular profile needs kappa > 0")
        if self.kind == "table":
            s = np.asarray(self.table_s, dtype=float)
            w = np.asarray(self.table_w, dtype=float)
            if s.ndim != 1 or s.size < 2 or s.shape != w.shape:
                raise ProfileError("table profile needs two equal 1-d columns with >= 2 rows")
            if np.any(np.diff(s) <= 0):
                raise ProfileError("table abscissae must be strictly increasing")
            if np.any(w <= 0) or np.any(np.diff(w) < 0):
                raise ProfileError("table values must be positive and nondecreasing")
            if s[0] <= 0:
                raise ProfileError("table abscissae must be positive")
            object.__setattr__(self, "table_s", s)
            object.__setattr__(self, "table_w", w)
        if self.s0 is None:
            object.__setattr__(self, "s0", self._default_s0())
        if not 0 < self.s0 < math.inf:
            raise ProfileError("s0 must be finite and positive")

    def _default_s0(self) -> float:
        if self.kind == "log-power":
            # largest radius where s*omega'/omega = beta/ln(1/s) <= 2-delta
            return math.exp(-self.beta / (2.0 - self.delta))
        if self.kind == "table":
            return float(self.table_s[-1])
        if self.kind == "log-singular":
            return 0.5
        return 1.0

    # -- constructors: each passes its keywords on, so a default is a field's

    @classmethod
    def power(cls, alpha: float, **kw) -> "OmegaProfile":
        return cls(kind="power", alpha=alpha, **kw)

    @classmethod
    def log_power(cls, beta: float, **kw) -> "OmegaProfile":
        return cls(kind="log-power", beta=beta, **kw)

    @classmethod
    def constant(cls, **kw) -> "OmegaProfile":
        return cls(kind="constant", **kw)

    @classmethod
    def log_singular(cls, **kw) -> "OmegaProfile":
        return cls(kind="log-singular", **kw)

    @classmethod
    def from_table(cls, s, w, **kw) -> "OmegaProfile":
        s = np.asarray(s, dtype=float)
        w = np.asarray(w, dtype=float)
        return cls(kind="table", table_s=s, table_w=w, omega0=float(w[-1]), **kw)

    # -- evaluation --------------------------------------------------------

    def log_omega(self, u, slope: bool = False):
        """ln omega at u = ln(1/s), an ndarray shaped like u; with ``slope``,
        the pair (ln omega, d ln omega / du).

        The one per-kind statement of omega: every other evaluation is built
        on it.  ln omega is -inf exactly where omega is 0 and inf where omega
        is infinite, so it stays exact far past the point where omega itself
        underflows.  Only the ramp and the condition checks read the
        derivative, so it is computed only when asked for; ln omega is the
        same either way.  The derivative is zero on a capped plateau and
        takes the uncapped side at the cap itself.  The logarithmic kinds
        read u <= 0 (s >= 1) as u = 0.  A table's ln omega is linear between
        rows in x = ln u (u - 1 below u = 1, continuous with its slope
        there), exact on log-power rows at u >= 1, and a row takes the
        deeper segment's derivative; it is held above the top row, and past
        the deepest the last segment continues as omega ~ u^(-b), -inf at
        u = inf unless flat.
        """
        u = np.asarray(u, dtype=float)
        log_w0 = math.log(self.omega0)
        # each kind gives ln omega and a thunk of its derivative
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.kind == "power":
                free = -self.alpha * u
                lw = np.minimum(free, log_w0)
                d = lambda: np.where(free <= log_w0, -self.alpha, 0.0)
            elif self.kind == "log-power":
                L = np.maximum(u, 0.0)
                free = -self.beta * np.log(L)
                lw = np.minimum(free, log_w0)
                d = lambda: np.where(free <= log_w0, -self.beta / L, 0.0)
            elif self.kind == "constant":
                lw, d = np.full_like(u, log_w0), lambda: np.zeros_like(u)
            elif self.kind == "log-singular":
                L = np.maximum(u, 0.0)
                lw, d = math.log(self.kappa) + np.log(L), lambda: np.where(L > 0, 1.0 / L, 0.0)
            else:
                def x_of(v):
                    return np.where(v >= 1.0, np.log(v), v - 1.0)

                # the rows in ascending x, deepest last; grad[j] is segment j's
                x_rows = x_of(-np.log(self.table_s[::-1]))
                lw_rows = np.log(self.table_w[::-1])
                grad = np.diff(lw_rows) / np.diff(x_rows)
                x = x_of(u)
                held = np.maximum(x, x_rows[0])   # NaN stays NaN
                j = np.clip(np.searchsorted(x_rows, held, side="right") - 1, 0, grad.size - 1)
                rise = grad[j] * (held - x_rows[j])
                lw = lw_rows[j] + np.where((grad[j] == 0.0) & (held == np.inf), 0.0, rise)
                d = lambda: np.where(x >= x_rows[0],
                                     grad[j] * np.where(u >= 1.0, 1.0 / u, 1.0), 0.0)
            return (lw, d()) if slope else lw

    def omega(self, s):
        """omega(s) for scalar or array s >= 0: exp of ``log_omega`` at
        u = -ln s.

        A scalar is evaluated by the same ufunc expression as an array, on a
        one-element 1-d ndarray, so ``omega(x) == omega(xs)[i]`` bit for bit
        whenever ``xs[i] == x`` (NaN included).  No path uses ``math`` on s:
        its ``log`` and ``exp`` round differently from numpy's array loops.
        """
        arr, scalar = _asfarray(s)
        if np.any(arr < 0):
            raise ProfileError("omega is only defined for s >= 0")
        with np.errstate(divide="ignore"):
            out = np.exp(self.log_omega(-np.log(arr.reshape(1) if scalar else arr)))
        return float(out[0]) if scalar else out

    # -- the space-time ramp s(tau) = tau**4 / omega(tau) ------------------

    def _ramp_inputs(self, tau):
        """(tau, scalar, ln omega, d ln omega/du) at tau > 0 where omega does
        not vanish."""
        arr, scalar = _asfarray(tau)
        if np.any(arr <= 0):
            raise ProfileError("s(tau) needs tau > 0")
        lw, d = self.log_omega(-np.log(arr), slope=True)
        if np.any(lw == -np.inf):
            raise ZeroDivisionError("omega vanishes at a requested tau; s(tau) undefined")
        return arr, scalar, lw, d

    def ramp(self, tau):
        """(s, s') of the ramp s(tau) = tau**4 / omega(tau).

        s' = (tau**3 / omega) * (4 + d ln omega/du); under the slope condition
        it brackets between (2+delta)*tau**3/omega and 4*tau**3/omega.
        """
        arr, scalar, lw, d = self._ramp_inputs(tau)
        w = np.exp(lw)
        s = arr**4 / w
        sp = (arr**3 / w) * (4.0 + d)
        if scalar:
            return float(s[()]), float(sp[()])
        return s, sp

    def log_ramp_slope(self, tau):
        """ln s'(tau) from ln omega, exact for tau far below underflow scale."""
        arr, scalar, lw, d = self._ramp_inputs(tau)
        rise = 4.0 + d
        if not np.all(rise > 0):  # tau omega'/omega >= 4: s falls or stalls
            raise MonotonicityError(f"s(tau) does not rise at tau = {np.min(arr[~(rise > 0)]):.6g}")
        log_sp = 3.0 * np.log(arr) - lw + np.log(rise)
        return float(log_sp[()]) if scalar else log_sp


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    witness_s: float | None = None
    witness_value: float | None = None


def check_conditions(profile: OmegaProfile) -> tuple[ConditionCheck, ...]:
    """Sampled verification of the structural conditions on ``omega``: one
    check each of monotone, origin, bounded, slope, minorant and knee, on
    10 000 geometric radii from s0 * 1e-8, or a table's deepest row when
    it lies deeper, up to s0.

    A failure comes with a violating sample, so it is a certificate; a pass
    is evidence at the grid resolution, not a proof.
    """
    deepest = profile.s0 * 1e-8
    if profile.kind == "table":
        deepest = min(deepest, float(profile.table_s[0]))
    grid = np.geomspace(deepest, profile.s0, 10_000)
    u = -np.log(grid)
    log_w, d = profile.log_omega(u, slope=True)
    w = np.exp(log_w)
    delta = profile.delta
    checks = []

    def record(name, mask_ok):
        if np.all(mask_ok):
            checks.append(ConditionCheck(name, True))
        else:
            i = int(np.argmin(mask_ok))
            checks.append(ConditionCheck(name, False, float(grid[i]), float(w[i])))

    finite = np.isfinite(w)
    scale = float(np.max(np.abs(w[finite]))) if np.any(finite) else 1.0
    tol = 1e-9 * max(scale, 1.0)

    diffs_ok = np.concatenate([[True], np.diff(w) >= -tol]) & finite
    record("monotone", diffs_ok)

    origin_ok = (w > 0) & finite
    w_at_zero = profile.omega(0.0)
    if not (np.isfinite(w_at_zero) and w_at_zero == 0.0):
        origin_ok = np.zeros_like(origin_ok)
    record("origin", origin_ok)

    record("bounded", finite & (w <= profile.omega0 * (1 + 1e-12)))

    record("slope", -d <= (2.0 - delta) + 1e-9)   # s omega'/omega = -d ln omega/du

    record("minorant", w >= grid ** (2.0 - delta) * (1 - 1e-12))

    # omega / s^2 nonincreasing in s, in logs: s^2 underflows on a deep table
    log_ratio = log_w + 2.0 * u
    knee_ok = np.concatenate([[True], log_ratio[1:] <= log_ratio[:-1] + math.log1p(tol)])
    record("knee", knee_ok & (log_ratio < np.inf))

    return tuple(checks)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialField:
    """Radial absorption coefficient a(r) = d0 * exp(-omega(r)/r**2).

    ``log_a`` is exact, also far below the double-precision underflow
    threshold; only ``a`` underflows to zero, through ``exp``.  At r = 0 the
    value is the limit: zero when omega(r)/r**2 diverges, d0*exp(-L) when it
    tends to a finite L.
    """

    d0: float
    omega: OmegaProfile

    def __post_init__(self):
        if not self.d0 > 0:   # NaN fails too
            raise ProfileError("potential amplitude d0 must be positive")

    def _origin_log(self) -> float:
        # numeric limit of ln a as r -> 0+, probed just above underflow scale
        r = 1e-9
        expo = self.omega.omega(r) / r**2
        if not np.isfinite(expo) or expo > -EXP_UNDERFLOW:
            return -np.inf
        return math.log(self.d0) - expo

    def log_a(self, r):
        """ln a(r), unclamped; -inf where omega(r)/r**2 overflows or is not
        finite, and at r = 0 when a(0) = 0."""
        arr, scalar = _asfarray(r)
        if np.any(arr < 0):
            raise ProfileError("potential radius must be nonnegative")
        out = np.empty_like(arr)
        pos = arr > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            expo = np.empty_like(arr)
            expo[pos] = self.omega.omega(arr[pos]) / arr[pos] ** 2
            vals = math.log(self.d0) - expo[pos]
            out[pos] = np.where(np.isfinite(vals), vals, -np.inf)
        if not pos.all():
            out[~pos] = self._origin_log()
        return float(out[()]) if scalar else out

    def a(self, r):
        la = self.log_a(r)
        arr, scalar = _asfarray(la)
        with np.errstate(under="ignore"):
            out = np.exp(arr)
        return float(out[()]) if scalar else out


@dataclass(frozen=True)
class ConstantPotential:
    """Spatially uniform absorption a(r) = value; has no inverse map."""

    value: float

    def __post_init__(self):
        if not self.value >= 0:   # NaN fails too
            raise ProfileError("constant potential must be nonnegative")

    def log_a(self, r):
        arr, scalar = _asfarray(r)
        if np.any(arr < 0):
            raise ProfileError("potential radius must be nonnegative")
        out = np.full_like(arr, math.log(self.value) if self.value > 0 else -np.inf)
        return float(out[()]) if scalar else out

    def a(self, r):
        arr, scalar = _asfarray(r)
        if np.any(arr < 0):
            raise ProfileError("potential radius must be nonnegative")
        out = np.full_like(arr, self.value)
        return float(out[()]) if scalar else out


# ---------------------------------------------------------------------------
# the root finder and the monotone map rho^{-1}(s)
# ---------------------------------------------------------------------------

def solve_increasing(g, targets, lo, hi) -> np.ndarray:
    """Solve g(x) = t on [lo, hi] for every t of ``targets``, g increasing;
    lo and hi are numbers, or arrays that broadcast to the targets' shape.

    All targets run in lock-step: ``g`` gets the ndarray of the points of
    the targets still open, once per pass, and returns their values.  A
    pass takes the Illinois regula falsi point of a target's bracket, or
    its midpoint while an end value is unknown (lo and hi themselves are
    never evaluated) or the secant point is not strictly inside.  A secant
    point that rounds onto an end (g = t there, or the root within an ulp
    of it) gives way to a probe off that end instead: one ulp after a
    secant step, twice the last probe's distance after a probe, as long as
    the probe stays short of the midpoint.  A bracket closes when its
    midpoint rounds onto an end, so no tolerance or pass cap is needed,
    and that midpoint is the root.  The ends keep g < t below and g >= t
    above, as a bisection's do, so where g is monotone in floating point
    the final adjacent bracket, and with it the root, is the one a
    bisection finds.  A target's points depend on its own values only, and
    a closed target is never passed to ``g`` again.  Returns the roots in
    x, shaped like ``targets``.
    """
    targets = np.asarray(targets, dtype=float)
    t = targets.ravel()
    roots = np.empty(t.size)
    # the open targets: their indices, brackets [a, b], g - t at a and b
    # (NaN until known), whether the last pass moved b, and the last
    # probe's distance (0 after a secant step, NaN after a midpoint)
    idx = np.arange(t.size)
    a, b = (np.broadcast_to(np.asarray(end, dtype=float), targets.shape).ravel()
            for end in (lo, hi))
    fa, fb, gap = np.full(t.size, np.nan), np.full(t.size, np.nan), np.full(t.size, np.nan)
    moved_b = np.zeros(t.size, dtype=bool)
    while idx.size:
        mid = 0.5 * (a + b)
        open_ = (a < mid) & (mid < b)
        if not open_.all():
            roots[idx[~open_]] = mid[~open_]
            idx, t, a, b, fa, fb, gap, moved_b, mid = (
                v[open_] for v in (idx, t, a, b, fa, fb, gap, moved_b, mid))
            if not idx.size:
                break
        # inf or NaN end values give a NaN point: neither inside nor on an end
        with np.errstate(all="ignore"):
            x = a - fa * ((b - a) / (fb - fa))
        inside = (a < x) & (x < b)
        on_b = x >= b
        end, other = np.where(on_b, b, a), np.where(on_b, a, b)
        step = np.where(gap == 0.0, np.abs(np.nextafter(end, other) - end), 2.0 * gap)
        probe = (on_b | (x <= a)) & (step < np.abs(mid - end))
        x = np.where(inside, x, np.where(probe, end + np.copysign(step, other - end), mid))
        gap = np.where(inside, 0.0, np.where(probe, step, np.nan))
        gx = g(x)
        up = gx >= t
        with np.errstate(all="ignore"):
            f = gx - t
        # Illinois: an end kept twice in a row has its value halved
        fa = np.where(up, np.where(moved_b, 0.5 * fa, fa), f)
        fb = np.where(up, f, np.where(moved_b, fb, 0.5 * fb))
        a, b, moved_b = np.where(up, a, x), np.where(up, x, b), up
    return roots.reshape(targets.shape)


@dataclass(frozen=True)
class RhoMap:
    """The inverse of rho(z) = z r(z)^2, r(z) = a^{-1}(z), on [r_lo, r_hi].

    Every query solves ln rho = ln a(r) + 2 ln r in x = ln r over
    [ln r_lo, ln r_hi], where rho runs over [rho_min, rho_max], by
    ``solve_increasing``, until x rounds onto an end of its bracket.  An
    array query is one solve for all its elements, and each element equals
    the scalar query of that element bit for bit, so callers batch their
    queries.
    """

    potential: PotentialField
    r_lo: float
    r_hi: float
    rho_min: float
    rho_max: float

    def rho_inv(self, s):
        """Solve rho(z) = s, returning z; s outside [rho_min, rho_max]
        raises MonotonicityError (callers clip into range themselves)."""
        arr, scalar = _asfarray(s)
        if np.any(arr < self.rho_min * (1 - 1e-9)) or np.any(arr > self.rho_max * (1 + 1e-9)):
            raise MonotonicityError("s outside the range of rho")
        x = solve_increasing(lambda x: self.potential.log_a(np.exp(x)) + 2.0 * x,
                             np.log(arr), math.log(self.r_lo), math.log(self.r_hi))
        # z = s / r^2 at the root; a(r) there would scale the last bit of
        # ln r by d ln a / d ln r, up to about 750 near rho_min
        out = arr / np.exp(x) ** 2
        return float(out[()]) if scalar else out


def build_rho_map(field) -> RhoMap:
    """The map of ``field`` where a rises on [1e-8, 1].

    Raises MonotonicityError when a or rho is not strictly increasing at
    2000 geometric radii across the range (constant potentials, profiles
    violating the slope condition).
    """
    probe = np.geomspace(1e-8, 1.0, 4000)
    la = field.log_a(probe)
    alive = la > EXP_UNDERFLOW / 2  # representable part of the potential
    if not np.any(alive):
        raise MonotonicityError("potential underflows to zero on the whole probe range")
    start = int(np.argmax(alive))
    la_alive = la[start:]
    # the range ends a probe before the first that does not rise: a peak
    # (a table's sits on a row) may lie between that probe and the one before
    bad = np.flatnonzero(np.diff(la_alive) <= 0)
    end = start + (int(bad[0]) - 1 if bad.size else la_alive.size - 1)
    if end <= start:
        raise MonotonicityError("a is not increasing where it is representable")
    r_lo, r_hi = float(probe[start]), float(probe[end])

    r_tab = np.geomspace(r_lo, r_hi, 2000)
    log_z = field.log_a(r_tab)
    if np.any(np.diff(log_z) <= 0):
        raise MonotonicityError("a is not strictly increasing on the tabulated range")
    rho_tab = np.exp(log_z) * r_tab**2
    if np.any(np.diff(rho_tab) <= 0):
        raise MonotonicityError("rho is not strictly increasing on the tabulated range")
    return RhoMap(field, r_lo, r_hi, float(rho_tab[0]), float(rho_tab[-1]))
