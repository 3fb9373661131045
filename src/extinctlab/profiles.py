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
* ``table``        monotone cubic interpolation of user samples

Each kind is stated once, in ``OmegaProfile.log_omega``: ln omega and
d ln omega/du in the radius variable u = ln(1/s), in which the Dini-like
condition reads as the integral of omega(exp(-u)) du.  ``omega`` is its
exp, the condition checks read -d ln omega/du as the slope s omega'/omega,
and a profile's space-time ramp s(tau) = tau**4 / omega(tau) takes both.
The module also provides the inverse of the monotone map
rho(z) = z * r(z)**2, r(z) = a^{-1}(z), attached to an invertible
potential, and ``solve_increasing``, the one root finder of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _pchip: PchipInterpolator | None = field(default=None, repr=False, compare=False)
    _pchip_d: PchipInterpolator | None = field(default=None, repr=False, compare=False)

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
            # the cubic on a row reaches coefficients of size (dw/ds)/ds, so a
            # deep row, tiny in s, overflows them; the first such row is named
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                slopes = np.diff(w) / np.diff(s)
                bad = ~np.isfinite(slopes / np.diff(s) ** 2)
            if bad.any():
                k = int(np.argmax(bad))
                raise ProfileError(
                    f"table row {k + 1} (s = {s[k]:.6g}): the monotone cubic to the next "
                    "row is not finite; the table reaches too deep in s")
            object.__setattr__(self, "table_s", s)
            object.__setattr__(self, "table_w", w)
            # lazy: scipy.interpolate also loads scipy.special and scipy.optimize
            from scipy.interpolate import PchipInterpolator
            interp = PchipInterpolator(s, w, extrapolate=False)
            object.__setattr__(self, "_pchip", interp)
            object.__setattr__(self, "_pchip_d", interp.derivative())
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

    def log_omega(self, u):
        """(ln omega, d ln omega / du) at u = ln(1/s), ndarrays shaped like u.

        The one per-kind statement of omega: every other evaluation is built
        on it.  ln omega is -inf exactly where omega is 0 and inf where omega
        is infinite, so it stays exact far past the point where omega itself
        underflows.  The derivative is zero on a capped plateau and takes the
        uncapped side at the cap itself.  The logarithmic kinds read u <= 0
        (s >= 1) as u = 0.  A table wraps its monotone cubic in s; below its
        first row it continues the linear ramp w0 * s / s0.
        """
        u = np.asarray(u, dtype=float)
        log_w0 = math.log(self.omega0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.kind == "power":
                free = -self.alpha * u
                return np.minimum(free, log_w0), np.where(free <= log_w0, -self.alpha, 0.0)
            if self.kind == "log-power":
                L = np.maximum(u, 0.0)
                free = -self.beta * np.log(L)
                return np.minimum(free, log_w0), np.where(free <= log_w0, -self.beta / L, 0.0)
            if self.kind == "constant":
                return np.full_like(u, log_w0), np.zeros_like(u)
            if self.kind == "log-singular":
                L = np.maximum(u, 0.0)
                return math.log(self.kappa) + np.log(L), np.where(L > 0, 1.0 / L, 0.0)
            s, w = self.table_s, self.table_w
            u_first, u_last = -math.log(s[0]), -math.log(s[-1])
            below, above = u > u_first, u < u_last
            mid = ~below & ~above
            lw, d = np.empty_like(u), np.empty_like(u)
            lw[below], d[below] = math.log(w[0]) - (u[below] - u_first), -1.0
            lw[above], d[above] = math.log(w[-1]), 0.0
            sm = np.clip(np.exp(-u[mid]), s[0], s[-1])   # exp may round off the table
            wm = self._pchip(sm)
            lw[mid], d[mid] = np.log(wm), -sm * self._pchip_d(sm) / wm
            return lw, d

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
            out = np.exp(self.log_omega(-np.log(arr.reshape(1) if scalar else arr))[0])
        return float(out[0]) if scalar else out

    # -- the space-time ramp s(tau) = tau**4 / omega(tau) ------------------

    def _ramp_inputs(self, tau):
        """(tau, scalar, ln omega, d ln omega/du) at tau > 0 where omega does
        not vanish."""
        arr, scalar = _asfarray(tau)
        if np.any(arr <= 0):
            raise ProfileError("s(tau) needs tau > 0")
        lw, d = self.log_omega(-np.log(arr))
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
    check each of monotone, origin, bounded, slope, minorant and knee.

    A failure comes with a violating sample, so it is a certificate; a pass
    is evidence at the grid resolution, not a proof.
    """
    grid = np.geomspace(profile.s0 * 1e-8, profile.s0, 10_000)
    log_w, d = profile.log_omega(-np.log(grid))
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

    ratio = w / grid**2
    knee_ok = np.concatenate([[True], np.diff(ratio) <= tol * np.maximum(ratio[:-1], 1.0)])
    record("knee", knee_ok & np.isfinite(ratio))

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
    """Solve g(x) = t on [lo, hi] for every t of ``targets``, g increasing.

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
    a, b = np.full(t.size, float(lo)), np.full(t.size, float(hi))
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
    dif = np.diff(la_alive)
    bad = np.where(dif <= 0)[0]
    end = start + (int(bad[0]) if bad.size else la_alive.size - 1)
    if end == start:
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
