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

A profile also carries the space-time ramp s(tau) = tau**4 / omega(tau).
The module also provides the inverse of the monotone map
rho(z) = z * r(z)**2, r(z) = a^{-1}(z), attached to an invertible
potential, and ``bisect``, the one root finder of the package.
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
    """A nonnegative modulus s -> omega(s) with analytic derivative.

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

    def omega(self, s):
        """omega(s) for scalar or array s >= 0.

        A scalar is evaluated by the same ufunc expression as an array, on a
        one-element 1-d ndarray, so ``omega(x) == omega(xs)[i]`` bit for bit
        whenever ``xs[i] == x`` (NaN included).  No path uses ``math``: its
        ``log`` and ``**`` round differently from numpy's array loops.
        """
        arr, scalar = _asfarray(s)
        if np.any(arr < 0):
            raise ProfileError("omega is only defined for s >= 0")
        with np.errstate(divide="ignore", over="ignore"):
            if scalar:
                return float(self._omega_array(arr.reshape(1))[0])
            return self._omega_array(arr)

    def _omega_array(self, arr: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return np.minimum(arr ** self.alpha, self.omega0)
        if self.kind == "log-power":
            # L = 0 for s >= 1 gives omega0; s = 0 and NaN give 0
            L = np.maximum(-np.log(arr), 0.0)
            return np.where(arr > 0, np.minimum(L ** -self.beta, self.omega0), 0.0)
        if self.kind == "constant":
            return np.full_like(arr, self.omega0)
        if self.kind == "log-singular":
            return np.where(arr > 0, self.kappa * np.maximum(-np.log(np.maximum(arr, 1e-320)), 0.0), np.inf)
        return self._table_omega(arr)

    def _table_omega(self, arr: np.ndarray) -> np.ndarray:
        s, w = self.table_s, self.table_w
        out = np.empty_like(arr)
        below = arr < s[0]
        above = arr > s[-1]
        mid = ~below & ~above
        out[below] = w[0] * arr[below] / s[0]          # linear ramp into the origin
        out[above] = w[-1]
        out[mid] = self._pchip(arr[mid])
        return out

    def omega_prime(self, s):
        """d omega/ds; zero on capped plateaus, left-derivative at the cap."""
        arr, scalar = _asfarray(s)
        if np.any(arr < 0):
            raise ProfileError("omega' is only defined for s >= 0")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.kind == "power":
                base = arr ** self.alpha
                out = np.where(base <= self.omega0, self.alpha * arr ** (self.alpha - 1.0), 0.0)
            elif self.kind == "log-power":
                out = np.zeros_like(arr)
                pos = (arr > 0) & (arr < 1)
                L = -np.log(arr[pos])
                base = L ** (-self.beta)
                d = np.where(base <= self.omega0, self.beta * L ** (-self.beta - 1.0) / arr[pos], 0.0)
                out[pos] = d
            elif self.kind == "constant":
                out = np.zeros_like(arr)
            elif self.kind == "log-singular":
                out = np.where(arr > 0, -self.kappa / np.maximum(arr, 1e-320), -np.inf)
            else:
                s0, s1 = self.table_s[0], self.table_s[-1]
                out = np.empty_like(arr)
                below = arr < s0
                above = arr > s1
                mid = ~below & ~above
                out[below] = self.table_w[0] / s0
                out[above] = 0.0
                out[mid] = self._pchip_d(arr[mid])
        return float(out[()]) if scalar else out

    def omega_neglog(self, u):
        """omega(exp(-u)) evaluated stably for u = ln(1/s) >= 0.

        This is the natural variable for endpoint quadrature: power profiles
        become exponentials, log-power profiles become plain powers of u.
        """
        arr, scalar = _asfarray(u)
        with np.errstate(over="ignore", divide="ignore"):
            if self.kind == "power":
                out = np.minimum(np.exp(-self.alpha * arr), self.omega0)
            elif self.kind == "log-power":
                cap = self.omega0 ** (-1.0 / self.beta)
                out = np.where(arr <= cap, self.omega0, np.maximum(arr, cap) ** (-self.beta))
            elif self.kind == "constant":
                out = np.full_like(arr, self.omega0)
            elif self.kind == "log-singular":
                out = self.kappa * arr
            else:
                out = self._table_omega(np.exp(-arr))
        return float(out[()]) if scalar else out

    # -- the space-time ramp s(tau) = tau**4 / omega(tau) ------------------

    def _ramp_inputs(self, tau):
        """(tau, scalar, omega, omega') at tau > 0 where omega does not vanish."""
        arr, scalar = _asfarray(tau)
        if np.any(arr <= 0):
            raise ProfileError("s(tau) needs tau > 0")
        w = self.omega(arr)
        if np.any(w == 0):
            raise ZeroDivisionError("omega vanishes at a requested tau; s(tau) undefined")
        return arr, scalar, w, self.omega_prime(arr)

    def ramp(self, tau):
        """(s, s') of the ramp s(tau) = tau**4 / omega(tau).

        Under the slope condition s' brackets between
        (2+delta)*tau**3/omega and 4*tau**3/omega.
        """
        arr, scalar, w, wp = self._ramp_inputs(tau)
        s = arr**4 / w
        sp = (arr**3 / w) * (4.0 - arr * wp / w)
        if scalar:
            return float(s[()]), float(sp[()])
        return s, sp

    def log_ramp_slope(self, tau):
        """ln s'(tau), computed stably for tau far below underflow scale."""
        arr, scalar, w, wp = self._ramp_inputs(tau)
        rise = 4.0 - arr * wp / w
        if not np.all(rise > 0):  # tau omega'/omega >= 4: s falls or stalls
            raise MonotonicityError(f"s(tau) does not rise at tau = {np.min(arr[~(rise > 0)]):.6g}")
        log_sp = 3.0 * np.log(arr) - np.log(w) + np.log(rise)
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
    w = profile.omega(grid)
    wp = profile.omega_prime(grid)
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

    with np.errstate(invalid="ignore", divide="ignore"):
        slope = np.where(w > 0, grid * wp / w, np.inf)
    record("slope", slope <= (2.0 - delta) + 1e-9)

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
# bisection and the monotone map rho^{-1}(s)
# ---------------------------------------------------------------------------

def bisect(g, targets, lo, hi) -> np.ndarray:
    """Solve g(x) = t on [lo, hi] for every t of ``targets``, g increasing.

    All targets are bisected in lock-step: ``g`` gets the ndarray of the
    midpoints still open, once per pass, and returns their values.  A
    target's bracket closes when its midpoint rounds onto an end, so no
    tolerance or pass cap is needed, and its root is pinned between
    adjacent floating-point values of x.  A closed target is never passed
    to ``g`` again, so its root has the bits of a bisection of it alone.
    Returns the roots in x, shaped like ``targets``.
    """
    targets = np.asarray(targets, dtype=float)
    flat = targets.ravel()
    los = np.full(flat.size, float(lo))
    his = np.full(flat.size, float(hi))
    while (open_ := (los < (mids := 0.5 * (los + his))) & (mids < his)).any():
        k = np.flatnonzero(open_)
        up = g(mids[k]) >= flat[k]
        his[k[up]] = mids[k[up]]
        los[k[~up]] = mids[k[~up]]
    return mids.reshape(targets.shape)


@dataclass(frozen=True)
class RhoMap:
    """The inverse of rho(z) = z r(z)^2, r(z) = a^{-1}(z), on [r_lo, r_hi].

    Every query bisects ln rho = ln a(r) + 2 ln r in x = ln r over
    [ln r_lo, ln r_hi], where rho runs over [rho_min, rho_max], until x
    rounds onto an end of its bracket.  An array query is one bisection for
    all its elements, and each element equals the scalar query of that
    element bit for bit, so callers batch their queries.
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
        x = bisect(lambda x: self.potential.log_a(np.exp(x)) + 2.0 * x, np.log(arr),
                   math.log(self.r_lo), math.log(self.r_hi))
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
