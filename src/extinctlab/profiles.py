"""Modulus profiles and the degenerate radial absorption potential.

A profile ``omega(s)`` measures how fast the absorption coefficient

    a(r) = d0 * exp(-omega(r) / r**2)

flattens at the origin.  Everything downstream (extinction verdicts,
spectral sandwiches, the dominating curve) is driven by the small-``s``
behaviour of ``omega``.  Built-in kinds:

* ``power``        omega(s) = min(s**alpha, omega0)
* ``log-power``    omega(s) = min(ln(1/s)**(-beta), omega0)
* ``constant``     omega(s) = omega0  (absorption bounded away from zero)
* ``log-singular`` omega(s) = kappa * ln(1/s), unbounded at the origin;
                   the potential is then flatter than exp(-C/r**2) for
                   every C and solutions are expected to stay positive
* ``table``        monotone cubic interpolation of user samples

A profile also carries the space-time ramp s(tau) = tau**4 / omega(tau).
The module also provides the monotone maps attached to an invertible
potential: r(z) = a^{-1}(z), rho(z) = z * r(z)**2 and its inverse.
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
    """The potential is not invertible on the requested range."""


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
    kappa: float = 1.0
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def power(cls, alpha: float, omega0: float = 1.0, delta: float = 0.5,
              s0: float | None = None) -> "OmegaProfile":
        return cls(kind="power", alpha=alpha, omega0=omega0, delta=delta, s0=s0)

    @classmethod
    def log_power(cls, beta: float, omega0: float = 1.0, delta: float = 0.5,
                  s0: float | None = None) -> "OmegaProfile":
        return cls(kind="log-power", beta=beta, omega0=omega0, delta=delta, s0=s0)

    @classmethod
    def constant(cls, omega0: float = 1.0) -> "OmegaProfile":
        return cls(kind="constant", omega0=omega0)

    @classmethod
    def log_singular(cls, kappa: float = 1.0) -> "OmegaProfile":
        return cls(kind="log-singular", kappa=kappa, omega0=1.0)

    @classmethod
    def from_table(cls, s, w, delta: float = 0.5, s0: float | None = None) -> "OmegaProfile":
        s = np.asarray(s, dtype=float)
        w = np.asarray(w, dtype=float)
        return cls(kind="table", table_s=s, table_w=w, delta=delta, s0=s0,
                   omega0=float(w[-1]))

    # -- evaluation --------------------------------------------------------

    def omega(self, s):
        """omega(s) for scalar or array s >= 0.

        A scalar is evaluated by the same ufunc expression as an array, on a
        one-element 1-d ndarray, so ``omega(x) == omega(xs)[i]`` bit for bit
        whenever ``xs[i] == x`` (NaN included).  Its path skips the range
        check over the array and, except where a power can overflow, the
        ``errstate`` block; log-power has a branch of its own for the
        uncapped range 0 < s <= 1/e.  A log-power array with every s in
        (0, 1) skips the masks and applies the masked path's ufuncs to the
        whole array.  No path uses ``math``: its ``log`` and ``**`` round
        differently from numpy's array loops.
        """
        arr, scalar = _asfarray(s)
        if scalar:
            return self._omega_scalar(arr.reshape(1))
        if np.any(arr < 0):
            raise ProfileError("omega is only defined for s >= 0")
        with np.errstate(divide="ignore", over="ignore"):
            return self._omega_array(arr)

    def _omega_scalar(self, one: np.ndarray) -> float:
        x = one[0]
        if x < 0:
            raise ProfileError("omega is only defined for s >= 0")
        if self.kind == "log-power":
            if not x > 0:
                return 0.0                      # s = 0 and NaN, as for arrays
            L = -np.log(one)
            if L[0] >= 1.0:                     # L**(-beta) <= 1: no overflow
                return float(min((L ** (-self.beta))[0], self.omega0))
        elif self.kind != "power" or x <= 1.0:  # no power here can overflow
            return float(self._omega_array(one)[0])
        with np.errstate(divide="ignore", over="ignore"):
            return float(self._omega_array(one)[0])

    def _omega_array(self, arr: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return np.minimum(arr ** self.alpha, self.omega0)
        if self.kind == "log-power":
            if arr.size and arr.min() > 0 and arr.max() < 1:   # NaN fails
                # no s = 0, s >= 1 or NaN to mask: the masked path's ufuncs
                return np.minimum((-np.log(arr)) ** (-self.beta), self.omega0)
            out = np.empty_like(arr)
            pos = arr > 0
            L = np.full_like(arr, np.inf)
            L[pos] = -np.log(arr[pos])
            inside = pos & (L > 0)
            out[~pos] = 0.0
            out[pos & ~inside] = self.omega0          # s >= 1
            out[inside] = np.minimum(L[inside] ** (-self.beta), self.omega0)
            return out
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
        log_sp = 3.0 * np.log(arr) - np.log(w) + np.log(4.0 - arr * wp / w)
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


def as_potential(potential):
    """A potential object for None (no absorption), a number or a potential."""
    if potential is None:
        return ConstantPotential(0.0)
    if isinstance(potential, (int, float)):
        return ConstantPotential(float(potential))
    return potential


# ---------------------------------------------------------------------------
# monotone maps r(z), rho(z), rho^{-1}(s)
# ---------------------------------------------------------------------------

def _bisect_increasing(fn, lo, hi, targets):
    """Vectorized bisection: fn increasing on [lo, hi], solve fn(r) = target.

    Each target stops on its own test, (hi - lo) <= 1e-15 hi, and from then
    on is neither bisected nor passed to ``fn``.  So a target's root is the
    same bits whether it is solved alone or among others.
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


@dataclass(frozen=True)
class RhoMap:
    """Monotone maps r(z) = a^{-1}(z), rho(z) = z r(z)^2 and rho^{-1} on [r_lo, r_hi].

    Every query bisects the potential over [r_lo, r_hi], where a runs over
    [z_min, z_max] and rho over [rho_min, rho_max].  An array query is one
    bisection for all its elements, and each element equals the scalar
    query of that element bit for bit, so callers batch their queries.
    """

    potential: PotentialField
    r_lo: float
    r_hi: float
    z_min: float
    z_max: float
    rho_min: float
    rho_max: float

    def r_of_z(self, z):
        arr, scalar = _asfarray(z)
        if np.any(arr < self.z_min * (1 - 1e-9)) or np.any(arr > self.z_max * (1 + 1e-9)):
            raise MonotonicityError("z outside the tabulated monotone range of a")
        out = _bisect_increasing(self.potential.log_a, self.r_lo, self.r_hi,
                                 np.log(np.clip(arr, self.z_min, self.z_max)))
        return float(out[()]) if scalar else out

    def rho(self, z):
        r = self.r_of_z(z)
        out = np.asarray(z, dtype=float) * np.asarray(r) ** 2
        return float(out) if np.ndim(z) == 0 else out

    def rho_inv(self, s):
        """Solve rho(z) = s, returning z; s outside [rho_min, rho_max]
        raises MonotonicityError (callers clip into range themselves)."""
        arr, scalar = _asfarray(s)
        if np.any(arr < self.rho_min * (1 - 1e-9)) or np.any(arr > self.rho_max * (1 + 1e-9)):
            raise MonotonicityError("s outside the range of rho")

        def g(r):
            return self.potential.log_a(r) + 2.0 * np.log(r)

        r = _bisect_increasing(g, self.r_lo, self.r_hi, np.log(arr))
        out = np.exp(self.potential.log_a(r))
        return float(out[()]) if scalar else out


def build_rho_map(field) -> RhoMap:
    """The maps of ``field`` where a rises on [1e-8, 1].

    Raises MonotonicityError when a or rho is not strictly increasing at
    2000 geometric radii across the range (constant potentials, profiles
    violating the slope condition).
    """
    if isinstance(field, ConstantPotential):
        raise MonotonicityError("a constant potential has no inverse map")
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
    return RhoMap(field, r_lo, r_hi, math.exp(log_z[0]), math.exp(log_z[-1]),
                  float(rho_tab[0]), float(rho_tab[-1]))
