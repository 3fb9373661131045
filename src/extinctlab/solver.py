"""Radially symmetric finite-difference solver for the absorption-diffusion
problem u_t - Laplace(u) + a(|x|) |u|^(q-1) u = 0 with zero-flux boundaries.

Space is discretized by a cell-centered finite volume scheme on [0, R] with
the radial weight r^(N-1); the flux form makes mass conservation exact up to
roundoff when the absorption vanishes, and the origin needs no special
stencil because the r = 0 face carries zero flux.  Time stepping is IMEX:
diffusion is implicit, V (x - u) = -dt K x with V the cell volumes and K the
symmetric stiffness matrix of the face conductances.  It is solved in
increment form, x = u + d with (V + dt K) d = -dt K u: the right-hand side
is the face fluxes dt c (u_right - u_left), each added to the cell left of
its face and taken from the cell right of it, so the volume sum of d
vanishes up to the rounding of K's zero column sums and mass drifts far
less than in a solve for x itself.  V + dt K is symmetric positive definite
and tridiagonal; its LDL^T factor is computed once per run and reused on
every step.  ``FluxOperator`` owns K and builds this matrix, the
symmetrized Schrodinger matrix of ``spectral`` and the face energies.
Absorption is applied through the frozen-coefficient factor

    u <- u / (1 + dt * a * |u|^(q-1)),

which lies in (0, 1] and therefore preserves nonnegativity for any dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .profiles import as_potential

#: snapshot rows run() allocates up front; the default decimation never
#: needs more, a small user-set ``snapshot_every`` grows the buffer by doubling
_SNAPSHOT_ROWS = 1024


class NumericsError(RuntimeError):
    """Fatal numerical failure; carries a diagnostic snapshot."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered grid on [0, R] with volume weight r^(N-1).

    ``faces`` has n+1 entries, ``centers`` n; ``volumes`` are the exact cell
    integrals of r^(N-1) dr, so their sum telescopes to R^N / N.
    """

    dimension: int
    radius: float
    faces: np.ndarray
    centers: np.ndarray
    volumes: np.ndarray
    face_areas: np.ndarray  # r^(N-1) at interior faces; 0 at both ends

    @classmethod
    def uniform(cls, n: int, radius: float = 1.0, dimension: int = 1) -> "RadialGrid":
        faces = np.linspace(0.0, radius, n + 1)
        return cls.from_faces(faces, dimension)

    @classmethod
    def from_faces(cls, faces, dimension: int = 1) -> "RadialGrid":
        faces = np.asarray(faces, dtype=float)
        if dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if faces[0] != 0.0 or np.any(np.diff(faces) <= 0):
            raise ValueError("faces must start at 0 and increase strictly")
        N = dimension
        centers = 0.5 * (faces[:-1] + faces[1:])
        volumes = (faces[1:] ** N - faces[:-1] ** N) / N
        areas = faces ** (N - 1)
        areas[0] = 0.0   # zero flux through the origin by symmetry
        areas[-1] = 0.0  # zero-flux outer boundary
        return cls(N, float(faces[-1]), faces, centers, volumes, areas)

    @property
    def n(self) -> int:
        return self.centers.size

    def integrate(self, values: np.ndarray) -> float:
        """Volume integral of a cell-centered field."""
        return float(np.dot(self.volumes, values))


def sample_potential(potential, grid: RadialGrid) -> np.ndarray:
    """Cell-centered absorption coefficient; None means no absorption."""
    return np.asarray(as_potential(potential).a(grid.centers), dtype=float)


class FluxOperator:
    """The flux-form -Laplacian on a radial grid, shared by the diffusion
    solver, the Schrodinger ground states and the energy ledger.

    K is the stiffness matrix of the interior-face conductances
    r^(N-1) / (distance between neighbouring centers); V is the diagonal of
    cell volumes, so the operator itself is V^-1 K.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        # conductance of interior face i (between cells i-1 and i)
        self.conduct = grid.face_areas[1:-1] / np.diff(grid.centers)

    def implicit(self, dt: float):
        """(diag, off) of the symmetric positive-definite V + dt K, in
        dpttrf's order; off is -dt times the conductances."""
        flux = dt * self.conduct
        diag = self.grid.volumes.copy()
        diag[:-1] += flux
        diag[1:] += flux
        return diag, -flux

    def symmetric(self, pot):
        """(diag, offdiag) of V^-1/2 K V^-1/2 + diag(pot), pot given per cell."""
        v = self.grid.volumes
        diag = np.zeros(self.grid.n)
        diag[:-1] += self.conduct / v[:-1]
        diag[1:] += self.conduct / v[1:]
        diag += pot
        off = -self.conduct / np.sqrt(v[:-1] * v[1:])
        return diag, off

    def face_energy(self, u: np.ndarray) -> np.ndarray:
        """|grad u|^2 carried by each interior face."""
        return self.conduct * np.diff(u) ** 2


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of a single absorption-diffusion run."""

    q: float
    dimension: int = 1
    radius: float = 1.0
    potential: object | None = None       # PotentialField | ConstantPotential | float | None
    u0: object = 1.0                      # float | array of cell values | "random"
    cells: int = 2000
    dt: float = 1e-3
    horizon: float = 2.5
    extinction_rtol: float = 1e-10        # threshold relative to ||u0||_inf
    snapshot_every: int | None = None
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie strictly inside (0, 1)")
        if not (0 < self.dt < math.inf and 0 < self.horizon < math.inf):   # NaN fails too
            raise ValueError("dt and horizon must be positive and finite")
        if not 0.0 < self.extinction_rtol < 1.0:
            raise ValueError("extinction_rtol must lie strictly inside (0, 1)")
        if self.cells < 3:
            raise ValueError("cells must be at least 3")
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")

    def build_grid(self) -> RadialGrid:
        return RadialGrid.uniform(self.cells, self.radius, self.dimension)

    def initial_state(self, grid: RadialGrid) -> np.ndarray:
        if isinstance(self.u0, str):
            if self.u0 != "random":
                raise ValueError(f"unknown initial data spec {self.u0!r}")
            u = np.random.RandomState(self.seed).uniform(0.0, 1.0, grid.n)
        elif np.ndim(self.u0) == 0:
            u = np.full(grid.n, float(self.u0))
        else:
            u = np.asarray(self.u0, dtype=float)
            if u.shape != (grid.n,):
                raise ValueError("initial data array must match the grid")
        if not np.all(np.isfinite(u)):
            raise ValueError("initial data must be square integrable (finite)")
        return u


class Stepper(FluxOperator):
    """IMEX stepper of fixed step dt; V + dt K is factored once, here."""

    def __init__(self, grid: RadialGrid, potential, q: float, dt: float):
        super().__init__(grid)
        self.q = q
        self.a = sample_potential(potential, grid)
        diag, off = self.implicit(dt)
        *ldl, info = dpttrf(diag, off)
        if info != 0:
            raise NumericsError(f"diffusion matrix not positive definite (dpttrf info = {info})")
        self._ldl = ldl  # dpttrf factor (d, e) of V + dt K
        self._dtc = -off  # dt * conduct, the face fluxes per unit jump
        self._dta = dt * self.a
        self._au = np.empty(grid.n)  # scratch for absorb; never returned
        self._w = np.empty(grid.n)
        self._rhs = np.empty(grid.n)  # scratch for diffuse; never returned
        self._flux = np.empty(grid.n - 1)

    def diffuse(self, u: np.ndarray) -> np.ndarray:
        """u + d with (V + dt K) d = -dt K u; ``u`` is not modified."""
        flux = np.subtract(u[1:], u[:-1], out=self._flux)
        np.multiply(self._dtc, flux, out=flux)
        rhs = self._rhs  # -dt K u: each face flux enters left, leaves right
        np.subtract(flux[1:], flux[:-1], out=rhs[1:-1])
        rhs[0] = flux[0]
        rhs[-1] = -flux[-1]
        d, info = dpttrs(*self._ldl, rhs)
        if info != 0:
            raise NumericsError(f"diffusion solve failed (dpttrs info = {info})")
        return u + d

    def absorb(self, u: np.ndarray) -> np.ndarray:
        """Bit for bit ``u / (1.0 + dt * a * w)``, ``w = where(|u| > 0, |u|**(q-1), 0)``.

        Scratch buffers replace the temporaries; ``u`` is not modified, and
        the result is a new array that shares no memory with the stepper.
        """
        au = np.abs(u, out=self._au)
        w = self._w
        w.fill(0.0)
        np.power(au, self.q - 1.0, out=w, where=au > 0)
        np.multiply(self._dta, w, out=w)
        np.add(w, 1.0, out=w)
        return u / w

    def step(self, u: np.ndarray) -> np.ndarray:
        return self.absorb(self.diffuse(u))


@dataclass
class SolutionTrajectory:
    """Time-indexed record of one run: norms every step, states decimated."""

    grid: RadialGrid
    spec: ProblemSpec
    times: np.ndarray
    l2sq: np.ndarray          # integral of u^2
    linf: np.ndarray
    umin: np.ndarray
    mass: np.ndarray          # integral of u
    snapshot_times: np.ndarray
    snapshots: np.ndarray     # (k, n) decimated states: the written rows of
                              # one buffer, grown only past _SNAPSHOT_ROWS
    extinction_time: float | None
    threshold: float

    @property
    def y0(self) -> float:
        return float(self.l2sq[0])


def run(spec: ProblemSpec) -> SolutionTrajectory:
    """March the IMEX scheme to the horizon or to extinction.

    Extinction is recorded at the first time the sup norm drops below the
    relative threshold; the run stops there.  NaNs abort with a diagnostic
    snapshot attached to the exception.
    """
    grid = spec.build_grid()
    u = spec.initial_state(grid)
    stepper = Stepper(grid, spec.potential, spec.q, spec.dt)

    n_steps = int(math.ceil(spec.horizon / spec.dt))
    every = spec.snapshot_every or max(1, n_steps // 400)
    threshold = spec.extinction_rtol * max(float(np.max(np.abs(u))), 1e-300)

    times = [0.0]
    l2sq = [grid.integrate(u**2)]
    linf = [float(np.max(np.abs(u)))]
    umin = [float(np.min(u))]
    mass = [grid.integrate(u)]
    snap_t = [0.0]
    # the initial row, every multiple of ``every`` and one final or
    # extinction row
    rows = n_steps // every + 2
    snaps = np.empty((min(rows, _SNAPSHOT_ROWS), grid.n))
    snaps[0] = u
    extinction_time = None

    vol = grid.volumes
    sq = np.empty(grid.n)  # scratch for u*u
    t = 0.0
    for k in range(1, n_steps + 1):
        u = stepper.step(u)
        t = k * spec.dt
        lo = float(u.min())
        # max |u| without an |u| pass; + 0.0 turns the -0.0 of an all-zero
        # state into +0.0, and a NaN anywhere makes both NaN
        sup = max(float(u.max()), -lo) + 0.0
        if not math.isfinite(sup):
            raise NumericsError(f"non-finite state at t = {t:.6g}", t=t, state=u)
        times.append(t)
        l2sq.append(float(np.dot(vol, np.multiply(u, u, out=sq))))
        linf.append(sup)
        umin.append(lo)
        mass.append(float(np.dot(vol, u)))
        if k % every == 0 or k == n_steps:
            snaps = _put_row(snaps, len(snap_t), u, rows)
            snap_t.append(t)
        if sup < threshold:
            extinction_time = t
            if snap_t[-1] != t:
                snaps = _put_row(snaps, len(snap_t), u, rows)
                snap_t.append(t)
            break

    return SolutionTrajectory(
        grid=grid, spec=spec,
        times=np.asarray(times), l2sq=np.asarray(l2sq), linf=np.asarray(linf),
        umin=np.asarray(umin), mass=np.asarray(mass),
        snapshot_times=np.asarray(snap_t), snapshots=snaps[:len(snap_t)],
        extinction_time=extinction_time, threshold=threshold)


def _put_row(buf: np.ndarray, i: int, u: np.ndarray, rows: int) -> np.ndarray:
    """``buf`` with row i set to u; a full buffer is first doubled, to at
    most ``rows`` rows."""
    if i == len(buf):
        grown = np.empty((min(2 * i, rows), buf.shape[1]))
        grown[:i] = buf
        buf = grown
    buf[i] = u
    return buf
