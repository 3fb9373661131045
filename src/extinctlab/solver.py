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
Absorption is the exact flow of u' = -a |u|^(q-1) u over the step: with
p = 1 - q,

    u <- sign(u) * max(|u|^p - p * dt * a, 0)^(1/p),

which keeps the sign, preserves nonnegativity for any dt and sets a cell to
0 once its |u|^p is spent, as the continuous equation does in finite time.
Where a = 0 the cell keeps u itself.  At q = 1/2 the two powers are a
square root and a square.

``run`` keeps its books a block at a time: the states go into the rows of
a block of at most ``BLOCK_BYTES``, each row's L2 mass and mass are taken
as it is written, and the minimum, the maximum, finiteness and the
extinction threshold are decided for the whole block at once.  The rows
after the first one that stops the run are computed and discarded.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .profiles import ConstantPotential, PotentialField


#: bytes of the block of states that ``run`` keeps its books on
BLOCK_BYTES = 256 * 1024


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
    potential: PotentialField | ConstantPotential = ConstantPotential(0.0)
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
        if not self.radius > 0:   # NaN fails too
            raise ValueError("radius must be positive")
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
    """IMEX stepper of fixed step dt; V + dt K is factored once, here.

    ``diffuse``, ``absorb`` and ``step`` write into ``out`` when it is
    given and into a new array otherwise; they modify their input only
    when it is ``out`` itself.
    """

    def __init__(self, grid: RadialGrid, potential, q: float, dt: float):
        super().__init__(grid)
        self.q = q
        self.a = potential.a(grid.centers)
        diag, off = self.implicit(dt)
        *ldl, info = dpttrf(diag, off)
        if info != 0:
            raise NumericsError(f"diffusion matrix not positive definite (dpttrf info = {info})")
        self._ldl = ldl  # dpttrf factor (d, e) of V + dt K
        self._dtc = -off  # dt * conduct, the face fluxes per unit jump
        self._p = 1.0 - q
        self._inv_p = 1.0 / self._p
        self._pdta = self._p * dt * self.a  # |u|^p spent over one step
        self._inert = self.a == 0  # cells that keep u bit for bit
        # scratch, never returned: face fluxes with the two end faces at 0,
        # the right-hand side that dpttrs overwrites with d, the diffused
        # state inside step, and |u|^p
        self._flux = np.zeros(grid.n + 1)
        self._rhs = np.empty(grid.n)
        self._mid = np.empty(grid.n)
        self._w = np.empty(grid.n)

    def diffuse(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """u + d with (V + dt K) d = -dt K u."""
        inner = self._flux[1:-1]
        np.subtract(u[1:], u[:-1], out=inner)
        np.multiply(self._dtc, inner, out=inner)
        # -dt K u: each face flux enters the cell left of it, leaves the right
        rhs = np.subtract(self._flux[1:], self._flux[:-1], out=self._rhs)
        d, info = dpttrs(*self._ldl, rhs, overwrite_b=1)
        if info != 0:
            raise NumericsError(f"diffusion solve failed (dpttrs info = {info})")
        return np.add(u, d, out=out)

    def absorb(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The exact flow ``copysign(max(|u|**p - p*dt*a, 0)**(1/p), u)``,
        p = 1 - q, and u itself where a = 0.

        The in-place ``**`` takes numpy's scalar fast paths, so q = 1/2
        costs a square root and a square.
        """
        w = np.abs(u, out=self._w)
        w **= self._p
        w -= self._pdta
        np.maximum(w, 0.0, out=w)
        w **= self._inv_p
        out = np.copysign(w, u, out=out)
        np.copyto(out, u, where=self._inert)
        return out

    def step(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One IMEX step from ``u``; ``out`` may be ``u`` itself."""
        return self.absorb(self.diffuse(u, self._mid), out)


@dataclass
class SolutionTrajectory:
    """Time-indexed record of one run: norms every step, states decimated.

    The per-step columns are float64 views of packed double buffers; the
    snapshots are one row array per recorded time, never stacked.
    """

    grid: RadialGrid
    spec: ProblemSpec
    times: np.ndarray
    l2sq: np.ndarray          # integral of u^2
    linf: np.ndarray
    umin: np.ndarray
    mass: np.ndarray          # integral of u
    snapshot_times: np.ndarray
    snapshots: list[np.ndarray]   # decimated states, one per snapshot time
    extinction_time: float | None
    threshold: float

    @property
    def y0(self) -> float:
        return float(self.l2sq[0])


def run(spec: ProblemSpec) -> SolutionTrajectory:
    """March the IMEX scheme to the horizon or to extinction.

    Extinction is recorded at the first time the sup norm drops below the
    relative threshold; the run stops there.  NaNs abort with a diagnostic
    snapshot attached to the exception.  Each step's t, l2sq, linf, min and
    mass go to ``array('d')`` buffers, 8 bytes a value; the snapshots are
    the initial state, every ``snapshot_every``-th step and the final or
    extinction step, each copied out of the block of states.
    """
    grid = spec.build_grid()
    u = spec.initial_state(grid)
    stepper = Stepper(grid, spec.potential, spec.q, spec.dt)

    n_steps = int(math.ceil(spec.horizon / spec.dt))
    every = spec.snapshot_every or max(1, n_steps // 400)
    threshold = spec.extinction_rtol * max(float(np.max(np.abs(u))), 1e-300)

    times = array("d", [0.0])
    l2sq = array("d", [grid.integrate(u**2)])
    linf = array("d", [np.max(np.abs(u))])
    umin = array("d", [np.min(u)])
    mass = array("d", [grid.integrate(u)])
    snap_t = [0.0]
    snaps = [u.copy()]  # u may be the caller's u0
    extinction_time = None

    vol = grid.volumes
    sq = np.empty(grid.n)  # scratch for u*u
    block = np.empty((max(1, BLOCK_BYTES // u.nbytes), grid.n))
    rows = list(block)
    row_l2sq = np.empty(len(rows))
    row_mass = np.empty(len(rows))
    done = 0
    while done < n_steps:
        m = min(len(rows), n_steps - done)
        for i in range(m):
            u = stepper.step(u, rows[i])
            row_l2sq[i] = np.dot(vol, np.multiply(u, u, out=sq))
            row_mass[i] = np.dot(vol, u)
        k = np.arange(done + 1, done + m + 1)
        t = k * spec.dt
        lo = block[:m].min(axis=1)
        # max |u| without an |u| pass; + 0.0 turns the -0.0 of an all-zero
        # state into +0.0, and a NaN anywhere makes both NaN
        sup = np.maximum(block[:m].max(axis=1), -lo) + 0.0
        # the first row that stops the run; the rows after it are dropped
        stops = np.flatnonzero(~np.isfinite(sup) | (sup < threshold))
        end = int(stops[0]) + 1 if stops.size else m
        last = end - 1
        if not math.isfinite(sup[last]):
            raise NumericsError(f"non-finite state at t = {t[last]:.6g}",
                                t=float(t[last]), state=rows[last].copy())
        times.frombytes(t[:end].tobytes())
        l2sq.frombytes(row_l2sq[:end].tobytes())
        linf.frombytes(sup[:end].tobytes())
        umin.frombytes(lo[:end].tobytes())
        mass.frombytes(row_mass[:end].tobytes())
        for i in np.flatnonzero((k[:end] % every == 0) | (k[:end] == n_steps)):
            snaps.append(rows[i].copy())
            snap_t.append(float(t[i]))
        if stops.size:
            extinction_time = float(t[last])
            if snap_t[-1] != extinction_time:
                snaps.append(rows[last].copy())
                snap_t.append(extinction_time)
            break
        done += m

    return SolutionTrajectory(
        grid=grid, spec=spec,
        times=np.frombuffer(times), l2sq=np.frombuffer(l2sq),
        linf=np.frombuffer(linf), umin=np.frombuffer(umin),
        mass=np.frombuffer(mass),
        snapshot_times=np.asarray(snap_t), snapshots=snaps,
        extinction_time=extinction_time, threshold=threshold)
