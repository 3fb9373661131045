"""Energy functionals over finished trajectories and inequality probes.

For a trajectory u and a cut radius tau, the ledger samples

    H(t, tau)   L2 mass of u over the outer region {|x| > tau}
    E(t, tau)   gradient plus weighted-absorption energy over the region
    I_s^T(tau)  time integral of E from s to T
    J_s^T(tau)  time integral of the squared flux through the sphere |x|=tau
    y(tau) = I_{s(tau)}^T(tau), the outer-region energy driven by the ramp

The ledger takes its potential, its ramp s(tau) = tau**4 / omega(tau) and
the inequalities' exponents from the run; the probes read them off it.

The structural constants of the differential inequalities are never pinned
down analytically, so the probes invert the problem: they fit the minimal
constant making an inequality hold across the tau grid and report it, and
refinement studies check the fit is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import PotentialField, as_potential
from .solver import FluxOperator, SolutionTrajectory, sample_potential


@dataclass(frozen=True)
class ExponentPack:
    """The interpolation exponents and inequality powers for (q, N)."""

    q: float
    dimension: int

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def theta1(self) -> float:
        q, n = self.q, self.dimension
        return ((q + 1) + n * (1 - q)) / (2 * (q + 1) + n * (1 - q))

    @property
    def theta2(self) -> float:
        q, n = self.q, self.dimension
        return n * (1 - q) / (2 * (q + 1) + n * (1 - q))

    @property
    def lambda0(self) -> float:
        return (1 - self.q) / (1 + self.q)

    @property
    def lambda1(self) -> float:
        b = (1 - self.theta1) * (1 - self.q)
        return b / (2 - b)

    @property
    def lambda2(self) -> float:
        b = (1 - self.theta2) * (1 - self.q)
        return b / (2 - b)


@dataclass
class EnergyLedger:
    """Sampled energy functionals of one trajectory on a tau grid."""

    tau_grid: np.ndarray
    t_snap: np.ndarray
    s_tau: np.ndarray            # ramp value s(tau) per tau (zeros if no ramp)
    sp_tau: np.ndarray | None    # ramp slope s'(tau) per tau; None if no ramp
    a_tau: np.ndarray            # absorption coefficient at each tau
    H: np.ndarray                # (K, M): L2 mass outside tau at snapshot k
    E: np.ndarray                # (K, M): gradient + weighted absorption
    flux2: np.ndarray            # (K, M): squared flux through |x| = tau
    I: np.ndarray                # (M,): integral of E over [s(tau), T]
    J: np.ndarray                # (M,): integral of flux2 over [s(tau), T]
    y0: float
    quad_error: np.ndarray       # (M,): trapezoid error proxy for I
    exponents: ExponentPack      # of the run's (q, N)

    @property
    def y(self) -> np.ndarray:
        """Outer-region energy y(tau) = I_{s(tau)}^T(tau)."""
        return self.I

    def E_at_s(self) -> np.ndarray:
        """E(s(tau), tau) interpolated along the snapshot times."""
        out = np.empty_like(self.tau_grid)
        for j in range(self.tau_grid.size):
            out[j] = np.interp(self.s_tau[j], self.t_snap, self.E[:, j])
        return out


def _suffix_interp(faces: np.ndarray, cell_values: np.ndarray,
                   taus: np.ndarray) -> np.ndarray:
    """Integral of a cell field over {r > tau}, linear inside the cut cell."""
    suffix = np.concatenate([np.cumsum(cell_values[::-1])[::-1], [0.0]])
    return np.interp(taus, faces, suffix)


def compute_ledger(traj: SolutionTrajectory, tau_grid) -> EnergyLedger:
    """Evaluate the energy functionals of a finished run on a tau grid.

    The run's potential, when it is a ``PotentialField``, supplies the ramp
    s(tau) that is the lower limit of the time integrals; for any other
    potential they start at zero.  Tau values outside [0, R] raise
    ``ValueError``.
    """
    grid = traj.grid
    tau_grid = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if not np.all((tau_grid >= 0) & (tau_grid <= grid.radius)):   # NaN fails too
        raise ValueError("tau grid must lie inside [0, R]")

    potential = as_potential(traj.spec.potential)
    a_cells = sample_potential(potential, grid)
    op = FluxOperator(grid)
    q = traj.spec.q
    faces = grid.faces
    inner_faces = faces[1:-1]
    N = grid.dimension

    K, M = traj.snapshots.shape[0], tau_grid.size
    H = np.empty((K, M))
    E = np.empty((K, M))
    flux2 = np.empty((K, M))
    for k, u in enumerate(traj.snapshots):
        H[k] = _suffix_interp(faces, grid.volumes * u**2, tau_grid)
        absorb = _suffix_interp(faces, grid.volumes * a_cells * np.abs(u) ** (q + 1), tau_grid)
        grad_at_faces = np.diff(u) / np.diff(grid.centers)
        grad_energy = op.face_energy(u)
        # gradient energy sits on interior faces; suffix-sum over them
        gsuffix = np.concatenate([np.cumsum(grad_energy[::-1])[::-1], [0.0]])
        E[k] = absorb + np.interp(tau_grid, np.concatenate([inner_faces, [faces[-1]]]), gsuffix)
        g_tau = np.interp(tau_grid, inner_faces, grad_at_faces,
                          left=0.0, right=0.0)
        flux2[k] = g_tau**2 * tau_grid ** (N - 1)

    s_tau = np.zeros(M)  # s(0) = s'(0) = 0, where omega may vanish
    sp_tau = None
    if isinstance(potential, PotentialField):
        sp_tau = np.zeros(M)
        pos = tau_grid > 0
        s_tau[pos], sp_tau[pos] = potential.omega.ramp(tau_grid[pos])
    s_tau = np.minimum(s_tau, traj.snapshot_times[-1])

    I = np.empty(M)
    J = np.empty(M)
    qerr = np.empty(M)
    t = traj.snapshot_times
    for j in range(M):
        s = s_tau[j]
        I[j] = _trapz_from(t, E[:, j], s)
        J[j] = _trapz_from(t, flux2[:, j], s)
        dE = np.abs(np.diff(E[:, j]))
        qerr[j] = 0.5 * float(np.dot(dE, np.diff(t))) + 1e-15 * abs(I[j])

    a_tau = np.asarray(potential.a(tau_grid), dtype=float)
    return EnergyLedger(tau_grid=tau_grid, t_snap=t.copy(), s_tau=s_tau,
                        sp_tau=sp_tau, a_tau=a_tau, H=H, E=E, flux2=flux2,
                        I=I, J=J, y0=traj.y0, quad_error=qerr,
                        exponents=ExponentPack(q, N))


def _trapz_from(t: np.ndarray, f: np.ndarray, s: float) -> float:
    """Trapezoid integral of samples (t, f) over [s, t[-1]]."""
    if s <= t[0]:
        return float(np.trapezoid(f, t))
    if s >= t[-1]:
        return 0.0
    i = int(np.searchsorted(t, s))
    fs = np.interp(s, t, f)
    tt = np.concatenate([[s], t[i:]])
    ff = np.concatenate([[fs], f[i:]])
    return float(np.trapezoid(ff, tt))


@dataclass(frozen=True)
class GlobalEstimateReport:
    slack: np.ndarray            # y0 - H(t,0) - I_0^t(0) at each checkpoint
    quad_error: float
    min_slack: float

    @property
    def holds(self) -> bool:
        return bool(self.min_slack >= -self.quad_error)


def verify_global_estimate(ledger: EnergyLedger) -> GlobalEstimateReport:
    """Margin of the a priori bound H(t, 0) + I_0^t(0) <= y0 at each snapshot.

    Small negative slack can only come from time discretization of I and is
    bounded by the reported trapezoid error.  A ledger without a tau = 0
    row raises ``ValueError``.
    """
    j = int(np.argmin(ledger.tau_grid))
    if ledger.tau_grid[j] > 0:
        raise ValueError("global estimate needs a tau = 0 row in the ledger")
    t = ledger.t_snap
    E0 = ledger.E[:, j]
    H0 = ledger.H[:, j]
    I_cum = np.concatenate([[0.0], np.cumsum(0.5 * (E0[1:] + E0[:-1]) * np.diff(t))])
    slack = ledger.y0 - H0 - I_cum
    qerr = 0.5 * float(np.dot(np.abs(np.diff(E0)), np.diff(t)))
    return GlobalEstimateReport(slack, qerr + 1e-12 * abs(ledger.y0),
                                float(np.min(slack)))


@dataclass(frozen=True)
class RelationProbe:
    tau: np.ndarray
    c_hat: float                 # minimal uniform constant covering all rows
    skipped: int                 # rows with a(tau) = 0, left out of the fit


def probe_outer_energy_relation(ledger: EnergyLedger) -> RelationProbe:
    """Fit the minimal constant in the outer-region energy relationship.

    The left side is H(T, tau) + I_{s(tau)}^T(tau); the right side combines
    powers of E(s(tau), tau) and J with the two interpolation exponents.
    Rows where the absorption coefficient vanishes are skipped and counted
    in ``skipped``.
    """
    ep = ledger.exponents
    q = ep.q
    t1, t2 = ep.theta1, ep.theta2
    D1 = 2 - (1 - t1) * (1 - q)
    D2 = 2 - (1 - t2) * (1 - q)
    a = ledger.a_tau
    E_s = ledger.E_at_s()
    lhs = ledger.H[-1, :] + ledger.I
    alive = a > 0
    skipped = int(np.count_nonzero(~alive))
    # a(tau) is tiny near tau = 0, so a^(-k) may overflow to inf: a row whose
    # right side overflows has ratio lhs/rhs = 0 and cannot set c_hat
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.stack([
            a ** (-2 * (1 - t2) / D2) * E_s ** (2 / D2),
            a ** (-2 / (q + 1)) * E_s ** (2 / (q + 1)),
            a ** (-2 / (q + 1)) * ledger.J ** (2 / (q + 1)),
            a ** (-2 * (1 - t1) / D1) * ledger.J ** (2 / D1),
        ], axis=1)
    rhs = np.where(alive, np.nansum(terms, axis=1), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(alive & (rhs > 0), lhs / rhs, 0.0)
    c_hat = float(np.max(ratios)) if ratios.size else 0.0
    return RelationProbe(ledger.tau_grid, c_hat, skipped)


@dataclass(frozen=True)
class OdiResidual:
    tau: np.ndarray
    y: np.ndarray
    c0: float
    residual: np.ndarray         # c0 sum_i (-y'/psi_i)^(1+lambda_i) - y (>= 0)
    clipped: int                 # positive slopes of y set to zero


def ode_inequality_residual(ledger: EnergyLedger) -> OdiResidual:
    """Residual of the ordinary differential inequality satisfied by y(tau),
    at the minimal constant c0 making it hold on the grid, fitted and reported.

    y' is taken by second-order finite differences on the ledger tau grid;
    positive slopes (non-monotone numerical artifacts) are clipped to zero
    and counted in ``clipped``.  A ledger without a ramp raises ValueError.
    """
    tau = ledger.tau_grid
    if tau.size < 3:
        raise ValueError("need at least 3 tau points to differentiate y")
    if ledger.sp_tau is None:
        raise ValueError("the run's potential has no ramp s(tau)")
    y = ledger.y
    yp = np.gradient(y, tau)
    clipped = int(np.count_nonzero(yp > 0))
    yp = np.minimum(yp, 0.0)
    ep = ledger.exponents
    a, sp = ledger.a_tau, ledger.sp_tau
    psis = (a * sp, a ** (1 - ep.theta1), a ** (1 - ep.theta2) * sp)
    lams = (ep.lambda0, ep.lambda1, ep.lambda2)
    S = np.zeros_like(tau)
    alive = ledger.a_tau > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for psi, lam in zip(psis, lams):
            contrib = np.where(alive & (psi > 0), (-yp / psi) ** (1 + lam), np.inf)
            S += np.where(np.isfinite(contrib), contrib, np.inf)
    usable = alive & np.isfinite(S) & (S > 0)
    c0 = float(np.max(y[usable] / S[usable])) if np.any(usable) else 0.0
    residual = np.where(usable, c0 * S - y, np.nan)
    return OdiResidual(tau, y, c0, residual, clipped)
