import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded

import extinctlab.solver as solver
from extinctlab.profiles import ConstantPotential, OmegaProfile, PotentialField
from extinctlab.solver import (
    FluxOperator,
    NumericsError,
    ProblemSpec,
    RadialGrid,
    Stepper,
    run,
)
from extinctlab.spectral import _graded_faces
from oracles import (absorption_energy, gradient_energy, ode_extinction_time,
                     positivity_probe, total_volume)


def exact_ode(t, q=0.5, eps=1.0, u0=1.0):
    base = u0 ** (1 - q) - eps * (1 - q) * t
    return max(base, 0.0) ** (1.0 / (1.0 - q))


class TestGrid:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_total_volume(self, N):
        g = RadialGrid.uniform(257, radius=1.0, dimension=N)
        assert g.volumes.sum() == pytest.approx(total_volume(g), rel=1e-12)
        assert np.all(g.volumes > 0)
        assert np.all(np.diff(g.centers) > 0)

    def test_bad_faces_rejected(self):
        with pytest.raises(ValueError):
            RadialGrid.from_faces([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            RadialGrid.from_faces([0.0, 0.2, 0.2])


class TestStep:
    def test_constant_is_heat_steady_state(self):
        g = RadialGrid.uniform(100)
        u = np.ones(100)
        for dt in (1e-4, 1e-2, 1.0):
            out = Stepper(g, ConstantPotential(0.0), 0.5, dt).step(u)
            assert np.allclose(out, 1.0, atol=1e-13)

    @pytest.mark.parametrize("N", [1, 3])
    def test_mass_conserved_per_step(self, N):
        g = RadialGrid.uniform(300, dimension=N)
        rng = np.random.RandomState(0)
        u = rng.uniform(0.0, 2.0, 300)
        m0 = g.integrate(u)
        out = Stepper(g, ConstantPotential(0.0), 0.5, 1e-3).step(u)
        assert g.integrate(out) == pytest.approx(m0, rel=1e-12)

    def test_spatially_constant_absorption_tracks_ode(self):
        # diffusion leaves a constant state alone, and the absorption step is
        # the exact ODE flow, so one step lands on the ODE to rounding
        g = RadialGrid.uniform(50)
        for dt in (2e-3, 1e-3, 5e-4, 0.5):
            out = Stepper(g, ConstantPotential(1.0), 0.5, dt).step(np.ones(50))
            assert np.allclose(out, exact_ode(dt), rtol=4 * np.finfo(float).eps, atol=0)

    def test_nonnegativity_under_huge_dt(self):
        g = RadialGrid.uniform(64)
        rng = np.random.RandomState(1)
        u = rng.uniform(0.0, 1.0, 64)
        out = Stepper(g, ConstantPotential(5.0), 0.3, 10.0).step(u)
        assert np.all(out >= 0.0)

    def test_maximum_principle_heat(self):
        g = RadialGrid.uniform(128, dimension=2)
        rng = np.random.RandomState(2)
        u = rng.uniform(0.5, 1.5, 128)
        out = Stepper(g, ConstantPotential(0.0), 0.5, 5e-3).step(u)
        assert out.max() <= u.max() + 1e-12
        assert out.min() >= u.min() - 1e-12

    def test_energy_identity_per_step(self):
        # drop of the L2 energy matches dt * (gradient + absorption) to O(dt^2)
        prof = PotentialField(1.0, OmegaProfile.power(1.0))
        g = RadialGrid.uniform(400)
        u = 1.0 + np.cos(math.pi * g.centers)
        residuals = []
        for dt in (4e-3, 2e-3, 1e-3):
            st = Stepper(g, prof, 0.5, dt)
            u_star = st.diffuse(u)
            u_new = st.absorb(u_star)
            drop = 0.5 * (g.integrate(u**2) - g.integrate(u_new**2))
            dissip = dt * (gradient_energy(st, u_star) + absorption_energy(st, u_new))
            residuals.append(abs(drop - dissip))
        residuals = np.array(residuals)
        rates = np.log2(residuals[:-1] / residuals[1:])
        assert np.all(rates > 1.6)


class TestFluxOperator:
    """The solver's implicit matrix and the spectral symmetric form are one
    operator: K = (implicit(dt) - V)/dt and V^-1/2 K V^-1/2, with V the cell
    volumes."""

    @staticmethod
    def dense_forms(N, dt=1e-2):
        g = RadialGrid.from_faces(_graded_faces(60, 0.3), N)
        op = FluxOperator(g)
        diag, off = op.implicit(dt)
        implicit = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        d, e = op.symmetric(0)
        symmetric = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        return g, op, (implicit - np.diag(g.volumes)) / dt, symmetric

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_symmetric_is_volume_scaled_implicit(self, N):
        g, _, stiffness, symmetric = self.dense_forms(N)
        root = np.sqrt(g.volumes)
        scaled = stiffness / root[:, None] / root[None, :]
        assert np.max(np.abs(symmetric - scaled)) <= 1e-12 * np.max(np.abs(symmetric))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_gradient_energy_is_stiffness_form(self, N):
        g, op, K, _ = self.dense_forms(N)
        for seed in range(3):
            u = np.random.RandomState(seed).uniform(-1.0, 1.0, g.n)
            assert gradient_energy(op, u) == pytest.approx(u @ K @ u, rel=1e-12)


def banded_reference(st, u, dt):
    """The non-symmetric step (I + dt V^-1 K) x = u through solve_banded on
    the column-shifted band form."""
    v, c = st.grid.volumes, st.conduct
    ab = np.zeros((3, st.grid.n))
    ab[1] = 1.0
    ab[1, :-1] += dt * c / v[:-1]
    ab[1, 1:] += dt * c / v[1:]
    ab[0, 1:] = -dt * c / v[:-1]
    ab[2, :-1] = -dt * c / v[1:]
    return solve_banded((1, 1), ab, u)


def spd_reference(st, u, dt):
    """The increment step u + d, (V + dt K) d = -dt K u, through
    solveh_banded on the 2-row upper band form of V + dt K."""
    v, c = st.grid.volumes, st.conduct
    dtc = dt * c
    ab = np.zeros((2, st.grid.n))
    ab[1] = v
    ab[1, :-1] += dtc
    ab[1, 1:] += dtc
    ab[0, 1:] = -dtc
    flux = dtc * np.diff(u)
    rhs = np.zeros(st.grid.n)
    rhs[:-1] += flux
    rhs[1:] -= flux
    return u + solveh_banded(ab, rhs)


class TestFactoredSolve:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_bitwise_equal_to_solve_banded(self, N):
        g = RadialGrid.uniform(500, dimension=N)
        steppers = {dt: Stepper(g, ConstantPotential(0.0), 0.5, dt) for dt in (1e-3, 0.5)}
        rng = np.random.RandomState(N)
        for dt in (1e-3, 1e-3, 0.5):
            u = rng.uniform(0.0, 2.0, g.n)
            st = steppers[dt]
            assert np.array_equal(st.diffuse(u), spd_reference(st, u, dt))

    def test_bitwise_equal_along_a_run(self):
        g = RadialGrid.uniform(200, dimension=3)
        pot = PotentialField(1.0, OmegaProfile.log_power(2.0))
        st = Stepper(g, pot, 0.5, 2e-3)
        u = np.random.RandomState(4).uniform(0.0, 1.0, g.n)
        for _ in range(300):
            u_star = st.diffuse(u)
            assert np.array_equal(u_star, spd_reference(st, u, 2e-3))
            u = st.absorb(u_star)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("cells", [50, 2000])
    def test_close_to_nonsymmetric_step(self, N, cells):
        # same linear system as (I + dt V^-1 K) x = u, rounded differently
        g = RadialGrid.uniform(cells, dimension=N)
        c, v = FluxOperator(g).conduct, g.volumes
        stiff = max(np.max(c / v[:-1]), np.max(c / v[1:]))
        rng = np.random.RandomState(20 + N)
        for dt in (1e-6, 1e-3, 0.5):
            st = Stepper(g, ConstantPotential(0.0), 0.5, dt)
            u = rng.uniform(0.0, 2.0, g.n)
            u[rng.randint(0, g.n)] = 5.0
            tol = 8 * np.finfo(float).eps * (1 + 4 * dt * stiff) * np.max(np.abs(u))
            err = np.max(np.abs(st.diffuse(u) - banded_reference(st, u, dt)))
            assert err <= tol

    def test_factored_once_per_dt(self, monkeypatch):
        calls = []
        factor = solver.dpttrf

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(solver, "dpttrf", counting)
        traj = run(ProblemSpec(q=0.5, potential=ConstantPotential(1.0), cells=64,
                               horizon=0.02))
        assert len(traj.times) > 10 and len(calls) == 1
        g = RadialGrid.uniform(300, dimension=3)
        rng = np.random.RandomState(13)
        for dt in (1e-3, 4e-3):
            st = Stepper(g, ConstantPotential(1.0), 0.5, dt)
            u = rng.uniform(0.0, 2.0, g.n)
            assert np.array_equal(st.diffuse(u), spd_reference(st, u, dt))

    @pytest.mark.parametrize("field", ["dt", "horizon"])
    def test_nan_step_or_horizon_rejected(self, field):
        with pytest.raises(ValueError):
            ProblemSpec(q=0.5, **{field: math.nan})

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(q=0.5, cells=2)
        traj = run(ProblemSpec(q=0.5, potential=ConstantPotential(0.0), cells=3, horizon=0.01))
        assert np.allclose(traj.linf, 1.0, atol=1e-14)


def reference_absorb(st, u, dt):
    """The exact absorption flow written plainly, with its temporaries."""
    p = 1.0 - st.q
    flow = np.copysign(np.maximum(np.abs(u) ** p - p * dt * st.a, 0.0) ** (1.0 / p), u)
    return np.where(st.a == 0, u, flow)


def same_bits(x, y):
    """Equal as arrays (NaN equal to NaN) and in the sign of every zero."""
    return (np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x) & ~np.isnan(x),
                               np.signbit(y) & ~np.isnan(y)))


class PatchyPotential:
    """Absorption that vanishes on every third cell, is infinite on a few
    others (0 * inf makes the reference NaN where u = 0) and finite elsewhere."""

    def a(self, r):
        out = 1.0 + 5.0 * r
        out[::3] = 0.0
        out[1::10] = np.inf
        return out


def mixed_states(n, seed):
    """Random mixed-sign states, then the same with zeros, -0.0 and NaN."""
    rng = np.random.RandomState(seed)
    u = rng.uniform(-2.0, 2.0, n) * 10.0 ** rng.uniform(-300, 2, n)
    holes = u.copy()
    holes[rng.rand(n) < 0.2] = 0.0
    holes[rng.rand(n) < 0.1] = -0.0
    holes[:5] = 0.0  # runs of zeros, long and short, at both ends
    holes[-3:] = -0.0
    poisoned = holes.copy()
    poisoned[rng.randint(0, n, 4)] = np.nan
    return [u, holes, poisoned, np.zeros(n), np.full(n, -0.0)]


class TestAbsorbBitwise:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("potential", [
        PotentialField(1.0, OmegaProfile.log_power(2.0)),
        PatchyPotential(),
        pytest.param(ConstantPotential(0.0), id="None"),  # no absorption
    ])
    def test_equal_to_reference_formula(self, q, potential):
        g = RadialGrid.uniform(997, dimension=2)
        for seed, dt in enumerate((1e-3, 0.25, 1e-3, 1e-3, 7.5)):
            st = Stepper(g, potential, q, dt)
            for u in mixed_states(g.n, seed):
                assert same_bits(st.absorb(u), reference_absorb(st, u, dt))

    def test_equal_along_a_run(self):
        g = RadialGrid.uniform(400)
        st = Stepper(g, PotentialField(1.0, OmegaProfile.power(1.0)), 0.5, 2e-3)
        u = np.cos(3.0 * math.pi * g.centers)
        for _ in range(200):
            u_star = st.diffuse(u)
            u = st.absorb(u_star)
            assert same_bits(u, reference_absorb(st, u_star, 2e-3))

    def test_input_kept_and_results_not_shared(self):
        g = RadialGrid.uniform(300)
        st = Stepper(g, ConstantPotential(1.0), 0.5, 1e-3)
        u = mixed_states(g.n, 3)[1]
        before = u.copy()
        first = st.absorb(u)
        second = st.absorb(u)
        assert same_bits(u, before)
        assert same_bits(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, u)


class TestExactFlow:
    @pytest.mark.parametrize("q", [0.3, 0.5])
    def test_spent_cells_are_exactly_zero(self, q):
        # |u|^p <= p dt a: the ODE reaches 0 within the step and stays there
        g = RadialGrid.uniform(500)
        dt, p = 1.0, 1.0 - q
        st = Stepper(g, ConstantPotential(1.0), q, dt)
        u = np.random.RandomState(8).uniform(-1.0, 1.0, g.n)
        u[:3] = [(p * dt) ** (1 / p), -(p * dt) ** (1 / p), 1e-300]
        out = st.absorb(u)
        spent = np.abs(u) ** p <= p * dt * st.a
        assert spent.sum() > 10 and (~spent).sum() > 10
        assert np.all(out[spent] == 0.0)
        assert np.all(out[~spent] != 0.0)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_cells_without_absorption_keep_u(self, q):
        g = RadialGrid.uniform(997, dimension=2)
        st = Stepper(g, PatchyPotential(), q, 0.25)
        inert = st.a == 0
        assert 100 < inert.sum() < g.n - 100
        for u in mixed_states(g.n, 5):
            out = st.absorb(u)
            assert same_bits(out[inert], u[inert])
            moved = ~inert & (u != 0)   # every nonzero absorbing cell moves
            assert not np.any(out[moved] == u[moved])

    def test_sign_kept(self):
        g = RadialGrid.uniform(997, dimension=2)
        st = Stepper(g, PotentialField(1.0, OmegaProfile.log_power(2.0)), 0.3, 1e-3)
        for u in mixed_states(g.n, 6):
            out = st.absorb(u)
            num = ~np.isnan(u)
            assert np.array_equal(np.signbit(out[num]), np.signbit(u[num]))
            assert np.array_equal(np.isnan(out), np.isnan(u))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_mixed_states_raise_no_warning(self, q):
        g = RadialGrid.uniform(997, dimension=2)
        for potential in (PotentialField(1.0, OmegaProfile.log_power(2.0)),
                          PatchyPotential(), ConstantPotential(0.0)):
            st = Stepper(g, potential, q, 7.5)
            for u in mixed_states(g.n, 7):
                st.step(u)
                st.absorb(u)

    def test_step_allocates_less_than_a_state(self):
        g = RadialGrid.uniform(2000)
        st = Stepper(g, PotentialField(1.0, OmegaProfile.log_power(2.0)), 0.5, 1e-3)
        u = np.ones(g.n)
        row = np.empty(g.n)
        st.step(u, out=row)  # first call outside the trace
        tracemalloc.start()
        try:
            for _ in range(100):
                st.step(row, out=row)
            total = tracemalloc.get_traced_memory()[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes and total < u.nbytes


def reference_run(spec, keep=()):
    """run() as first written: temporaries for every norm of every step.

    Returns the five per-step columns and the states of the steps in
    ``keep``, by step number."""
    grid = spec.build_grid()
    st = Stepper(grid, spec.potential, spec.q, spec.dt)
    u = spec.initial_state(grid)
    threshold = spec.extinction_rtol * max(float(np.max(np.abs(u))), 1e-300)
    rows = [(0.0, grid.integrate(u**2), float(np.max(np.abs(u))),
             float(np.min(u)), grid.integrate(u))]
    states = {0: u.copy()} if 0 in keep else {}
    for k in range(1, int(math.ceil(spec.horizon / spec.dt)) + 1):
        u = reference_absorb(st, st.diffuse(u), spec.dt)
        sup = float(np.max(np.abs(u)))
        rows.append((k * spec.dt, grid.integrate(u**2), sup,
                     float(np.min(u)), grid.integrate(u)))
        if k in keep:
            states[k] = u
        if sup < threshold:
            break
    return [np.array(col) for col in zip(*rows)], states


def assert_run_matches_reference(traj, spec):
    steps = [round(t / spec.dt) for t in traj.snapshot_times]
    ref, states = reference_run(spec, keep=set(steps))
    got = [traj.times, traj.l2sq, traj.linf, traj.umin, traj.mass]
    for name, x, y in zip(["times", "l2sq", "linf", "umin", "mass"], got, ref):
        assert same_bits(x, y), name
    assert sorted(states) == sorted(set(steps))
    for k, row in zip(steps, traj.snapshots):
        assert same_bits(row, states[k]), k


def block_of(monkeypatch, rows, cells):
    """Make run() keep its books on blocks of ``rows`` states."""
    monkeypatch.setattr(solver, "BLOCK_BYTES", rows * 8 * cells)


class TestRunBitwise:
    def test_mixed_sign_data(self):
        g = RadialGrid.uniform(200, dimension=3)
        u0 = np.cos(4.0 * math.pi * g.centers) * np.exp(-g.centers)
        u0[::7] = 0.0
        u0[3::11] = -0.0
        spec = ProblemSpec(q=0.3, potential=PotentialField(1.0, OmegaProfile.power(1.0)),
                           dimension=3, u0=u0, cells=200, dt=1e-3, horizon=0.6)
        assert_run_matches_reference(run(spec), spec)

    def test_extinct_run(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=-1.0,
                           cells=100, dt=1e-3, horizon=2.5)
        traj = run(spec)
        assert traj.extinction_time is not None
        assert_run_matches_reference(traj, spec)

    def test_omega_r_run(self, omega_r_run):
        traj, _ = omega_r_run
        assert_run_matches_reference(traj, traj.spec)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_state_has_positive_zero_sup(self, zero):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0),
                           u0=np.full(50, zero), cells=50, dt=1e-3, horizon=0.01)
        traj = run(spec)
        assert traj.extinction_time == spec.dt
        assert not np.any(np.signbit(traj.linf))
        assert_run_matches_reference(traj, spec)

    # a cosine bump under a potential that vanishes near the origin: the run
    # goes extinct at a step K that the reference run finds
    EXTINCT = ProblemSpec(q=0.5, potential=PotentialField(1.0, OmegaProfile.power(1.0)),
                          u0=0.2, cells=30, dt=1e-2, horizon=20.0, snapshot_every=7)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_extinction_on_a_block_row(self, monkeypatch, where):
        spec = self.EXTINCT
        steps = len(reference_run(spec)[0][0]) - 1
        assert steps < spec.horizon / spec.dt   # extinct before the horizon
        rows = {"first": steps - 1, "middle": steps + 1, "last": steps}[where]
        row = (steps - 1) % rows   # the extinction step's row in its block
        assert row == {"first": 0, "middle": rows - 2, "last": rows - 1}[where]
        block_of(monkeypatch, rows, spec.cells)
        traj = run(spec)
        assert traj.extinction_time == steps * spec.dt
        assert traj.snapshot_times[-1] == traj.extinction_time
        assert_run_matches_reference(traj, spec)

    @pytest.mark.parametrize("rows,every", [(6, 5), (4, 7), (1, 3)])
    def test_steps_not_a_multiple_of_the_block(self, monkeypatch, rows, every):
        # 61 steps: 10 blocks of 6 and one row, 15 of 4 and one row
        spec = ProblemSpec(q=0.3, potential=PotentialField(1.0, OmegaProfile.power(1.0)),
                           u0="random", cells=40, dt=1e-3, horizon=0.061,
                           snapshot_every=every, seed=11)
        block_of(monkeypatch, rows, spec.cells)
        traj = run(spec)
        assert traj.times.size == 62 and traj.extinction_time is None
        assert list(np.rint(traj.snapshot_times / spec.dt)) == \
            [0] + list(range(every, 61, every)) + [61]
        assert_run_matches_reference(traj, spec)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows", [1, 4, 64])
    def test_nan_mid_block_raises_at_first_bad_step(self, monkeypatch, rows):
        # the poisoned cell is NaN from the first step on; the steps after it
        # in the block are computed on NaN and discarded without a warning
        spec = ProblemSpec(q=0.5, potential=NanPotential(), cells=50,
                           dt=1e-3, horizon=1.0)
        block_of(monkeypatch, rows, spec.cells)
        with pytest.raises(NumericsError) as err:
            run(spec)
        assert err.value.t == spec.dt
        assert np.count_nonzero(np.isnan(err.value.state)) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_in_a_later_block_row(self, monkeypatch):
        # a state that turns NaN at step 11, on row 3 of the third block of 4
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=20, dt=1e-3, horizon=1.0)
        block_of(monkeypatch, 4, spec.cells)
        step = Stepper.step
        calls = []

        def poisoned(self, u, out=None):
            calls.append(None)
            out = step(self, u, out)
            if len(calls) == 11:
                out[5] = np.nan
            return out

        monkeypatch.setattr(Stepper, "step", poisoned)
        with pytest.raises(NumericsError) as err:
            run(spec)
        assert err.value.t == 11 * spec.dt
        assert np.isnan(err.value.state[5])
        assert len(calls) == 12   # the block's last row was computed, then dropped


class NanPotential:
    """Absorption with one poisoned cell, standing in for a bad table."""

    def a(self, r):
        out = np.ones_like(r)
        out[r.size // 2] = np.nan
        return out


class TestRun:
    def test_ode_regime_extinction_time(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=200, dt=1e-3, horizon=2.5)
        traj = run(spec)
        assert traj.extinction_time is not None
        assert traj.extinction_time == pytest.approx(2.0, rel=1e-2)

    def test_heat_run_no_extinction(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=1.0, cells=100,
                           dt=1e-2, horizon=1.0)
        traj = run(spec)
        assert traj.extinction_time is None
        assert np.allclose(traj.linf, 1.0, atol=1e-12)

    def test_l2_monotone_decay(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.5),
                           u0="random", cells=200, dt=1e-3, horizon=0.5, seed=7)
        traj = run(spec)
        assert np.all(np.diff(traj.l2sq) <= 1e-14)

    def test_mass_conserved_over_many_steps(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0="random", cells=300,
                           dt=1e-3, horizon=1.0, seed=3)
        traj = run(spec)
        drift = np.abs(traj.mass - traj.mass[0]) / traj.mass[0]
        assert drift.max() < 1e-11

    def test_nonnegative_states(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(2.0),
                           u0="random", cells=150, dt=2e-3, horizon=1.0, seed=5)
        traj = run(spec)
        assert traj.umin.min() >= 0.0

    def test_decay_with_interior_absorption_patch(self):
        # absorption supported on an annulus still sends the L2 norm to zero
        patch = PotentialField(1.0, OmegaProfile.log_power(2.0))
        spec = ProblemSpec(q=0.5, potential=patch, u0=1.0, cells=400,
                           dt=2e-3, horizon=8.0)
        traj = run(spec)
        assert traj.l2sq[-1] < traj.l2sq[0]
        keep = traj.times > 1.0
        rate = -np.polyfit(traj.times[keep], np.log(traj.l2sq[keep]), 1)[0]
        assert rate > 0.0

    def test_temporal_convergence_order(self):
        # the absorption step is exact, so the error is the implicit Euler
        # diffusion's: data that diffuses, against a run at dt = 1.25e-4
        g = RadialGrid.uniform(50)
        u0 = 1.0 + 0.5 * np.cos(math.pi * g.centers)

        def final(dt):
            spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0),
                               u0=u0, cells=50, dt=dt, horizon=1.0)
            traj = run(spec)
            assert traj.extinction_time is None and traj.snapshot_times[-1] == 1.0
            return traj.snapshots[-1]

        ref = final(1.25e-4)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 0.8)  # first order in dt

    def test_non_finite_state_raises_at_first_bad_step(self):
        spec = ProblemSpec(q=0.5, potential=NanPotential(), cells=50,
                           dt=1e-3, horizon=1.0)
        with pytest.raises(NumericsError) as err:
            run(spec)
        assert err.value.t == spec.dt
        assert np.count_nonzero(np.isnan(err.value.state)) == 1

    def test_spatial_convergence_order(self):
        # Neumann eigenmode cos(pi r) decays like exp(-pi^2 t) in 1-d
        errs = []
        t_end = 0.02
        for cells in (50, 100, 200):
            g = RadialGrid.uniform(cells)
            dt = t_end / math.ceil(t_end / (0.2 / cells**2))
            spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0),
                               u0=1.0 + np.cos(math.pi * g.centers),
                               cells=cells, dt=dt, horizon=t_end)
            traj = run(spec)
            exact = 1.0 + math.exp(-math.pi**2 * t_end) * np.cos(math.pi * g.centers)
            errs.append(np.max(np.abs(traj.snapshots[-1] - exact)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.6)


def traced_run(spec):
    """(trajectory, tracemalloc peak) of one run."""
    tracemalloc.start()
    try:
        traj = run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return traj, peak


def row_bytes(traj) -> int:
    return sum(row.nbytes for row in traj.snapshots)


class TestSnapshotMemory:
    def test_snapshots_held_once(self):
        # 401 snapshots of 2000 cells: the rows are kept as they come, never
        # stacked into a second array at the end
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=2000, dt=1e-3, horizon=0.4, snapshot_every=1)
        traj, peak = traced_run(spec)
        assert len(traj.snapshots) == 401
        assert all(row.shape == (2000,) for row in traj.snapshots)
        assert peak < 1.25 * row_bytes(traj)

    def test_buffer_grows_to_an_early_extinction(self):
        # snapshot_every = 1 on a horizon 500x the extinction time: one row
        # per step taken, nothing reserved for the million steps not taken,
        # and each row is the state its step's sup norm was read from
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=50, dt=1e-3, horizon=1000.0, snapshot_every=1)
        traj, peak = traced_run(spec)
        assert traj.extinction_time is not None
        assert len(traj.snapshots) == traj.times.size
        assert np.array_equal([row.max() for row in traj.snapshots], traj.linf)
        assert peak < 4 * row_bytes(traj)

    def test_per_step_records_are_packed(self):
        # 20 000 steps of pure diffusion: t, l2sq, linf, min and mass take
        # 40 bytes a step as doubles; boxed floats in lists took about 200
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=1.0,
                           cells=50, dt=1e-3, horizon=20.0)
        traj, peak = traced_run(spec)
        steps = traj.times.size - 1
        assert steps == 20_000 and traj.extinction_time is None
        assert (peak - row_bytes(traj)) / steps < 64


class TestOdeExtinctionTime:
    def test_unit_case(self):
        assert ode_extinction_time(1.0, 0.5, 1.0) == pytest.approx(2.0)

    def test_zero_data(self):
        assert ode_extinction_time(1.0, 0.5, 0.0) == 0.0

    def test_scaling(self):
        assert ode_extinction_time(2.0, 0.5, 4.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ode_extinction_time(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            ode_extinction_time(1.0, 1.5, 1.0)


class TestPositivityProbe:
    def test_no_absorption_keeps_floor(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(0.0), u0=0.3,
                           cells=100, dt=1e-2, horizon=2.0)
        rep = positivity_probe(spec)
        assert not rep.collapsed
        assert rep.final_min == pytest.approx(0.3, rel=1e-12)
        assert abs(rep.decay_rate) < 1e-10

    def test_uniform_absorption_collapses_before_ode_time(self):
        spec = ProblemSpec(q=0.5, potential=ConstantPotential(1.0), u0=1.0,
                           cells=100, dt=1e-3, horizon=3.0)
        rep = positivity_probe(spec)
        assert rep.collapsed
        assert rep.times[-1] <= ode_extinction_time(1.0, 0.5, 1.0) * 1.01

    def test_superflat_potential_keeps_positive(self):
        # omega unbounded at 0 confines the absorption to a boundary shell;
        # the minimum survives a desk-scale horizon
        pot = PotentialField(1.0, OmegaProfile.log_singular(kappa=25.0))
        spec = ProblemSpec(q=0.5, potential=pot, u0=1.0,
                           cells=400, dt=5e-3, horizon=10.0)
        rep = positivity_probe(spec)
        assert not rep.collapsed
        assert rep.final_min > 1e-2
        assert rep.decay_rate < 0.2
