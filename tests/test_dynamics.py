from dataclasses import fields
from math import sqrt
from types import SimpleNamespace

import numpy as np
import pytest

import trireduce.dynamics
from trireduce.dynamics import (
    IntegratorConfig,
    conservation_report,
    detect_collinear_passages,
    integrate,
    total_energy,
)
from trireduce.errors import NumericalBlowup
from trireduce.geometry import CartesianState, MassTriple
from trireduce.potential import builtin_potential, force_field, forces_cartesian, parse_potential

MASSES = MassTriple(1.0, 1.0, 1.0)
FREE = builtin_potential("free")
HARMONIC = builtin_potential("harmonic", k=1.0, rest_length=1.0)


def harmonic_setup():
    """Bound, zero-total-momentum, nonplanar initial data for the harmonic
    potential."""
    rng = np.random.default_rng(7)
    pos = rng.uniform(-1.0, 1.0, size=(3, 3))
    vel = rng.uniform(-0.5, 0.5, size=(3, 3))
    pos -= MASSES.as_array() @ pos / MASSES.total
    vel -= MASSES.as_array() @ vel / MASSES.total
    return CartesianState(pos[0], pos[1], pos[2], vel[0], vel[1], vel[2])


def crossing_setup():
    """Free motion in which the third particle crosses the line of the
    other two once, near t = 0.5."""
    x1 = np.array([0.0, 0.0, 1.0])
    x3 = np.array([0.0, 0.0, -1.0])
    x2 = np.array([-0.5, 0.0, 0.3])
    v2 = np.array([1.0, 0.0, 0.0])
    z = np.zeros(3)
    return CartesianState(x1, x2, x3, z, v2, z)


def figure_eight_setup():
    """The L = 0 figure-eight of Chenciner and Montgomery, which starts
    collinear."""
    x = [[0.97000436, -0.24308753, 0.0], [-0.97000436, 0.24308753, 0.0], [0.0, 0.0, 0.0]]
    v = [[0.466203685, 0.43236573, 0.0], [0.466203685, 0.43236573, 0.0],
         [-0.93240737, -0.86473146, 0.0]]
    return CartesianState(*np.array(x), *np.array(v))


def planar_setup():
    """Three bodies near the Lennard-Jones minimum, moving in the plane
    z = -0.0: every z component of the start is -0.0."""
    x = [[1.12, 0.0, -0.0], [0.0, 0.0, -0.0], [0.5, 1.0, -0.0]]
    v = [[0.0, 0.1, -0.0], [0.05, -0.05, -0.0], [-0.05, -0.05, -0.0]]
    return CartesianState(*np.array(x), *np.array(v))


def sparse_setup():
    """The initial state of perfbench/configs/expr_sparse.json."""
    x = [[1.1, 0.0, 0.0], [-0.4, 0.9, 0.1], [-0.7, -0.6, 0.0]]
    v = [[0.0, 0.3, 0.0], [0.1, -0.2, 0.05], [-0.1, -0.1, -0.05]]
    return CartesianState(*np.array(x), *np.array(v))


def reference_steps(masses, potential, state, method, dt, steps):
    """Every state of the plain, out-of-place stepping loops: x and v as
    separate arrays, leapfrog as v + 0.5*dt*a then x + dt*v_half, and
    classical RK4 stage by stage."""

    def accelerations(x):
        return forces_cartesian(potential, masses, x) / masses.as_array()[:, None]

    x, v = state.positions, state.velocities
    xs, vs = [x], [v]
    a = accelerations(x)
    for _ in range(steps):
        if method == "leapfrog":
            v_half = v + 0.5 * dt * a
            x = x + dt * v_half
            a = accelerations(x)
            v = v_half + 0.5 * dt * a
        else:
            k1x, k1v = v, accelerations(x)
            k2x, k2v = v + 0.5 * dt * k1v, accelerations(x + 0.5 * dt * k1x)
            k3x, k3v = v + 0.5 * dt * k2v, accelerations(x + 0.5 * dt * k2x)
            k4x, k4v = v + dt * k3v, accelerations(x + dt * k3x)
            x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        xs.append(x)
        vs.append(v)
    return xs, vs


class TestTotalEnergy:
    def test_free_kinetic_only(self):
        z = np.zeros(3)
        state = CartesianState(
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([2.0, 0.0, 0.0]),
            z,
            z,
        )
        assert total_energy(MASSES, state, FREE) == 2.0

    def test_harmonic_equilateral_rest(self):
        z = np.zeros(3)
        state = CartesianState(
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.5, sqrt(3) / 2, 0.0]),
            z,
            z,
            z,
        )
        assert total_energy(MASSES, state, HARMONIC) == pytest.approx(0.0, abs=1e-15)


class TestIntegrate:
    def test_record_count(self):
        cfg = IntegratorConfig(dt=0.01, steps=100, record_stride=10)
        traj = integrate(MASSES, harmonic_setup(), HARMONIC, cfg)
        assert len(traj) == 11
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(1.0)
        assert traj.x.shape == traj.v.shape == (11, 3, 3)

    def test_free_motion_is_linear(self):
        state = crossing_setup()
        cfg = IntegratorConfig(dt=0.05, steps=20)
        traj = integrate(MASSES, state, FREE, cfg)
        final = traj.x[-1]
        assert np.allclose(final[1], state.x2 + 1.0 * state.v2, atol=1e-12)
        assert np.allclose(final[0], state.x1, atol=1e-12)
        rep = conservation_report(traj)
        assert rep.energy_drift_rel < 1e-14
        assert rep.L_drift_inf < 1e-14

    def test_leapfrog_time_reversal(self):
        cfg = IntegratorConfig(dt=0.01, steps=1000, record_stride=1000)
        fwd = integrate(MASSES, harmonic_setup(), HARMONIC, cfg)
        back = integrate(
            MASSES, CartesianState(*fwd.x[-1], *-fwd.v[-1]), HARMONIC, cfg
        )
        start = harmonic_setup()
        assert np.allclose(back.x[-1], start.positions, atol=1e-9)
        assert np.allclose(-back.v[-1], start.velocities, atol=1e-9)

    def test_energy_drift_scales_as_dt_squared(self):
        drifts = []
        for dt, steps in [(0.01, 2000), (0.005, 4000)]:
            cfg = IntegratorConfig(dt=dt, steps=steps, record_stride=10)
            traj = integrate(MASSES, harmonic_setup(), HARMONIC, cfg)
            drifts.append(conservation_report(traj).energy_drift_rel)
        ratio = drifts[0] / drifts[1]
        assert 3.0 < ratio < 5.0

    def test_angular_momentum_conserved(self):
        cfg = IntegratorConfig(dt=0.01, steps=2000, record_stride=10)
        traj = integrate(MASSES, harmonic_setup(), HARMONIC, cfg)
        assert conservation_report(traj).L_drift_inf < 1e-10

    def test_hamiltonian_tracks_energy_outside_band(self):
        cfg = IntegratorConfig(dt=0.01, steps=2000, record_stride=10)
        traj = integrate(MASSES, harmonic_setup(), HARMONIC, cfg)
        rep = conservation_report(traj)
        assert rep.tracking_error_outside_band < 1e-8

    def test_rk4_agrees_with_leapfrog(self):
        state = harmonic_setup()
        finals = []
        for method in ("leapfrog", "rk4"):
            cfg = IntegratorConfig(method=method, dt=0.001, steps=1000)
            finals.append(integrate(MASSES, state, HARMONIC, cfg).x[-1])
        assert np.allclose(finals[0], finals[1], atol=1e-5)

    @pytest.mark.parametrize(
        "method, stride",
        [("leapfrog", 1), ("rk4", 1), ("leapfrog", 7), ("rk4", 7)],
        ids=["leapfrog", "rk4", "leapfrog-stride7", "rk4-stride7"],
    )
    @pytest.mark.parametrize(
        "potential, setup, dt, masses",
        [
            (HARMONIC, harmonic_setup, 0.01, MASSES),
            (builtin_potential("gravity", G=1.0), figure_eight_setup, 1e-3, MASSES),
            (parse_potential("0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2"), sparse_setup, 0.01,
             MASSES),
            (builtin_potential("lennard_jones"), planar_setup, 0.01, MASSES),
            (FREE, planar_setup, 0.01, MASSES),
            # a kick h (f / m) rounds unlike (h f) / m only where m is not 1
            (HARMONIC, harmonic_setup, 0.01, MassTriple(1.5, 1.3, 0.7)),
        ],
        ids=["harmonic", "gravity", "expression", "lennard_jones", "free", "unequal_masses"],
    )
    def test_steps_match_reference_bitwise(self, method, stride, potential, setup, dt, masses):
        # byte for byte, so the sign of every 0 is held too: the CSV prints
        # -0; row k is the reference's state after step k * stride
        steps = 60
        cfg = IntegratorConfig(method=method, dt=dt, steps=steps, record_stride=stride)
        traj = integrate(masses, setup(), potential, cfg)
        xs, vs = reference_steps(masses, potential, setup(), method, dt, steps)
        assert len(traj) == steps // stride + 1 and len(xs) == steps + 1
        for row in range(len(traj)):
            assert traj.x[row].tobytes() == xs[row * stride].tobytes(), row
            assert traj.v[row].tobytes() == vs[row * stride].tobytes(), row

    def test_blowup_guard(self, monkeypatch):
        z = np.zeros(3)
        x = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0]))
        calls = []

        def wrapped(bound):
            """dynamics.force_field with its field counting its calls."""

            def bind(*args):
                field = bound(*args)

                def counted(x):
                    calls.append(None)
                    f = field(x)
                    if len(calls) == 9:
                        f[5] = np.nan  # z of body 2
                    return f

                return counted

            return bind

        # NaN first appears in the ninth force evaluation: leapfrog takes it
        # at step 8 (one evaluation comes before the first step), RK4 at
        # step 3 (four per step).  Every step is guarded, recorded or not:
        # at record_stride 5 none of the steps named is recorded
        runs = [(method, stride) for method in ("leapfrog", "rk4") for stride in (1, 5)]
        for method, stride in runs:
            nan_step = 8 if method == "leapfrog" else 3
            # a position leaves the guard: x2 reaches 5e12 at step 1
            state = CartesianState(*x, z, np.array([5e11, 0.0, 0.0]), z)
            cfg = IntegratorConfig(method=method, dt=10.0, steps=5, record_stride=stride)
            with pytest.raises(NumericalBlowup, match=r"at step 1$"):
                integrate(MASSES, state, FREE, cfg)
            # the start is held to the guard before any force is evaluated
            state = CartesianState(*x, z, np.array([2e12, 0.0, 0.0]), z)
            cfg = IntegratorConfig(method=method, dt=1e-3, steps=5, record_stride=stride)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(trireduce.dynamics, "force_field", wrapped(force_field))
                with pytest.raises(NumericalBlowup, match=r"at step 0$"):
                    integrate(MASSES, state, FREE, cfg)
            assert calls == []
            # only a velocity leaves it: a constant force 2e15 on body 2
            # takes v2 to 2e12 and x2 to 1e9 at step 1
            push = [0.0] * 9
            push[3] = 2e15
            with monkeypatch.context() as patch:
                patch.setattr(trireduce.dynamics, "force_field", lambda *args: lambda x: push)
                with pytest.raises(NumericalBlowup, match=r"at step 1$"):
                    integrate(MASSES, CartesianState(*x, z, z, z), FREE, cfg)
            calls.clear()
            cfg = IntegratorConfig(method=method, dt=0.01, steps=20, record_stride=stride)
            with monkeypatch.context() as patch:
                patch.setattr(trireduce.dynamics, "force_field", wrapped(force_field))
                with pytest.raises(NumericalBlowup, match=rf"at step {nan_step}$"):
                    integrate(MASSES, harmonic_setup(), HARMONIC, cfg)

    @pytest.mark.parametrize("method", ["leapfrog", "rk4"])
    @pytest.mark.parametrize(
        "text",
        ["exp(1000*(d23 - 1)) + sqrt(r2)", "exp(100*d23)*r1", "exp(1000*(d23 - 1))"],
        ids=["sin-phi-overflow", "exp-domain", "expression-inf"],
    )
    def test_blowup_guard_before_a_field_error(self, text, method):
        # forces of 1e68 and more at the start drift the bodies far past the
        # guard in step 1 (a stage of it, under rk4), where the field raises:
        # sin_phi overflows, exp leaves its domain or V is inf; the guard
        # names the step in place of the field's error
        state = CartesianState(
            np.array([1.1, 0.0, 0.0]), np.array([-0.4, 0.9, 0.1]), np.array([-0.7, -0.6, 0.0]),
            np.array([0.0, 0.3, 0.0]), np.array([0.1, -0.2, 0.05]), np.array([-0.1, -0.1, -0.05]),
        )
        cfg = IntegratorConfig(method=method, dt=0.01, steps=200)
        with pytest.raises(NumericalBlowup, match=r"^coordinate overflow at step 1$"):
            integrate(MASSES, state, parse_potential(text), cfg)

    @pytest.mark.parametrize("method", ["leapfrog", "rk4"])
    def test_field_is_bound_once_per_run(self, monkeypatch, method):
        # the run binds its force field once, after the step-0 guard, and
        # every step calls that field
        binds, calls = [], []

        def bind(*args):
            binds.append(args)
            field = force_field(*args)

            def counted(x):
                # one state's nine position components, as floats
                assert type(x) is list and len(x) == 9 and all(type(c) is float for c in x)
                calls.append(None)
                return field(x)

            return counted

        monkeypatch.setattr(trireduce.dynamics, "force_field", bind)
        cfg = IntegratorConfig(method=method, dt=0.01, steps=7, record_stride=2)
        integrate(MASSES, harmonic_setup(), HARMONIC, cfg)
        assert binds == [(HARMONIC, MASSES)]
        assert len(calls) == (8 if method == "leapfrog" else 28)
        state = CartesianState(*np.zeros((3, 3)), np.array([2e12, 0.0, 0.0]), *np.zeros((2, 3)))
        with pytest.raises(NumericalBlowup, match=r"at step 0$"):
            integrate(MASSES, state, HARMONIC, cfg)
        assert len(binds) == 1

    def test_samples_are_the_rows_of_the_columns(self):
        # body 2 starts at the 1-3 center of mass, so sample 0 is degenerate
        z = np.zeros(3)
        state = CartesianState([1.0, 0, 0], z, [-1.0, 0, 0], z, [0, 1.0, 0], z)
        traj = integrate(MASSES, state, FREE, IntegratorConfig(dt=0.1, steps=4))
        samples = traj.samples
        assert len(samples) == len(traj) == 5
        assert [s.branch for s in samples] == traj.branch.tolist()
        assert traj.branch[0] == "degenerate" and np.isnan(samples[0].H_reduced)
        for k, sample in enumerate(samples):
            for f in fields(sample):
                if f.name != "branch":
                    row = getattr(traj, f.name)[k]
                    assert np.array_equal(getattr(sample, f.name), row, equal_nan=True), f.name

    def test_empty_trajectory_has_no_report(self):
        traj = integrate(MASSES, harmonic_setup(), HARMONIC, IntegratorConfig(dt=0.01, steps=1))
        columns = {f.name: getattr(traj, f.name)[:0] for f in fields(traj)}
        empty = trireduce.dynamics.Trajectory(**columns)
        with pytest.raises(ValueError, match="^empty trajectory$"):
            conservation_report(empty)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", float("inf")),
            ("steps", 2.5),
            ("record_stride", 2.5),
            ("steps", True),
            ("record_stride", True),
        ],
    )
    def test_invalid_config_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**{field: value})

    def test_time_beyond_the_float_range(self):
        # the last sample time steps * dt would be inf: rejected, naming dt,
        # before integrate writes inf into t
        for steps, dt in ((3, 1e308), (2, 1e308), (10**400, 1e-300), (10**400, 1e-3)):
            with pytest.raises(ValueError, match="^dt: "):
                IntegratorConfig(dt=dt, steps=steps, record_stride=steps)
        at_rest = CartesianState(*crossing_setup().positions, *np.zeros((3, 3)))
        traj = integrate(MASSES, at_rest, FREE, IntegratorConfig(dt=1e308, steps=1))
        assert traj.t.tolist() == [0.0, 1e308]

    def test_unindexable_record_count(self):
        # steps // record_stride + 1 rows of 72 bytes beyond np.intp: rejected
        # before integrate allocates them
        largest = np.iinfo(np.intp).max // 72 - 1  # rows = steps + 1 at stride 1
        for steps, stride in ((largest + 1, 1), (2 * largest + 4, 2), (10**30, 1)):
            with pytest.raises(ValueError, match="^steps: "):
                IntegratorConfig(steps=steps, record_stride=stride)
        for steps, stride in ((largest, 1), (10**30, 10**30)):
            assert IntegratorConfig(steps=steps, record_stride=stride).steps == steps


class TestPassages:
    def test_constructed_crossing_found(self):
        cfg = IntegratorConfig(dt=0.01, steps=100)
        traj = integrate(MASSES, crossing_setup(), FREE, cfg)
        p = detect_collinear_passages(traj, threshold=0.5)
        assert len(p) == 1
        assert p.t_minus[0] < p.t_star[0] < p.t_plus[0]
        assert 0.0 <= p.sin_phi_min[0] < 0.5
        # free motion: H is constant, so the bracketing values match H_at
        assert p.delta_H[0] < 1e-10 * abs(p.H_at[0])

    def test_nonplanar_collinear_passage(self):
        # free motion through an exactly collinear shape at t = 0.5 (sample
        # 50): body 2 bends along x while the 1-3 pair turns about x, so the
        # bending leaves the plane normal to L
        xc = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.3], [0.0, 0.0, -1.0]])
        v = np.array([[-1 / 3, 0.4, 0.0], [2 / 3, 0.0, 0.0], [-1 / 3, -0.4, 0.0]])
        x0 = xc - 0.5 * v
        state = CartesianState(*x0, *v)
        traj = integrate(MASSES, state, FREE, IntegratorConfig(dt=0.01, steps=100))
        L = traj.L[50]
        assert abs(L[0]) > 0.1 * np.linalg.norm(L)  # bending along x meets L
        p = detect_collinear_passages(traj, threshold=0.5)
        assert len(p) == 1
        assert p.sin_phi_min[0] < 1e-8
        assert traj.branch[50] == "collinear"
        assert p.delta_H[0] < 1e-10 * abs(p.H_at[0])

    def test_no_crossing_empty(self):
        z = np.zeros(3)
        state = CartesianState(
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, -1.0]),
            z,
            z,
            z,
        )
        traj = integrate(MASSES, state, FREE, IntegratorConfig(dt=0.01, steps=20))
        assert np.all(traj.sin_phi >= 0.5)
        assert len(detect_collinear_passages(traj, threshold=0.5)) == 0

    def test_zero_threshold_empty(self):
        cfg = IntegratorConfig(dt=0.01, steps=100)
        traj = integrate(MASSES, crossing_setup(), FREE, cfg)
        assert len(detect_collinear_passages(traj, threshold=0.0)) == 0

    def test_short_trajectory_empty(self):
        cfg = IntegratorConfig(dt=0.01, steps=1)
        traj = integrate(MASSES, crossing_setup(), FREE, cfg)
        assert len(detect_collinear_passages(traj, threshold=1.0)) == 0

    def test_columns_equal_the_per_passage_loop(self):
        # the loop the array version replaced is the reference: the same
        # arithmetic on each passage, so the same bits
        def by_loop(traj, threshold):
            rows = []
            sin_phi, t, H = traj.sin_phi, traj.t, traj.H_reduced
            for i in range(1, len(t) - 1):
                y0, y1, y2 = sin_phi[i - 1], sin_phi[i], sin_phi[i + 1]
                if y1 < threshold and y1 <= y0 and y1 <= y2:
                    denom = y0 - 2.0 * y1 + y2
                    offset = 0.5 * (y0 - y2) / denom if denom > 0.0 else 0.0
                    t_star = t[i] + offset * (t[i + 1] - t[i])
                    delta = max(abs(H[i - 1] - H[i]), abs(H[i + 1] - H[i]))
                    rows.append((t[i - 1], t[i + 1], t_star, y1, H[i - 1], H[i], H[i + 1], delta))
            return np.array(rows, dtype=float).reshape(-1, 8).T

        x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.3], [0.0, 0.0, -1.0]])
        still = CartesianState(*x, *np.zeros((3, 3)))
        cfg = IntegratorConfig(dt=0.01, steps=400)
        trajectories = [
            integrate(MASSES, harmonic_setup(), HARMONIC, cfg),
            integrate(MASSES, crossing_setup(), FREE, cfg),
            integrate(MASSES, still, FREE, IntegratorConfig(dt=0.01, steps=20)),
        ]
        # columns with ties, flat runs and NaN (degenerate) samples
        rng = np.random.default_rng(5)
        sin_phi = rng.integers(0, 4, 500) / 4.0
        sin_phi[rng.random(500) < 0.05] = np.nan
        t, H = np.cumsum(rng.uniform(0.01, 0.1, 500)), rng.normal(size=500)
        trajectories.append(SimpleNamespace(sin_phi=sin_phi, t=t, H_reduced=H))
        found = 0
        for traj in trajectories:
            for threshold in (0.0, 0.3, 0.9, 1.1):
                passages = detect_collinear_passages(traj, threshold)
                columns = np.array(list(vars(passages).values()))
                assert columns.tobytes() == by_loop(traj, threshold).tobytes()
                found += len(passages)
        assert found > 100

    def test_flat_minimum_at_middle_sample(self):
        # a motionless collinear shape: three equal samples, sin(phi) = 0,
        # so the parabola through them is flat and t_star is the middle time
        x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.3], [0.0, 0.0, -1.0]])
        state = CartesianState(*x, *np.zeros((3, 3)))
        traj = integrate(MASSES, state, FREE, IntegratorConfig(dt=0.01, steps=2))
        assert np.all(traj.sin_phi == 0.0)
        p = detect_collinear_passages(traj, threshold=0.5)
        assert len(p) == 1
        assert p.t_star[0] == traj.t[1]
        assert (p.t_minus[0], p.t_plus[0]) == (traj.t[0], traj.t[2])
        assert p.delta_H[0] == 0.0
