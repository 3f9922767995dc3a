"""Cartesian three-body dynamics: the oracle the reduced quantities are
validated against.

The default integrator is leapfrog (velocity-Verlet), which is symplectic
and time-reversible, so conserved-quantity drift diagnoses formula errors
rather than integrator artifacts.  RK4 is provided for cross-checks.
"""

import sys
from dataclasses import dataclass, fields
from math import hypot, isfinite
from numbers import Integral

import numpy as np

from .errors import NumericalBlowup, TrireduceError
from .geometry import COLLINEAR_THRESHOLD, CartesianState, MassTriple, check_number
from .hamiltonian import ReducedBatch, evaluate_reduced_batch
from .potential import PotentialSpec, force_field, potential_at_positions

OVERFLOW_GUARD = 1e12
FAST_GUARD = 0.99e12  # the steppers' one test of a step; see _check_guard
BAND_THRESHOLD = 1e-3


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "leapfrog"
    dt: float = 1e-3
    steps: int = 1000
    record_stride: int = 1

    def __post_init__(self):
        # cli._parse_integrator reads the field's name before the first ": "
        if self.method not in ("leapfrog", "rk4"):
            raise ValueError(f"method: expected 'leapfrog' or 'rk4', got {self.method!r}")
        check_number("dt", self.dt)
        if not (self.dt > 0.0):
            raise ValueError("dt: must be > 0")
        for name in ("steps", "record_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name}: expected a whole number, got {value!r}")
            if value < 1:
                raise ValueError(f"{name}: must be >= 1")
        # the last sample time; float() of a steps beyond the float range would raise
        if not (self.steps <= sys.float_info.max and isfinite(float(self.steps) * float(self.dt))):
            raise ValueError("dt: steps * dt is not a finite time")
        if (self.steps // self.record_stride + 1) * 72 > np.iinfo(np.intp).max:  # bytes of xs
            raise ValueError(f"steps: {self.steps} steps record more bytes than one array holds")


@dataclass(frozen=True)
class TrajectorySample:
    """Derived quantities of one recorded state (see Trajectory.samples)."""

    t: float
    r1: float
    r2: float
    phi: float
    sin_phi: float
    J: np.ndarray
    p: np.ndarray
    H_reduced: float
    E_total: float
    L: np.ndarray
    branch: str


@dataclass
class Trajectory(ReducedBatch):
    """Recorded states and their reduced quantities, one row per sample.

    t is (n,); x and v are (n, 3, 3) positions and velocities, one row per
    body; the reduced columns are those of ReducedBatch.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __len__(self):
        return len(self.t)

    @property
    def samples(self):
        """Read-only per-sample view of the columns, built on access."""
        columns = [getattr(self, f.name) for f in fields(TrajectorySample)]
        return tuple(TrajectorySample(*row) for row in zip(*columns))


def total_energy(masses: MassTriple, state: CartesianState, potential) -> float:
    """Total Cartesian energy, kinetic plus potential."""
    m = masses.as_array()
    kinetic = 0.5 * float(np.sum(m[:, None] * state.velocities ** 2))
    return kinetic + float(potential_at_positions(potential, masses, state.positions))


def _leapfrog_steps(field, masses, y, dt, n, stride):
    """Take n leapfrog (velocity-Verlet) steps from the state y, 18 floats
    (the nine position components, then the nine velocity components),
    under the forces field(x) of the nine position components on the
    masses, three floats, and yield (k, positions, velocities), lists of
    nine floats, after every stride-th step k.

    The state is held as 18 local floats, the masses as three.  A step
    adds the kick h (f / m), h = dt / 2, to each velocity, adds dt v to
    each position and adds the kick of the forces at the new positions,
    which starts the next step too.  Every step is guarded, recorded or
    not, and so is the state of a field call that raises, before its
    error: see _check_guard."""
    x1, y1, z1, x2, y2, z2, x3, y3, z3, u1, v1, w1, u2, v2, w2, u3, v3, w3 = y
    m1, m2, m3 = masses
    h = 0.5 * dt
    a1, b1, c1, a2, b2, c2, a3, b3, c3 = field([x1, y1, z1, x2, y2, z2, x3, y3, z3])
    a1, b1, c1 = h * (a1 / m1), h * (b1 / m1), h * (c1 / m1)
    a2, b2, c2 = h * (a2 / m2), h * (b2 / m2), h * (c2 / m2)
    a3, b3, c3 = h * (a3 / m3), h * (b3 / m3), h * (c3 / m3)
    for k in range(1, n + 1):
        u1, v1, w1 = u1 + a1, v1 + b1, w1 + c1
        u2, v2, w2 = u2 + a2, v2 + b2, w2 + c2
        u3, v3, w3 = u3 + a3, v3 + b3, w3 + c3
        x1, y1, z1 = x1 + dt * u1, y1 + dt * v1, z1 + dt * w1
        x2, y2, z2 = x2 + dt * u2, y2 + dt * v2, z2 + dt * w2
        x3, y3, z3 = x3 + dt * u3, y3 + dt * v3, z3 + dt * w3
        try:
            a1, b1, c1, a2, b2, c2, a3, b3, c3 = field([x1, y1, z1, x2, y2, z2, x3, y3, z3])
        except TrireduceError:
            _check_guard([x1, y1, z1, x2, y2, z2, x3, y3, z3,
                          u1, v1, w1, u2, v2, w2, u3, v3, w3], k)
            raise
        a1, b1, c1 = h * (a1 / m1), h * (b1 / m1), h * (c1 / m1)
        a2, b2, c2 = h * (a2 / m2), h * (b2 / m2), h * (c2 / m2)
        a3, b3, c3 = h * (a3 / m3), h * (b3 / m3), h * (c3 / m3)
        u1, v1, w1 = u1 + a1, v1 + b1, w1 + c1
        u2, v2, w2 = u2 + a2, v2 + b2, w2 + c2
        u3, v3, w3 = u3 + a3, v3 + b3, w3 + c3
        if not hypot(x1, y1, z1, x2, y2, z2, x3, y3, z3,
                     u1, v1, w1, u2, v2, w2, u3, v3, w3) < FAST_GUARD:
            _check_guard([x1, y1, z1, x2, y2, z2, x3, y3, z3,
                          u1, v1, w1, u2, v2, w2, u3, v3, w3], k)
        if k % stride == 0:
            yield k, [x1, y1, z1, x2, y2, z2, x3, y3, z3], [u1, v1, w1, u2, v2, w2, u3, v3, w3]


def _rk4_steps(field, masses, y, dt, n, stride):
    """Take n classical Runge-Kutta steps of y' = f(y) = (v, a(x)), with
    the accelerations a(x) = field(x) / m, and guard and yield as
    _leapfrog_steps does.  The stages run on lists of 18 floats."""
    h, sixth = 0.5 * dt, dt / 6.0
    m = [w for w in masses for _ in range(3)]

    def f(y):
        try:
            return y[9:] + [F / w for F, w in zip(field(y[:9]), m)]
        except TrireduceError:
            _check_guard(y, k)
            raise

    for k in range(1, n + 1):
        k1 = f(y)
        k2 = f([a + h * b for a, b in zip(y, k1)])
        k3 = f([a + h * b for a, b in zip(y, k2)])
        k4 = f([a + dt * b for a, b in zip(y, k3)])
        y = [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        if not hypot(*y) < FAST_GUARD:
            _check_guard(y, k)
        if k % stride == 0:
            yield k, y[:9], y[9:]


def _check_guard(y, step):
    """Raise NumericalBlowup naming the step unless every component of the
    state y, 18 floats, lies in [-OVERFLOW_GUARD, OVERFLOW_GUARD]; a NaN
    does not.  The steppers call it where a field call raises, and after a
    step only where math.hypot of the 18, the root of their sum of squares
    and so at least the largest, is not below FAST_GUARD: below it every
    component is inside, so one call of hypot guards a step that passes."""
    if not all(abs(c) <= OVERFLOW_GUARD for c in y):
        raise NumericalBlowup(f"coordinate overflow at step {step}")


def integrate(
    masses: MassTriple,
    state0: CartesianState,
    potential: PotentialSpec,
    cfg: IntegratorConfig,
    collinear_threshold=COLLINEAR_THRESHOLD,
) -> Trajectory:
    """Integrate the Cartesian equations of motion under the potential's
    force_field, bound once per run, and reduce the recorded states in one
    pass (evaluate_reduced_batch).  The stepper (_leapfrog_steps or
    _rk4_steps) holds the state as floats, guards every step and yields
    every record_stride-th; integrate stores the rows it is given.

    Raises NumericalBlowup, naming the step (0 for the start), when at the
    start, after a step or where a step's field call raises, a position or
    velocity component leaves [-OVERFLOW_GUARD, OVERFLOW_GUARD] or is NaN;
    the start is checked before the field is bound.
    """
    stride = cfg.record_stride
    rows = cfg.steps // stride + 1
    y = np.concatenate((state0.positions, state0.velocities), axis=None).tolist()
    _check_guard(y, 0)
    # two arrays, not one (2, rows, 3, 3) block, which raises a long run's peak RSS
    xs, vs = np.empty((rows, 3, 3)), np.empty((rows, 3, 3))
    x_rows, v_rows = xs.reshape(rows, 9), vs.reshape(rows, 9)
    x_rows[0], v_rows[0] = y[:9], y[9:]
    stepper = _leapfrog_steps if cfg.method == "leapfrog" else _rk4_steps
    field = force_field(potential, masses)
    for k, x, v in stepper(field, masses.as_array().tolist(), y, cfg.dt, cfg.steps, stride):
        x_rows[k // stride], v_rows[k // stride] = x, v
    reduced = evaluate_reduced_batch(masses, xs, vs, potential, collinear_threshold)
    t = np.arange(rows) * stride * cfg.dt
    return Trajectory(**vars(reduced), t=t, x=xs, v=vs)


@dataclass(frozen=True)
class ConservationReport:
    energy_drift_rel: float
    L_drift_inf: float
    tracking_error_outside_band: float
    tracking_error_inside_band: float
    degenerate_samples: int


def conservation_report(
    traj: Trajectory, band_threshold=BAND_THRESHOLD
) -> ConservationReport:
    """Drifts of the conserved quantities and the H_reduced-vs-E tracking
    error, split at sin(phi) = band_threshold into the samples away from and
    near collinear shapes.  The tracking errors leave out the
    degenerate_samples, where H_reduced is not finite (r1 = 0 or r2 = 0)."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    E, L, H, sin_phi = traj.E_total, traj.L, traj.H_reduced, traj.sin_phi
    E0 = E[0]
    scale = abs(E0) if E0 != 0.0 else 1.0
    energy_drift = float(np.max(np.abs(E - E0)) / scale)
    L_drift = float(np.max(np.abs(L - L[0])))
    finite = np.isfinite(H)
    diff = np.abs(H - E)[finite]
    near = ~(sin_phi[finite] > band_threshold)
    outside, inside = diff[~near], diff[near]
    return ConservationReport(
        energy_drift_rel=energy_drift,
        L_drift_inf=L_drift,
        tracking_error_outside_band=float(np.max(outside)) if outside.size else 0.0,
        tracking_error_inside_band=float(np.max(inside)) if inside.size else 0.0,
        degenerate_samples=int(np.count_nonzero(~finite)),
    )


@dataclass
class CollinearPassages:
    """Collinear passages, one row per passage: (k,) arrays named as the
    columns of the collinear-report CSV."""

    t_minus: np.ndarray
    t_plus: np.ndarray
    t_star: np.ndarray
    sin_phi_min: np.ndarray
    H_before: np.ndarray
    H_at: np.ndarray
    H_after: np.ndarray
    delta_H: np.ndarray

    def __len__(self):
        return len(self.t_star)


def detect_collinear_passages(traj: Trajectory, threshold: float) -> CollinearPassages:
    """Find local minima of sin(phi) strictly below threshold.

    Passage time by parabolic interpolation through the three samples
    bracketing the minimum.  H_at is the reduced Hamiltonian of the minimum
    sample; delta_H is the largest deviation of the bracketing samples'
    values from it.
    """
    sin_phi, t, H = traj.sin_phi, traj.t, traj.H_reduced
    y0, y1, y2 = sin_phi[:-2], sin_phi[1:-1], sin_phi[2:]
    # a NaN sample, of a degenerate shape, fails every comparison
    i = np.flatnonzero((y1 < threshold) & (y1 <= y0) & (y1 <= y2)) + 1
    y0, y1, y2 = sin_phi[i - 1], sin_phi[i], sin_phi[i + 1]
    denom = y0 - 2.0 * y1 + y2  # <= 0 only where the three are equal, to rounding
    offset = 0.5 * (y0 - y2) / np.where(denom > 0.0, denom, np.inf)
    t_star = t[i] + offset * (t[i + 1] - t[i])
    delta = np.maximum(np.abs(H[i - 1] - H[i]), np.abs(H[i + 1] - H[i]))
    return CollinearPassages(t[i - 1], t[i + 1], t_star, y1, H[i - 1], H[i], H[i + 1], delta)
