"""Cartesian three-body dynamics: the oracle the reduced quantities are
validated against.

The default integrator is leapfrog (velocity-Verlet), which is symplectic
and time-reversible, so conserved-quantity drift diagnoses formula errors
rather than integrator artifacts.  RK4 is provided for cross-checks.
"""

from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .errors import NumericalBlowup
from .geometry import COLLINEAR_THRESHOLD, CartesianState, MassTriple
from .hamiltonian import ReducedBatch, evaluate_reduced_batch
from .potential import PotentialSpec, check_number, forces_cartesian, potential_at_positions

OVERFLOW_GUARD = 1e12
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
    return kinetic + float(potential_at_positions(potential, masses, state.positions[None])[0])


def _leapfrog_steps(accelerations, y, dt, n, on_step):
    """n leapfrog steps of the state y = (x, v), in place."""
    x, v = y
    h = 0.5 * dt
    kick = h * accelerations(x)  # the half kick ends one step and starts the next
    for k in range(n):
        v += kick
        x += dt * v
        kick = h * accelerations(x)
        v += kick
        on_step(k, y)


def _rk4_steps(accelerations, y, dt, n, on_step):
    """n classical Runge-Kutta steps of y' = f(y) = (v, a(x)), in place."""

    def f(y):
        return np.array((y[1], accelerations(y[0])))

    for k in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        on_step(k, y)


def integrate(
    masses: MassTriple,
    state0: CartesianState,
    potential: PotentialSpec,
    cfg: IntegratorConfig,
    collinear_threshold=COLLINEAR_THRESHOLD,
) -> Trajectory:
    """Integrate the Cartesian equations of motion, stepping the state
    (x, v) in place, record it every record_stride steps, and reduce the
    recorded states in one pass (evaluate_reduced_batch).

    Raises NumericalBlowup, naming the step (0 for the start), when at the
    start or after a step a position or velocity component leaves
    [-OVERFLOW_GUARD, OVERFLOW_GUARD] or is NaN.
    """
    stride = cfg.record_stride
    rows = cfg.steps // stride + 1
    y = np.array((state0.positions, state0.velocities))
    if not (np.abs(y).max() <= OVERFLOW_GUARD):
        raise NumericalBlowup("coordinate overflow at step 0")
    # two arrays, not one (2, rows, 3, 3) block, which raises a long run's peak RSS
    xs, vs = np.empty((rows, 3, 3)), np.empty((rows, 3, 3))
    xs[0], vs[0] = y
    m = masses.as_array()[:, None]

    def accelerations(x):
        return forces_cartesian(potential, masses, x) / m

    def on_step(k, y):
        if not (np.maximum.reduce(np.abs(y), None) <= OVERFLOW_GUARD):
            raise NumericalBlowup(f"coordinate overflow at step {k + 1}")
        if (k + 1) % stride == 0:
            xs[(k + 1) // stride], vs[(k + 1) // stride] = y

    stepper = _leapfrog_steps if cfg.method == "leapfrog" else _rk4_steps
    stepper(accelerations, y, cfg.dt, cfg.steps, on_step)
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


@dataclass(frozen=True)
class CollinearPassage:
    t_minus: float
    t_plus: float
    t_star: float
    sin_phi_min: float
    H_before: float
    H_at: float
    H_after: float
    delta_H: float


def detect_collinear_passages(traj: Trajectory, threshold: float):
    """Find local minima of sin(phi) strictly below threshold.

    Passage time by parabolic interpolation through the three samples
    bracketing the minimum.  H_at is the reduced Hamiltonian of the minimum
    sample; delta_H is the largest deviation of the bracketing samples'
    values from it.
    """
    passages = []
    if len(traj) < 3:
        return passages
    sin_phi, times, H = traj.sin_phi, traj.t, traj.H_reduced
    y0, y1, y2 = sin_phi[:-2], sin_phi[1:-1], sin_phi[2:]
    finite = np.isfinite(y0) & np.isfinite(y1) & np.isfinite(y2)
    minima = finite & (y1 < threshold) & (y1 <= y0) & (y1 <= y2)
    for i in np.flatnonzero(minima) + 1:
        y0, y1, y2 = sin_phi[i - 1], sin_phi[i], sin_phi[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom > 0.0:
            offset = 0.5 * (y0 - y2) / denom
        else:
            offset = 0.0
        dt = times[i + 1] - times[i]
        t_star = times[i] + offset * dt
        H_before, H_at, H_after = H[i - 1], H[i], H[i + 1]
        delta = max(abs(H_before - H_at), abs(H_after - H_at))
        bracket = (times[i - 1], times[i + 1], float(t_star), float(y1))
        passages.append(CollinearPassage(*bracket, H_before, H_at, H_after, delta))
    return passages
