"""Cartesian three-body dynamics: the oracle the reduced quantities are
validated against.

The default integrator is leapfrog (velocity-Verlet), which is symplectic
and time-reversible, so conserved-quantity drift diagnoses formula errors
rather than integrator artifacts.  RK4 is provided for cross-checks.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalBlowup
from .geometry import COLLINEAR_THRESHOLD, CartesianState, MassTriple
from .hamiltonian import ReducedBatch, evaluate_reduced_batch
from .potential import EvalContext, PotentialSpec, eval_potential, forces_cartesian

OVERFLOW_GUARD = 1e12
BAND_THRESHOLD = 1e-3


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "leapfrog"
    dt: float = 1e-3
    steps: int = 1000
    record_stride: int = 1

    def __post_init__(self):
        if self.method not in ("leapfrog", "rk4"):
            raise ValueError(f"unknown method '{self.method}'")
        if not (self.dt > 0.0):
            raise ValueError("dt must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


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

    masses: MassTriple
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
    V = eval_potential(potential, EvalContext.from_positions(masses, state.positions))
    return kinetic + V


def _accelerations(masses, potential, positions):
    forces = forces_cartesian(potential, masses, positions)
    return forces / masses.as_array()[:, None]


def _leapfrog_steps(masses, potential, x, v, dt, n, on_step):
    a = _accelerations(masses, potential, x)
    for k in range(n):
        v_half = v + 0.5 * dt * a
        x = x + dt * v_half
        a = _accelerations(masses, potential, x)
        v = v_half + 0.5 * dt * a
        on_step(k, x, v)
    return x, v


def _rk4_steps(masses, potential, x, v, dt, n, on_step):
    def deriv(x, v):
        return v, _accelerations(masses, potential, x)

    for k in range(n):
        k1x, k1v = deriv(x, v)
        k2x, k2v = deriv(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = deriv(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = deriv(x + dt * k3x, v + dt * k3v)
        x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        on_step(k, x, v)
    return x, v


def integrate(
    masses: MassTriple,
    state0: CartesianState,
    potential: PotentialSpec,
    cfg: IntegratorConfig,
    collinear_threshold=COLLINEAR_THRESHOLD,
) -> Trajectory:
    """Integrate the Cartesian equations of motion, record the state every
    record_stride steps, and reduce the recorded states in one pass
    (evaluate_reduced_batch).

    Raises NumericalBlowup when a coordinate leaves [-OVERFLOW_GUARD,
    OVERFLOW_GUARD] or is NaN.
    """
    stride = cfg.record_stride
    rows = cfg.steps // stride + 1
    xs = np.empty((rows, 3, 3))
    vs = np.empty((rows, 3, 3))
    xs[0] = state0.positions
    vs[0] = state0.velocities

    def on_step(k, x, v):
        if not (
            np.max(np.abs(x)) <= OVERFLOW_GUARD and np.max(np.abs(v)) <= OVERFLOW_GUARD
        ):
            raise NumericalBlowup(f"coordinate overflow at step {k + 1}")
        if (k + 1) % stride == 0:
            xs[(k + 1) // stride] = x
            vs[(k + 1) // stride] = v

    stepper = _leapfrog_steps if cfg.method == "leapfrog" else _rk4_steps
    stepper(masses, potential, xs[0], vs[0], cfg.dt, cfg.steps, on_step)
    reduced = evaluate_reduced_batch(masses, xs, vs, potential, collinear_threshold)
    return Trajectory(
        **vars(reduced),
        masses=masses,
        t=np.arange(rows) * stride * cfg.dt,
        x=xs,
        v=vs,
    )


@dataclass(frozen=True)
class ConservationReport:
    energy_drift_rel: float
    L_drift_inf: float
    tracking_error_outside_band: float
    tracking_error_inside_band: float


def conservation_report(
    traj: Trajectory, band_threshold=BAND_THRESHOLD
) -> ConservationReport:
    """Drifts of the conserved quantities and the H_reduced-vs-E tracking
    error, split at sin(phi) = band_threshold into the samples away from and
    near collinear shapes."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    E, L, H, sin_phi = traj.E_total, traj.L, traj.H_reduced, traj.sin_phi
    E0 = E[0]
    scale = abs(E0) if E0 != 0.0 else 1.0
    energy_drift = float(np.max(np.abs(E - E0)) / scale)
    L_drift = float(np.max(np.abs(L - L[0])))
    diff = np.abs(H - E)
    outside = diff[sin_phi > band_threshold]
    inside = diff[~(sin_phi > band_threshold)]
    return ConservationReport(
        energy_drift_rel=energy_drift,
        L_drift_inf=L_drift,
        tracking_error_outside_band=float(np.max(outside)) if outside.size else 0.0,
        tracking_error_inside_band=float(np.max(inside)) if inside.size else 0.0,
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
        passages.append(
            CollinearPassage(
                t_minus=times[i - 1],
                t_plus=times[i + 1],
                t_star=float(t_star),
                sin_phi_min=float(y1),
                H_before=H_before,
                H_at=H_at,
                H_after=H_after,
                delta_H=delta,
            )
        )
    return passages
