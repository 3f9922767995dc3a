"""Reduced ro-vibrational Hamiltonian in a form that is finite at every
non-degenerate shape, collinear shapes included.

With a = r1^2, b = r2^2, S = a + b and T = J1 / sin(phi) (see
singular_term),

    H = [T^2/b + (J2 + cos(phi) T)^2/a + J3^2/S + p1^2 + p2^2
         + (S/ab) (p3 - b J3/S)^2] / 2 + V.

No term divides by sin(phi).  Evaluated from a Cartesian state, T, J and p
are read off the body-frame velocities v1, v2 of the Jacobi vectors, and
the kinetic terms are written in those velocities (see _reduce_rows), where
they add up to |v1|^2 + |v2|^2 in any orthonormal frame with u1 along s1.
V is the potential of the positions, as E_total takes it, so H equals the
center-of-mass energy whenever r1 and r2 are nonzero, and H - E_total
measures the kinetic identity alone.
"""

from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .errors import DegenerateShape, NumericalBlowup
from .geometry import (
    COLLINEAR_THRESHOLD,
    BodyMomenta,
    BodyVelocityState,
    CartesianState,
    MassTriple,
    ShapeCoordinates,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    cross,
    jacobi_map,
)
from .potential import PotentialSpec, potential_at_positions
from .reduction import inertia_inverse

BRANCH_NONCOLLINEAR = "noncollinear"
BRANCH_COLLINEAR = "collinear"


@dataclass(frozen=True)
class ReducedEvaluation:
    """Result of evaluating the reduced Hamiltonian on one configuration.

    branch names the body-frame rule used ("noncollinear" above the
    collinear threshold, "collinear" at or below it); sin_phi is the
    measured |s1 x s2| / (|s1| |s2|).
    """

    H: float
    branch: str
    q: ShapeCoordinates
    momenta: BodyMomenta
    singular_term: float
    sin_phi: float


def reduced_hamiltonian(q: ShapeCoordinates, m: BodyMomenta, T: float, V: float) -> float:
    """The module docstring's H from the shape, the momenta, T = J1 / sin(phi)
    and V, for r2 > 0: T²/b is 0/0 at r2 = 0, which raises DegenerateShape and
    is the Cartesian routes' to cover.  ShapeCoordinates holds r1 > 0."""
    if q.r2 == 0.0:
        raise DegenerateShape("reduced Hamiltonian needs r2 > 0")
    (_, J2, J3), (p1, p2, p3) = m.J, m.p
    a, b = q.r1 ** 2, q.r2 ** 2
    S = a + b
    quad = T ** 2 / b + (J2 + cos(q.phi) * T) ** 2 / a + J3 ** 2 / S + p1 ** 2 + p2 ** 2
    return 0.5 * (quad + S / (a * b) * (p3 - b / S * J3) ** 2) + V


def singular_term(q: ShapeCoordinates, w: BodyVelocityState) -> float:
    """The combination J1 / sin(phi), in the form that stays finite for all
    phi: r2^2 w1 sin(phi) - r2^2 w2 cos(phi)."""
    b = q.r2 ** 2
    return b * w.omega[0] * sin(q.phi) - b * w.omega[1] * cos(q.phi)


def evaluate_reduced(
    masses: MassTriple,
    state: CartesianState,
    potential: PotentialSpec,
    collinear_threshold=COLLINEAR_THRESHOLD,
) -> ReducedEvaluation:
    """Evaluate the reduced Hamiltonian of a Cartesian state.

    The result is the energy in the center-of-mass frame; for states with
    zero total momentum it equals the total energy.  Raises
    DegenerateShape when r1 or r2 is 0, before V is evaluated, and
    NumericalBlowup when the Jacobi vectors or H overflow.
    """
    # one map for positions (row 0) and velocities (row 1); the state was
    # validated when it was built, so only an overflow of the map is new
    xv = np.array([[state.x1, state.x2, state.x3], [state.v1, state.v2, state.v3]])
    s1, s2 = jacobi_map(masses, xv[:, 0], xv[:, 1], xv[:, 2])
    (r1, r2, measured_phi), degenerate, phi, sin_phi, planar, J, p, T, K = _reduce_rows(
        collinear_threshold, s1[:1], s2[:1], s1[1:], s2[1:]
    )
    if degenerate is not None:
        raise DegenerateShape.from_r1(r1[0])
    # V at the measured phi, not the snapped one, as total_energy takes it
    V = potential_at_positions(potential, masses, xv[:1], (r1, r2, measured_phi))
    H = float(K[0] + V[0])
    if not isfinite(H):
        raise NumericalBlowup(f"H_reduced overflows ({H})")
    return ReducedEvaluation(
        H=H,
        branch=BRANCH_NONCOLLINEAR if planar[0] else BRANCH_COLLINEAR,
        q=ShapeCoordinates(float(r1[0]), float(r2[0]), float(phi[0])),
        momenta=BodyMomenta(J[0], p[0]),
        singular_term=float(T[0]),
        sin_phi=float(sin_phi[0]),
    )


def _reduce_rows(collinear_threshold, s1, s2, sd1, sd2):
    """The kernel of evaluate_reduced and evaluate_reduced_batch: shape,
    momenta and kinetic energy K of N states given as (N, 3) Jacobi rows,
    in body_frames' frames.  Raises NumericalBlowup naming a row not finite.

    With body velocities v1 = R^T sdot1, v2 = R^T sdot2 and
    q = cos(phi) v2[1] - sin(phi) v2[0]: T = r2 v2[2], J2 + cos(phi) T =
    -r1 v1[2], J3 = r1 v1[1] + r2 q and p3 = r2 q.  K is the module
    docstring's kinetic terms in these velocities, where only S divides;
    they add up to (|v1|^2 + |v2|^2) / 2 for any phi of the frame rule.
    Returns (measured, degenerate, phi, sin_phi, planar, J, p, T, K):
    measured and degenerate of body_frames, J and p (N, 3), the others (N,).
    """
    rows = np.array([s1, s2, sd1, sd2])
    _require_finite("Jacobi vector", rows.transpose(1, 0, 2))
    axes, r1, r2, phi, measured, sin_phi, planar, degenerate = body_frames(
        s1, s2, sd1, sd2, collinear_threshold
    )
    v1, v2 = np.einsum("kij,lkj->lki", axes, rows[2:])
    s, c = np.sin(phi), np.cos(phi)
    T = r2 * v2[:, 2]
    q = c * v2[:, 1] - s * v2[:, 0]
    p3 = r2 * q
    J2 = -r1 * v1[:, 2] - c * T
    J3 = r1 * v1[:, 1] + p3
    p2 = c * v2[:, 0] + s * v2[:, 1]
    quotients = (J3 ** 2 + (r1 * q - r2 * v1[:, 1]) ** 2) / (r1 ** 2 + r2 ** 2)
    K = 0.5 * (v2[:, 2] ** 2 + v1[:, 2] ** 2 + quotients + v1[:, 0] ** 2 + p2 ** 2)
    J = np.array([s * T, J2, J3]).T
    p = np.array([v1[:, 0], p2, p3]).T
    return measured, degenerate, phi, sin_phi, planar, J, p, T, K


def cartesian_from_momenta(masses, q: ShapeCoordinates, m: BodyMomenta) -> CartesianState:
    """The state of shape q and momenta m, its body frame the space frame, by
    the inverse of _reduce_rows' map, which forms no omega or qdot (see
    reduction.velocities_from_momenta).  Raises SingularInertia where
    inertia_inverse does, NumericalBlowup if a velocity overflows."""
    inertia_inverse(q)  # (J, p) fix the state only where I is invertible
    s, c = sin(q.phi), cos(q.phi)
    (J1, J2, J3), (p1, p2, p3) = m.J.tolist(), m.p.tolist()
    T, u = J1 / s, p3 / q.r2
    v = [p1, (J3 - p3) / q.r1, -(J2 + c * T) / q.r1, c * p2 - s * u, s * p2 + c * u, T / q.r2]
    if not all(map(isfinite, v)):
        raise NumericalBlowup("the body velocities of the shape overflow")
    v1, v2 = np.reshape(v, (2, 3))
    return cartesian_from_jacobi(masses, *body_jacobi_vectors(q), v1, v2)


@dataclass
class ReducedBatch:
    """Reduced quantities of N states, one row per state.

    r1, r2, phi, sin_phi, singular_term, H_reduced and E_total are (N,)
    arrays; J, p and L are (N, 3); branch is an (N,) array of branch names,
    "degenerate" where r1 = 0 or r2 = 0, whose columns phi to H_reduced are NaN.
    """

    r1: np.ndarray
    r2: np.ndarray
    phi: np.ndarray
    sin_phi: np.ndarray
    J: np.ndarray
    p: np.ndarray
    singular_term: np.ndarray
    H_reduced: np.ndarray
    E_total: np.ndarray
    L: np.ndarray
    branch: np.ndarray


def _require_finite(name, values):
    """Raise NumericalBlowup naming the first row of values not all finite."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        row = np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))[0]
        raise NumericalBlowup(f"{name} overflow at row {row}")


def evaluate_reduced_batch(
    masses: MassTriple,
    x: np.ndarray,
    v: np.ndarray,
    potential: PotentialSpec,
    collinear_threshold=COLLINEAR_THRESHOLD,
) -> ReducedBatch:
    """evaluate_reduced on N states at once, with each state's total
    energy and angular momentum.

    x and v are (N, 3, 3) arrays of positions and velocities, one row per
    body.  Every row goes once through _reduce_rows, the kernel of
    evaluate_reduced, and V is taken as there: E_total adds it to the
    Cartesian kinetic energy and H_reduced to the body-velocity one, so
    H_reduced - E_total measures the kinetic identity alone.  Rows that
    body_frames marks degenerate get branch "degenerate" and NaN from phi
    to H_reduced.  Raises NumericalBlowup, naming the quantity and the row,
    where the Jacobi vectors, E_total, L or (on a non-degenerate row)
    H_reduced are not finite.
    """
    s1, s2 = jacobi_map(masses, x[:, 0], x[:, 1], x[:, 2])
    sd1, sd2 = jacobi_map(masses, v[:, 0], v[:, 1], v[:, 2])
    (r1, r2, measured_phi), degenerate, phi, sin_phi, planar, J, p, T, K = _reduce_rows(
        collinear_threshold, s1, s2, sd1, sd2
    )
    V = potential_at_positions(potential, masses, x, (r1, r2, measured_phi))
    E = 0.5 * np.sum(masses.as_array()[:, None] * v ** 2, axis=(1, 2)) + V
    _require_finite("E_total", E)
    L = cross(s1, sd1) + cross(s2, sd2)
    _require_finite("L", L)
    H = K + V
    _require_finite("H_reduced", H if degenerate is None else np.where(degenerate, 0.0, H))
    branch = np.where(planar, BRANCH_NONCOLLINEAR, BRANCH_COLLINEAR).astype(object)
    if degenerate is not None:
        # NaN in place of the values of body_frames' stand-in shape
        phi, sin_phi, T, H = np.where(degenerate, np.nan, (phi, sin_phi, T, H))
        J, p = np.where(degenerate[:, None], np.nan, (J, p))
        branch[degenerate] = "degenerate"
    return ReducedBatch(r1, r2, phi, sin_phi, J, p, T, H, E, L, branch)
