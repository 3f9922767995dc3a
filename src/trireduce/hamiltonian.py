"""Reduced ro-vibrational Hamiltonian in a form that is finite at every
non-degenerate shape, collinear shapes included.

With a = r1^2, b = r2^2, S = a + b and T = J1 / sin(phi) (see
singular_term),

    H = [T^2/b + (J2 + cos(phi) T)^2/a + J3^2/S + p1^2 + p2^2
         + (S/ab) (p3 - b J3/S)^2] / 2 + V.

No term divides by sin(phi).  Evaluated from a Cartesian state, T, J and p
are read off the body-frame velocities of the Jacobi vectors, and the terms
add up |v1|^2 + |v2|^2 in any orthonormal frame with u1 along s1, so H
equals the center-of-mass energy whenever r1 and r2 are nonzero.
"""

from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .errors import DegenerateShape, NumericalBlowup
from .geometry import (
    COLLINEAR_THRESHOLD,
    BodyVelocityState,
    CartesianState,
    JacobiVectors,
    MassTriple,
    ShapeCoordinates,
    body_frames,
    cross,
    jacobi_map,
    lengths,
    shape_to_distances,
)
from .potential import PotentialSpec, eval_potential_batch, potential_at_positions
from .reduction import BodyMomenta

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


def reduced_hamiltonian(
    q: ShapeCoordinates, m: BodyMomenta, T: float, V: float
) -> float:
    """Reduced Hamiltonian from the shape, the momenta, T = J1 / sin(phi)
    and the potential value."""
    if q.r2 == 0.0:
        raise DegenerateShape("reduced Hamiltonian needs r2 > 0")
    _, J2, J3 = m.J
    p1, p2, p3 = m.p
    return _finite_form(q.r1, q.r2, cos(q.phi), T, J2, J3, p1, p2, p3, V)


def _finite_form(r1, r2, c, T, J2, J3, p1, p2, p3, V):
    """The module docstring's H, for floats or arrays; c = cos(phi)."""
    a, b = r1 ** 2, r2 ** 2
    S = a + b
    quad = (
        T ** 2 / b
        + (J2 + c * T) ** 2 / a
        + J3 ** 2 / S
        + p1 ** 2
        + p2 ** 2
        + S / (a * b) * (p3 - b / S * J3) ** 2
    )
    return 0.5 * quad + V


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
    NumericalBlowup when the Jacobi vectors or H overflow.
    """
    # one map for positions (row 0) and velocities (row 1); the state was
    # validated when it was built, so only an overflow of the map is new
    xv = np.array([[state.x1, state.x2, state.x3], [state.v1, state.v2, state.v3]])
    s1, s2 = jacobi_map(masses, xv[:, 0], xv[:, 1], xv[:, 2])
    if np.count_nonzero(np.isfinite(s1)) + np.count_nonzero(np.isfinite(s2)) < 12:
        raise NumericalBlowup("the Jacobi vectors of the state overflow")
    return _evaluate_row(
        masses, potential, collinear_threshold, s1[:1], s2[:1], s1[1:], s2[1:]
    )


def evaluate_reduced_jacobi(
    masses: MassTriple,
    j: JacobiVectors,
    potential: PotentialSpec,
    collinear_threshold=COLLINEAR_THRESHOLD,
) -> ReducedEvaluation:
    """As evaluate_reduced, from Jacobi vectors: one row of the batch kernel.
    Raises DegenerateShape when |s1| = 0 or |s2| = 0."""
    return _evaluate_row(
        masses, potential, collinear_threshold,
        j.s1[None], j.s2[None], j.sdot1[None], j.sdot2[None],
    )


def _evaluate_row(masses, potential, collinear_threshold, s1, s2, sd1, sd2):
    """The ReducedEvaluation of one state given as (1, 3) Jacobi rows;
    raises NumericalBlowup when H is not finite."""
    r1, r2, phi, sin_phi, planar, J, p, T, H = _reduce_rows(
        masses, potential, collinear_threshold, s1, s2, sd1, sd2
    )
    H = float(H[0])
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


def _reduce_rows(masses, potential, collinear_threshold, s1, s2, sd1, sd2):
    """Shape, momenta and H of N states given as (N, 3) Jacobi rows.

    The frame comes from body_frames.  With body velocities v1 = R^T sdot1,
    v2 = R^T sdot2: T = r2 v2[2], J2 + cos(phi) T = r1^2 w2 with
    w2 = -v1[2] / r1, and p3 = r2^2 (w3 + phidot), the in-plane rotation
    rate of s2 times r2^2.  The kinetic terms add up to |v1|^2 + |v2|^2 for
    any phi of the frame rule, so V is taken at the measured phi: snapping
    it to 0 or pi would move V by a lot where two bodies nearly meet on
    the line.  Returns (r1, r2, phi, sin_phi, planar, J, p, T, H), with J
    and p of shape (N, 3) and the others (N,).
    """
    axes, r1, r2, phi, measured_phi, sin_phi, planar = body_frames(
        s1, s2, sd1, sd2, collinear_threshold
    )
    v1, v2 = np.einsum("kij,lkj->lki", axes, np.array([sd1, sd2]))
    s, c = np.sin(phi), np.cos(phi)
    T = r2 * v2[:, 2]
    p3 = r2 * (c * v2[:, 1] - s * v2[:, 0])
    J2 = -r1 * v1[:, 2] - c * T
    J3 = r1 * v1[:, 1] + p3
    p2 = c * v2[:, 0] + s * v2[:, 1]
    V = eval_potential_batch(
        potential, masses, r1, r2, measured_phi,
        *shape_to_distances(masses, r1, r2, measured_phi),
    )
    H = _finite_form(r1, r2, c, T, J2, J3, v1[:, 0], p2, p3, V)
    J = np.array([s * T, J2, J3]).T
    p = np.array([v1[:, 0], p2, p3]).T
    return r1, r2, phi, sin_phi, planar, J, p, T, H


@dataclass
class ReducedBatch:
    """Reduced quantities of N states, one row per state.

    r1, r2, phi, sin_phi, H_reduced and E_total are (N,) arrays; J, p and
    L are (N, 3); branch is an (N,) array of branch names, "degenerate"
    where r1 = 0 or r2 = 0 (phi, sin_phi, J, p and H_reduced are NaN there).
    """

    r1: np.ndarray
    r2: np.ndarray
    phi: np.ndarray
    sin_phi: np.ndarray
    J: np.ndarray
    p: np.ndarray
    H_reduced: np.ndarray
    E_total: np.ndarray
    L: np.ndarray
    branch: np.ndarray


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
    body.  The rows with r1, r2 > 0 go through _reduce_rows, the kernel of
    evaluate_reduced_jacobi.  H_reduced takes V at the measured shape
    through shape_to_distances and E_total at the Cartesian pair distances
    (potential_at_positions), so the two stay independent checks of each
    other.
    """
    n = len(x)
    s1, s2 = jacobi_map(masses, x[:, 0], x[:, 1], x[:, 2])
    sd1, sd2 = jacobi_map(masses, v[:, 0], v[:, 1], v[:, 2])
    r1, r2 = lengths(s1), lengths(s2)
    kinetic = 0.5 * np.sum(masses.as_array()[:, None] * v ** 2, axis=(1, 2))
    E = kinetic + potential_at_positions(potential, masses, x)
    L = cross(s1, sd1) + cross(s2, sd2)

    phi = np.full(n, np.nan)
    sin_phi = np.full(n, np.nan)
    H = np.full(n, np.nan)
    J = np.full((n, 3), np.nan)
    p = np.full((n, 3), np.nan)
    branch = np.full(n, "degenerate", dtype=object)
    ok = (r1 > 0.0) & (r2 > 0.0)
    _, _, phi[ok], sin_phi[ok], planar, J[ok], p[ok], _, H[ok] = _reduce_rows(
        masses, potential, collinear_threshold, s1[ok], s2[ok], sd1[ok], sd2[ok]
    )
    branch[ok] = np.where(planar, BRANCH_NONCOLLINEAR, BRANCH_COLLINEAR)
    return ReducedBatch(r1, r2, phi, sin_phi, J, p, H, E, L, branch)
