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
from math import cos, sin

import numpy as np

from .errors import DegenerateShape
from .geometry import (
    COLLINEAR_THRESHOLD,
    BodyVelocityState,
    CartesianState,
    JacobiVectors,
    MassTriple,
    ShapeCoordinates,
    body_frame_fit,
    jacobi_from_cartesian,
)
from .potential import PotentialSpec, potential_at_shape
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
    c = cos(q.phi)
    a, b = q.r1 ** 2, q.r2 ** 2
    _, J2, J3 = m.J
    p1, p2, p3 = m.p
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
    zero total momentum it equals the total energy.
    """
    j = jacobi_from_cartesian(masses, state)
    return evaluate_reduced_jacobi(
        masses, j, potential, collinear_threshold=collinear_threshold
    )


def evaluate_reduced_jacobi(
    masses: MassTriple,
    j: JacobiVectors,
    potential: PotentialSpec,
    collinear_threshold=COLLINEAR_THRESHOLD,
) -> ReducedEvaluation:
    """As evaluate_reduced, starting from Jacobi vectors.

    With body velocities v1 = R^T sdot1, v2 = R^T sdot2:
    T = r2 v2[2], J2 + cos(phi) T = r1^2 w2 with w2 = -v1[2] / r1, and
    p3 = r2^2 (w3 + phidot), the in-plane rotation rate of s2 times r2^2.
    """
    R, q = body_frame_fit(j, collinear_threshold=collinear_threshold)
    v1 = R.T @ j.sdot1
    v2 = R.T @ j.sdot2
    s, c = sin(q.phi), cos(q.phi)
    T = q.r2 * v2[2]
    p3 = q.r2 * (c * v2[1] - s * v2[0])
    J = np.array([s * T, -q.r1 * v1[2] - c * T, q.r1 * v1[1] + p3])
    momenta = BodyMomenta(J, np.array([v1[0], c * v2[0] + s * v2[1], p3]))
    V = potential_at_shape(potential, masses, q)
    sin_phi = float(np.linalg.norm(np.cross(j.s1, j.s2))) / (q.r1 * q.r2)
    return ReducedEvaluation(
        H=reduced_hamiltonian(q, momenta, T, V),
        branch=(
            BRANCH_NONCOLLINEAR if sin_phi > collinear_threshold else BRANCH_COLLINEAR
        ),
        q=q,
        momenta=momenta,
        singular_term=float(T),
        sin_phi=sin_phi,
    )
