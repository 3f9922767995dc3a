"""Shape-dependent tensors of the rotational reduction.

All tensors are expressed in the body frame fixed by the shape: the first
Jacobi vector along axis 1, the second in the 1-2 plane.  Closed forms are
used throughout; generic matrix inversion is avoided so that the quantities
that stay finite at collinear shapes (the connection, the horizontal
metric) are computed without spurious blowup.
"""

from math import cos, sin

import numpy as np

from .errors import SingularInertia
from .geometry import ShapeCoordinates, body_jacobi_vectors, cartesian_from_jacobi, cross

SINGULAR_THRESHOLD = 1e-8


def inertia_tensor(q: ShapeCoordinates) -> np.ndarray:
    """Moment of inertia tensor of the shape in the body frame."""
    s, c = sin(q.phi), cos(q.phi)
    r1sq, r2sq = q.r1 ** 2, q.r2 ** 2
    return np.array(
        [
            [r2sq * s * s, -r2sq * s * c, 0.0],
            [-r2sq * s * c, r1sq + r2sq * c * c, 0.0],
            [0.0, 0.0, r1sq + r2sq],
        ]
    )


def inertia_inverse(q: ShapeCoordinates) -> np.ndarray:
    """Closed-form inverse of the inertia tensor.

    Singular at collinear shapes: raises SingularInertia when r2 = 0,
    |sin phi| <= SINGULAR_THRESHOLD or r1^2 r2^2 sin^2 phi underflows to 0.
    """
    if q.r2 == 0.0:
        raise SingularInertia("r2 = 0: the inertia tensor is singular")
    s, c = sin(q.phi), cos(q.phi)
    if abs(s) <= SINGULAR_THRESHOLD:
        raise SingularInertia(f"|sin phi| = {abs(s):.3e} at or below {SINGULAR_THRESHOLD:.3e}")
    r1sq, r2sq = q.r1 ** 2, q.r2 ** 2
    if r1sq * r2sq * s * s == 0.0:
        raise SingularInertia("r1^2 r2^2 sin^2 phi underflows to 0: the inertia tensor is singular")
    return np.array(
        [
            [(r1sq + r2sq * c * c) / (r1sq * r2sq * s * s), c / (r1sq * s), 0.0],
            [c / (r1sq * s), 1.0 / r1sq, 0.0],
            [0.0, 0.0, 1.0 / (r1sq + r2sq)],
        ]
    )


def shape_metric(q: ShapeCoordinates) -> np.ndarray:
    """Metric of the shape coordinates themselves, diag(1, 1, r2^2)."""
    return np.diag([1.0, 1.0, q.r2 ** 2])


def gauge_potential(q: ShapeCoordinates) -> np.ndarray:
    """Gauge one-form a_mu (rows a_r1, a_r2, a_phi); only a_phi = (0, 0, r2^2)
    is nonzero."""
    a = np.zeros((3, 3))
    a[2, 2] = q.r2 ** 2
    return a


def mechanical_connection(q: ShapeCoordinates) -> np.ndarray:
    """Connection A_mu = I^{-1} a_mu, in closed form.

    Finite for all phi: a_phi lies along the axis on which the inertia
    tensor never degenerates.
    """
    A, r1, r2 = np.zeros((3, 3)), q.r1, q.r2
    if r1 ** 2 + r2 ** 2 == 0.0:  # both squares underflow, the ratio does not
        r1, r2 = r1 / max(r1, r2), r2 / max(r1, r2)
    A[2, 2] = r2 ** 2 / (r1 ** 2 + r2 ** 2)
    return A


def horizontal_metric(q: ShapeCoordinates):
    """Horizontal (rotation-subtracted) shape metric g and its inverse;
    raises SingularInertia at r2 = 0, where g33 = 0, and where g33 underflows."""
    if q.r2 == 0.0:
        raise SingularInertia("r2 = 0: the horizontal metric is singular")
    r1sq, r2sq = q.r1 ** 2, q.r2 ** 2
    g33 = r1sq * r2sq / (r1sq + r2sq) if r1sq * r2sq else 0.0  # no 0/0 if both underflow
    if g33 == 0.0:
        raise SingularInertia("g33 underflows to 0: the horizontal metric is singular")
    g = np.diag([1.0, 1.0, g33])
    g_inv = np.diag([1.0, 1.0, 1.0 / g33])
    return g, g_inv


def shape_partials(q: ShapeCoordinates):
    """Partial derivatives of the body Jacobi vectors with respect to
    (r1, r2, phi); shape (2, 3, 3): [vector, coordinate, component]."""
    s, c = sin(q.phi), cos(q.phi)
    d = np.zeros((2, 3, 3))
    d[0, 0] = [1.0, 0.0, 0.0]
    d[1, 1] = [c, s, 0.0]
    d[1, 2] = [-q.r2 * s, q.r2 * c, 0.0]
    return d


def body_velocities(q: ShapeCoordinates, omega, qdot):
    """Body-frame velocities of the two Jacobi vectors, from the body
    angular velocity omega and the shape rates qdot = (r1dot, r2dot, phidot)."""
    b1, b2 = body_jacobi_vectors(q)
    d = shape_partials(q)
    v1 = cross(omega, b1) + d[0].T @ qdot
    v2 = cross(omega, b2) + d[1].T @ qdot
    return v1, v2


def cartesian_from_body_state(masses, q: ShapeCoordinates, omega, qdot):
    """Cartesian realization of a body state with the body frame taken as
    the space frame at the evaluation instant.  Fed by velocities_from_momenta
    it keeps that function's loss of digits as r1/r2 falls."""
    b1, b2 = body_jacobi_vectors(q)
    v1, v2 = body_velocities(q, omega, qdot)
    return cartesian_from_jacobi(masses, b1, b2, v1, v2)


def kinetic_energy_body(q: ShapeCoordinates, omega, qdot) -> float:
    """Kinetic energy from the body decomposition:
    K = w^T I w / 2 + sum_mu (w^T a_mu) qdot^mu + h_{mu nu} qdot qdot / 2."""
    I = inertia_tensor(q)
    a = gauge_potential(q)
    h = shape_metric(q)
    return float(0.5 * omega @ I @ omega + (a @ omega) @ qdot + 0.5 * qdot @ h @ qdot)


def body_angular_momentum(q: ShapeCoordinates, omega, qdot) -> np.ndarray:
    """Body angular momentum J = I w + sum_mu a_mu qdot^mu."""
    return inertia_tensor(q) @ omega + gauge_potential(q).T @ qdot


def shape_momenta(q: ShapeCoordinates, omega, qdot):
    """The momenta (J, p) of the body state (omega, qdot): J of
    body_angular_momentum and the conjugate p_mu = g_{mu nu} qdot^nu +
    J . A_mu (equivalently h_{mu nu} qdot^nu + w . a_mu).  Raises
    SingularInertia at r2 = 0 and where horizontal_metric does."""
    if q.r2 == 0.0:
        raise SingularInertia("r2 = 0: the inertia tensor is singular")
    J = body_angular_momentum(q, omega, qdot)
    g, _ = horizontal_metric(q)
    return J, g @ qdot + mechanical_connection(q) @ J


def velocities_from_momenta(q: ShapeCoordinates, J, p):
    """Invert the Legendre map: recover (omega, qdot) from (J, p).

    Needs the full inertia inverse, so it raises SingularInertia at r2 = 0
    and near collinear shapes.  It loses digits as r1/r2 falls, I^-1 or not:
    omega3 = (J3 - p3)/r1^2 and qdot3 = p3/r2^2 - omega3 cancel in
    p3 = r2^2 (qdot3 + omega3), up to 8e-2 at r1 = 1e-7, r2 = 1.
    """
    I_inv = inertia_inverse(q)
    _, g_inv = horizontal_metric(q)
    qdot = g_inv @ (p - mechanical_connection(q) @ J)
    omega = I_inv @ (J - gauge_potential(q).T @ qdot)
    return omega, qdot
