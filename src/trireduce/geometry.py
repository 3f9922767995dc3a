"""Translation reduction, body-frame fitting and shape coordinates.

Conventions: the body frame is u1 along the first mass-weighted relative
vector, u2 the in-plane unit vector with nonnegative projection on the
second, u3 = u1 x u2 (right-handed); at collinear shapes, where that plane
is undefined, u2 follows the bending motion (see body_frames).  The
rotation matrix R has the body axes as columns, so body vectors b and space
vectors s satisfy s = R b.
"""

from dataclasses import dataclass, fields
from math import cos, isfinite, nan, pi, sin, sqrt
from numbers import Real
from sys import float_info

import numpy as np

COLLINEAR_THRESHOLD = 1e-8


def _finite_real(value):
    """Whether value is a finite real number, not a bool.  An int is compared
    with the float range exactly, not rounded (float() would raise)."""
    if isinstance(value, int):
        return not isinstance(value, bool) and abs(value) <= float_info.max
    return isinstance(value, Real) and isfinite(value)


def check_number(path, value):
    """Raise ValueError unless value is a finite real number, not a bool."""
    if not _finite_real(value):
        raise ValueError(f"{path}: expected a finite number, got {value!r}")


def _finite_vectors(obj):
    """Store every field of the frozen dataclass obj as a float array;
    raises ValueError naming the first that is not a finite 3-vector of
    real numbers (float() would take a bool or a str as a component)."""
    for f in fields(obj):
        vec = getattr(obj, f.name)
        if not (type(vec) is np.ndarray and vec.dtype.char == "d"):
            if np.iterable(vec):
                vec = [c if _finite_real(c) else nan for c in vec]
            vec = np.asarray(vec, dtype=float)
        if vec.shape != (3,) or np.count_nonzero(np.isfinite(vec)) < 3:
            raise ValueError(f"{f.name} must be a finite 3-vector")
        object.__setattr__(obj, f.name, vec)


@dataclass(frozen=True)
class MassTriple:
    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        for name in ("m1", "m2", "m3"):
            m = getattr(self, name)
            check_number(name, m)
            if m <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {m}")

    @property
    def total(self):
        return self.m1 + self.m2 + self.m3

    def as_array(self):
        return np.array([self.m1, self.m2, self.m3])


@dataclass(frozen=True)
class CartesianState:
    """Positions and velocities of the three bodies in the space frame."""

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def __post_init__(self):
        _finite_vectors(self)

    @property
    def positions(self):
        return np.array([self.x1, self.x2, self.x3])

    @property
    def velocities(self):
        return np.array([self.v1, self.v2, self.v3])


@dataclass(frozen=True)
class ShapeCoordinates:
    """Internal coordinates: Jacobi lengths r1, r2 and the angle phi between
    the Jacobi vectors."""

    r1: float
    r2: float
    phi: float

    def __post_init__(self):
        for name in ("r1", "r2", "phi"):
            check_number(name, getattr(self, name))
        if self.r1 <= 0.0:
            raise ValueError(f"r1 must be > 0, got {self.r1}")
        if self.r2 < 0.0:
            raise ValueError(f"r2 must be >= 0, got {self.r2}")
        if not 0.0 <= self.phi <= pi:
            raise ValueError(f"phi out of [0, pi]: {self.phi}")


@dataclass(frozen=True)
class BodyVelocityState:
    """Body angular velocity and shape-coordinate rates (r1dot, r2dot, phidot)."""

    omega: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        _finite_vectors(self)


@dataclass(frozen=True)
class BodyMomenta:
    """Body angular momentum J and shape momenta p = (p1, p2, p3)."""

    J: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        _finite_vectors(self)


def reduced_masses(m: MassTriple):
    """Reduced masses (mu1, mu2) of the (1,3) pair and of body 2 against that pair."""
    return m.m1 * m.m3 / (m.m1 + m.m3), m.m2 * (m.m1 + m.m3) / m.total


def jacobi_map(m: MassTriple, a1, a2, a3):
    """Mass-weighted Jacobi vectors (s1, s2) of three body vectors.

    s1 spans bodies 1 and 3; s2 runs from their center of mass to body 2.
    The arguments are the bodies' positions (or velocities, for the rates),
    each a 3-vector or an (N, 3) array of them.
    """
    mu1, mu2 = reduced_masses(m)
    s1 = sqrt(mu1) * (a1 - a3)
    s2 = sqrt(mu2) * (a2 - (m.m1 * a1 + m.m3 * a3) / (m.m1 + m.m3))
    return s1, s2


def cartesian_from_jacobi(m: MassTriple, s1, s2, sd1, sd2) -> CartesianState:
    """Invert the Jacobi map of one state, its 3-vectors in body_frames'
    order, with the center of mass (and its velocity) at the origin.
    Raises ValueError where CartesianState does."""
    mu1, mu2 = reduced_masses(m)
    w1, w2 = np.sqrt(mu1), np.sqrt(mu2)
    pair = m.m1 + m.m3
    M = m.total

    def _unmap(s1, s2):
        # x2 - c13 = s2/w2 with c13 the pair center of mass; total CM at 0.
        rel13 = s1 / w1
        rel2 = s2 / w2
        c13 = -m.m2 / M * rel2
        x2 = c13 + rel2
        x1 = c13 + m.m3 / pair * rel13
        x3 = c13 - m.m1 / pair * rel13
        return x1, x2, x3

    return CartesianState(*_unmap(s1, s2), *_unmap(sd1, sd2))


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross(a, b):
    """a x b for (..., 3) arrays, rounded as np.cross, without its axis
    handling (which costs more than the product on a few rows)."""
    return a.take(_NEXT, -1) * b.take(_LAST, -1) - a.take(_LAST, -1) * b.take(_NEXT, -1)


def lengths(a):
    """np.linalg.norm(a, axis=-1), to the bit, without its wrapper."""
    return np.sqrt(np.add.reduce(a * a, -1))


def measure_shape(s1, s2):
    """The shape of N pairs of Jacobi vectors given as (N, 3) rows:
    (r1, r2, normal, area, dot, phi) with normal = s1 x s2 (N, 3), area =
    |s1 x s2|, dot = s1 . s2 and phi = atan2(area, dot), the others (N,).
    Every measurement of phi from the vectors is this one."""
    normal = cross(s1, s2)
    area = lengths(normal)
    dot = np.einsum("ij,ij->i", s1, s2)
    return lengths(s1), lengths(s2), normal, area, dot, np.arctan2(area, dot)


def body_frames(s1, s2, sd1, sd2, collinear_threshold=COLLINEAR_THRESHOLD):
    """Body frames and shape coordinates of N states, from (N, 3) arrays
    of Jacobi vectors and their rates.

    u1 lies along s1.  Above collinear_threshold (on sin_phi =
    |s1 x s2|/(r1 r2)) u3 is the unit normal of the plane of s1 and s2.  At
    or below it phi is 0 or pi and u2 points along the bending rate
    sdot2 - sigma (r2/r1) sdot1 (perpendicular part, sigma = sign(s1 . s2)),
    the limit of the normal-based frame along the motion; with no bending
    u2 is a fixed perpendicular of u1.  Returns (axes, r1, r2, phi,
    measured, sin_phi, planar, degenerate): axes[k] is R^T of state k (rows
    u1, u2, u3), phi is the angle of that frame rule, measured is (r1, r2,
    phi) of measure_shape, phi not snapped to 0 or pi, and planar marks the
    rows above the threshold.  degenerate marks the rows with r1 = 0 or
    r2 = 0 (None if none has), which have no frame: they are fitted to the
    stand-in s1 = e1, s2 = e2, so nothing divides by 0, and only their
    measured shape means anything.
    """
    # np.count_nonzero rather than ndarray.all/any, whose Python-level
    # wrappers cost more than the test on a few rows
    n = len(s1)
    r1, r2, normal, area, dot, measured_phi = measure_shape(s1, s2)
    measured, degenerate = (r1, r2, measured_phi), None
    if np.count_nonzero(r1) + np.count_nonzero(r2) < 2 * n:
        degenerate = (r1 == 0.0) | (r2 == 0.0)
        s1, s2 = np.where(degenerate[:, None], np.eye(3)[:2, None], (s1, s2))
        r1, r2, normal, area, dot, _ = measure_shape(s1, s2)
    sin_phi = area / (r1 * r2)
    planar = sin_phi > collinear_threshold
    phi = measured_phi
    u1 = s1 / r1[:, None]
    if np.count_nonzero(planar) < n:
        sigma = np.where(dot >= 0.0, 1.0, -1.0)
        phi = np.where(planar, measured_phi, np.where(sigma > 0.0, 0.0, pi))
        bending = cross(u1, sd2 - (sigma * r2 / r1)[:, None] * sd1)
        normal = np.where(planar[:, None], normal, bending)
    # Crossing with u1 keeps u2 orthogonal to u1 to rounding, also when
    # normal is a nearly cancelling cross product of nearly parallel vectors.
    u2 = cross(normal, u1)
    n2 = lengths(u2)
    still = n2 == 0.0
    if np.count_nonzero(still):
        axis = np.eye(3)[np.argmin(np.abs(u1[still]), axis=1)]
        u2[still] = cross(axis, u1[still])
        n2[still] = lengths(u2[still])
    u2 = u2 / n2[:, None]
    axes = np.array([u1, u2, cross(u1, u2)]).transpose(1, 0, 2)
    return axes, r1, r2, phi, measured, sin_phi, planar, degenerate


def body_jacobi_vectors(q: ShapeCoordinates):
    """Jacobi vectors in the body frame: (r1, 0, 0) and (r2 cos phi, r2 sin phi, 0)."""
    b1 = np.array([q.r1, 0.0, 0.0])
    b2 = np.array([q.r2 * cos(q.phi), q.r2 * sin(q.phi), 0.0])
    return b1, b2


def shape_to_distances(m: MassTriple, r1, r2, phi):
    """Interparticle distances (d12, d13, d23) of the shape (r1, r2, phi).

    The arguments may be floats or arrays of one shape.  In the body frame
    x1 - x3 = (r1, 0, 0) / sqrt(mu1) and body 2 sits at
    (r2 cos phi, r2 sin phi, 0) / sqrt(mu2) from the 1-3 center of mass.
    """
    mu1, mu2 = reduced_masses(m)
    pair = m.m1 + m.m3
    d13 = r1 / sqrt(mu1)
    x2 = r2 * np.cos(phi) / sqrt(mu2)
    y2 = r2 * np.sin(phi) / sqrt(mu2)
    d12 = np.sqrt((x2 - m.m3 / pair * d13) ** 2 + y2 ** 2)
    d23 = np.sqrt((x2 + m.m1 / pair * d13) ** 2 + y2 ** 2)
    return d12, d13, d23
