"""Translation reduction, body-frame fitting and shape coordinates.

Conventions: the body frame is u1 along the first mass-weighted relative
vector, u2 the in-plane unit vector with nonnegative projection on the
second, u3 = u1 x u2 (right-handed); at collinear shapes, where that plane
is undefined, u2 follows the bending motion (see body_frames); no frame
rule moves the measured phi.  The rotation matrix R has the body axes as
columns, so body vectors b and space vectors s satisfy s = R b.

measure_shape and body_frames read each vector by component and write
every dot product, cross product and length as column arithmetic, with no
einsum and no (N, 3, 3) array.  The same code takes (N, 3) rows for N
states and 3-vectors for one, whose components are numpy scalars, so one
state costs numpy's scalar operations rather than an array call each, and
has the bits of its row in a batch.  There is one formula per quantity:
cross takes and returns component triples, and _length is every length,
rounded as np.cross and np.linalg.norm round.
"""

from dataclasses import dataclass, fields
from math import isfinite, nan, sqrt
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


def check_vector(name, value):
    """value as a new float array, which the caller's value does not share;
    raises ValueError naming it unless it is a 3-vector of finite real
    numbers (float() would take a bool or a str as a component)."""
    if np.iterable(value):
        value = [c if _finite_real(c) else nan for c in value]
    value = np.asarray(value, dtype=float)
    if value.shape != (3,) or np.count_nonzero(np.isfinite(value)) < 3:
        raise ValueError(f"{name} must be a finite 3-vector")
    return value


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
        # the numerators of reduced_masses, in floats: a subnormal one rounds
        # mu away from m1 m3 / (m1 + m3), and one that is 0 or inf makes mu so
        m1, m2, m3 = float(self.m1), float(self.m2), float(self.m3)
        for name, product in (("m1*m3", m1 * m3), ("m2*(m1 + m3)", m2 * (m1 + m3))):
            if not float_info.min <= product <= float_info.max:
                raise ValueError(f"{name} = {product!r} is outside the normal float range")

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
        for f in fields(self):
            object.__setattr__(self, f.name, check_vector(f.name, getattr(self, f.name)))

    @property
    def positions(self):
        return np.array([self.x1, self.x2, self.x3])

    @property
    def velocities(self):
        return np.array([self.v1, self.v2, self.v3])


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


def cross(a, b):
    """a x b of vectors given as component triples (three columns, numpy
    scalars or floats each), as a component triple, rounded as np.cross."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _length(a):
    """|a| of a vector given as a component triple, rounded as
    np.linalg.norm: sqrt((a0 a0 + a1 a1) + a2 a2)."""
    a0, a1, a2 = a
    return np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)


def measure_shape(s1, s2):
    """The shape of pairs of Jacobi vectors given as (N, 3) rows, or of one
    pair of 3-vectors: (r1, r2, normal, area, dot, phi) with normal =
    s1 x s2 as its three (N,) component columns, area = |s1 x s2|, dot =
    s1 . s2 = (x1 x2 + y1 y2) + z1 z2 and phi = atan2(area, dot), the others
    (N,), or numpy scalars for one pair.  Every measurement of phi from the
    vectors is this one; r1, r2, area and normal round as np.linalg.norm
    and np.cross do."""
    # a.T's rows are the components: three (N,) columns, or numpy scalars for
    # one 3-vector (a[..., k] would be a 0-d array, each operation a ufunc call)
    a, b = s1.T, s2.T
    normal = cross(a, b)
    area = _length(normal)
    dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    return _length(a), _length(b), normal, area, dot, np.arctan2(area, dot)


def body_frames(s1, s2, sd1, sd2, collinear_threshold=COLLINEAR_THRESHOLD):
    """Body frames and shape coordinates of N states, from (N, 3) arrays
    of Jacobi vectors and their rates, or of one state from four 3-vectors.

    u1 lies along s1.  Above collinear_threshold (on sin_phi =
    |s1 x s2|/(r1 r2)) u3 is the unit normal of the plane of s1 and s2.  At
    or below it u2 points along the bending rate sdot2 - sigma (r2/r1) sdot1
    (perpendicular part, sigma = sign(s1 . s2)), the limit of the
    normal-based frame along the motion; with no bending u2 is a fixed
    perpendicular of u1.  Returns (axes, r1, r2, phi, sin_phi, planar,
    degenerate): axes = (u1, u2, u3), each axis as its three component
    columns (frame_matrices stacks them), and the rest columns, numpy
    scalars for one state.  (r1, r2, phi) is measure_shape's on every row,
    whichever frame rule fits it, and planar marks the rows above the
    threshold.  degenerate marks the rows with r1 = 0 or r2 = 0 (None if
    none has), which have no frame: their axes and sin_phi are fitted to
    the stand-in s1 = e1, s2 = e2, so nothing divides by 0, and only their
    shape means anything.
    """
    # np.count_nonzero rather than ndarray.all/any, whose Python-level
    # wrappers cost more than the test on a few rows
    r1, r2, normal, area, dot, phi = measure_shape(s1, s2)
    fit_r1, fit_r2, degenerate = r1, r2, None
    zero = (r1 == 0.0) | (r2 == 0.0)
    if np.count_nonzero(zero):
        degenerate = zero
        s1 = np.where(degenerate[..., None], (1.0, 0.0, 0.0), s1)
        s2 = np.where(degenerate[..., None], (0.0, 1.0, 0.0), s2)
        fit_r1, fit_r2, normal, area, dot, _ = measure_shape(s1, s2)
    sin_phi = area / (fit_r1 * fit_r2)
    planar = sin_phi > collinear_threshold
    u1 = tuple(x / fit_r1 for x in s1.T)
    if np.count_nonzero(planar) < planar.size:
        # sigma r2 / r1, with sigma = +-1 from the mask: np.where costs
        # more than the arithmetic on one state
        k = ((dot >= 0.0) * 2.0 - 1.0) * fit_r2 / fit_r1
        rate = [x2 - k * x1 for x1, x2 in zip(sd1.T, sd2.T)]
        normal = tuple(np.where(planar, normal, cross(u1, rate)))
    # Crossing with u1 keeps u2 orthogonal to u1 to rounding, also when
    # normal is a nearly cancelling cross product of nearly parallel vectors.
    u2 = cross(normal, u1)
    n2 = _length(u2)
    still = n2 == 0.0
    if np.count_nonzero(still):
        # e_k x u1 for the first axis k along which |u1| is least
        x, y, z = (np.abs(c) for c in u1)
        first = (x <= y) & (x <= z)
        axis = (1.0 * first, 1.0 * (~first & (y <= z)), 1.0 * (~first & (y > z)))
        u2 = tuple(np.where(still, cross(axis, u1), u2))
        n2 = _length(u2)
    u2 = tuple(c / n2 for c in u2)
    return (u1, u2, cross(u1, u2)), r1, r2, phi, sin_phi, planar, degenerate


def frame_matrices(axes):
    """body_frames' axes as R^T, rows u1, u2, u3: (N, 3, 3) for N states,
    (3, 3) for one."""
    return np.moveaxis(np.array(axes), (0, 1), (-2, -1))


def body_jacobi_vectors(r1, r2, phi):
    """Jacobi vectors in the body frame, (r1, 0, 0) and (r2 cos phi, r2 sin
    phi, 0): (..., 3) arrays for (...) columns, 3-vectors for floats."""
    b1 = np.stack(np.broadcast_arrays(r1, 0.0, 0.0), -1)
    b2 = np.stack(np.broadcast_arrays(r2 * np.cos(phi), r2 * np.sin(phi), 0.0), -1)
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
    a, b = x2 - m.m3 / pair * d13, x2 + m.m1 / pair * d13
    return np.sqrt(a * a + y2 * y2), d13, np.sqrt(b * b + y2 * y2)
