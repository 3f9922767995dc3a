"""Translation reduction, body-frame fitting and shape coordinates.

Conventions: the body frame is u1 along the first mass-weighted relative
vector, u2 the in-plane unit vector with nonnegative projection on the
second, u3 = u1 x u2 (right-handed); at collinear shapes, where that plane
is undefined, u2 follows the bending motion (see body_frames); no frame
rule moves the measured phi.  The rotation matrix R has the body axes as
columns, so body vectors b and space vectors s satisfy s = R b.

jacobi_map, measure_shape, body_frames and hamiltonian's kernel are
written once, over component triples, and take their arithmetic from
what they are given (see arithmetic): an array, (N, 3) rows for N states
or one 3-vector, runs numpy on its (N,) columns (numpy scalars for one
3-vector), and a list of three floats runs Python floats, which round as
on its row.  Either way a state has the bits of its row in a batch.  The
two bindings, COLUMNS and FLOATS, hold the one rule for that, and an
expression's walk (potential._emit) binds them too.  A mask is a select
or a test of the binding, a branch on floats.  There is one formula per
quantity: cross takes and returns component triples, and _length is
every length, rounded as np.cross and np.linalg.norm round.
"""

from dataclasses import dataclass, fields
from math import isfinite, log, nan, sqrt
from numbers import Real
from sys import float_info
from types import SimpleNamespace

import numpy as np

COLLINEAR_THRESHOLD = 1e-8


def _on_float(ufunc, inside=None):
    """numpy's ufunc on floats, taken back as a float: the bits of its row.
    With `inside`, a test that is false where the ufunc would warn, it
    raises ValueError there instead."""
    if inside is None:
        return lambda *a: float(ufunc(*a))

    def call(a):
        if not inside(a):
            raise ValueError(f"{ufunc.__name__} of {a!r}")
        return float(ufunc(a))

    return call


def _power_rows(a, b):
    """np.power(a, b) of floats as on (1,) columns, where an exponent column
    takes numpy's pow, not its fast paths.  Raises ValueError unless a > 0,
    or a < 0 and b is an integer, and |b log|a|| < 700, where np.power
    neither warns nor overflows."""
    if not ((a > 0.0 or a < 0.0 and b.is_integer()) and abs(b * log(abs(a))) < 700.0):
        raise ValueError(f"power of {(a, b)!r}")
    return np.power(a, (b,)).item()


# np.power's fast paths at a scalar exponent (a 0-d array or a number)
_FAST_POWERS = {2.0: lambda a: a * a, 0.5: sqrt, 1.0: lambda a: a, -1.0: lambda a: 1.0 / a,
                0.0: lambda a: 1.0}


def _power(a, b):
    """np.power(a, b) of floats as at a scalar exponent b."""
    fast = _FAST_POWERS.get(b)
    return fast(a) if fast else _power_rows(a, b)


# The operations of the reduction kernel and of an expression's walk
# (potential._emit) other than + - * / and negation, on (N,) columns (or one
# 3-vector's numpy scalars) and on floats.  A float operation stands in for
# numpy's only where IEEE 754 fixes the bits (abs, math.sqrt); the others
# are numpy's ufunc on the float (libm's atan2, exp, log and pow round
# otherwise), raising ValueError where it would warn, so the caller takes
# the state's columns.  power is np.power at a scalar exponent, power_rows
# at an exponent column; where_rows selects (N, 3) rows by a row mask; a
# float list is finite where its sum is (where the sum overflows, the
# caller's exact test of the rows finds no value that is not finite).
COLUMNS = SimpleNamespace(
    components=lambda v: v.T, sqrt=np.sqrt, arctan2=np.arctan2, sin=np.sin, cos=np.cos,
    exp=np.exp, log=np.log, abs=np.abs, sign=np.sign, power=np.power, power_rows=np.power,
    zeros=np.zeros, where=np.where, where_rows=lambda mask, a, b: np.where(mask[..., None], a, b),
    any=np.count_nonzero, all=lambda mask: np.count_nonzero(mask) == np.size(mask),
    finite=lambda v: np.count_nonzero(np.isfinite(v)) == np.size(v),
    join=lambda vectors: np.concatenate(vectors, -1),
)
FLOATS = SimpleNamespace(
    components=lambda v: v, sqrt=sqrt, arctan2=_on_float(np.arctan2),
    sin=_on_float(np.sin, isfinite), cos=_on_float(np.cos, isfinite),
    exp=_on_float(np.exp, lambda a: a < 709.0), log=_on_float(np.log, lambda a: a > 0.0),
    abs=abs, sign=_on_float(np.sign), power=_power, power_rows=_power_rows,
    zeros=lambda dims: [0.0] * dims[0],
    where=lambda mask, a, b: a if mask else b, where_rows=lambda mask, a, b: a if mask else b,
    any=bool, all=bool, finite=lambda v: isfinite(sum(v) if isinstance(v, list) else v),
    join=lambda vectors: sum(vectors, []),
)


def arithmetic(v):
    """The binding of the kernel's operations for vectors like v: COLUMNS
    for an array, (N, 3) rows or one 3-vector, FLOATS for a list of three
    floats.  A float division by 0 raises ZeroDivisionError where numpy's
    is inf or NaN, and sin or cos ValueError where numpy's would warn; the
    caller then takes the state's numpy 3-vectors."""
    return COLUMNS if isinstance(v, np.ndarray) else FLOATS


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
    """value as a new read-only float array, which the caller's value does
    not share and no write can make non-finite after the check; raises
    ValueError naming it unless it is a 3-vector of finite real numbers
    (float() would take a bool or a str as a component)."""
    if np.iterable(value):
        value = [c if _finite_real(c) else nan for c in value]
    value = np.asarray(value, dtype=float)
    if value.shape != (3,) or np.count_nonzero(np.isfinite(value)) < 3:
        raise ValueError(f"{name} must be a finite 3-vector")
    value.flags.writeable = False
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
    each a 3-vector or an (N, 3) array of them, mapped elementwise, or a
    list of floats (three, or six for a vector and its rate), mapped
    component by component into lists.
    """
    mu1, mu2 = reduced_masses(m)
    # Python floats, so that a float's map stays on floats
    w1, w2, pair = sqrt(mu1), sqrt(mu2), float(m.m1 + m.m3)
    m1, m3 = float(m.m1), float(m.m3)

    def jacobi(x1, x2, x3):
        return w1 * (x1 - x3), w2 * (x2 - (m1 * x1 + m3 * x3) / pair)

    if isinstance(a1, np.ndarray):
        return jacobi(a1, a2, a3)
    return [list(s) for s in zip(*map(jacobi, a1, a2, a3))]


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


def _length(a, root):
    """|a| of a vector given as a component triple, rounded as
    np.linalg.norm: root((a0 a0 + a1 a1) + a2 a2), the binding's sqrt."""
    a0, a1, a2 = a
    return root(a0 * a0 + a1 * a1 + a2 * a2)


def measure_shape(s1, s2):
    """The shape of pairs of Jacobi vectors given as (N, 3) rows, or of one
    pair given as 3-vectors or as lists of three floats: (r1, r2, normal,
    area, dot, phi) with normal = s1 x s2 as its three component columns,
    area = |s1 x s2|, dot = s1 . s2 = (x1 x2 + y1 y2) + z1 z2 and phi =
    atan2(area, dot), the others (N,), or numpy scalars for one pair of
    3-vectors and floats for one of lists (see arithmetic).  Every
    measurement of phi from the vectors is this one; r1, r2, area and
    normal round as np.linalg.norm and np.cross do."""
    ops = arithmetic(s1)
    a, b = ops.components(s1), ops.components(s2)
    normal = cross(a, b)
    area = _length(normal, ops.sqrt)
    dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    return _length(a, ops.sqrt), _length(b, ops.sqrt), normal, area, dot, ops.arctan2(area, dot)


def body_frames(s1, s2, sd1, sd2, collinear_threshold=COLLINEAR_THRESHOLD):
    """Body frames and shape coordinates of N states, from (N, 3) arrays
    of Jacobi vectors and their rates, or of one state from four 3-vectors
    or four lists of three floats (see arithmetic).

    u1 lies along s1.  Above collinear_threshold (on sin_phi =
    |s1 x s2|/(r1 r2)) u3 is the unit normal of the plane of s1 and s2.  At
    or below it u2 points along the bending rate sdot2 - sigma (r2/r1) sdot1
    (perpendicular part, sigma = sign(s1 . s2)), the limit of the
    normal-based frame along the motion; with no bending u2 is a fixed
    perpendicular of u1.  Returns (axes, r1, r2, phi, sin_phi, planar,
    degenerate): axes = (u1, u2, u3), each axis as its three component
    columns (frame_matrices stacks them), and the rest columns, numpy
    scalars or floats for one state.  (r1, r2, phi) is measure_shape's on
    every row, whichever frame rule fits it, and planar marks the rows
    above the threshold.  degenerate marks the rows with r1 = 0 or r2 = 0
    (None if none has), which have no frame: their axes and sin_phi are
    fitted to the stand-in s1 = e1, s2 = e2, so nothing divides by 0, and
    only their shape means anything.
    """
    ops = arithmetic(s1)
    r1, r2, normal, area, dot, phi = measure_shape(s1, s2)
    fit_r1, fit_r2, degenerate = r1, r2, None
    zero = (r1 == 0.0) | (r2 == 0.0)
    if ops.any(zero):
        degenerate = zero
        s1 = ops.where_rows(degenerate, (1.0, 0.0, 0.0), s1)
        s2 = ops.where_rows(degenerate, (0.0, 1.0, 0.0), s2)
        fit_r1, fit_r2, normal, area, dot, _ = measure_shape(s1, s2)
    sin_phi = area / (fit_r1 * fit_r2)
    planar = sin_phi > collinear_threshold
    u1 = [x / fit_r1 for x in ops.components(s1)]
    if not ops.all(planar):
        # sigma r2 / r1, with sigma = sign(s1 . s2)
        k = ops.where(dot >= 0.0, fit_r2, -fit_r2) / fit_r1
        rate = [x2 - k * x1 for x1, x2 in zip(ops.components(sd1), ops.components(sd2))]
        normal = ops.where(planar, normal, cross(u1, rate))
    # Crossing with u1 keeps u2 orthogonal to u1 to rounding, also when
    # normal is a nearly cancelling cross product of nearly parallel vectors.
    u2 = cross(normal, u1)
    n2 = _length(u2, ops.sqrt)
    still = n2 == 0.0
    if ops.any(still):
        # e_k x u1 for the first axis k along which |u1| is least
        x, y, z = (abs(c) for c in u1)
        first = (x <= y) & (x <= z)
        axis = [1.0 * first, *(ops.where(first, 0.0, 1.0 * k) for k in (y <= z, y > z))]
        u2 = ops.where(still, cross(axis, u1), u2)
        n2 = _length(u2, ops.sqrt)
    u2 = [c / n2 for c in u2]
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
