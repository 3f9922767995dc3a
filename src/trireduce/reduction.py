"""Shape-dependent tensors of the rotational reduction.

All tensors are expressed in the body frame fixed by the shape: the first
Jacobi vector along axis 1, the second in the 1-2 plane.  Closed forms are
used throughout; generic matrix inversion is avoided so that the quantities
that stay finite at collinear shapes (the connection, the horizontal
metric) are computed without spurious blowup.

Every function takes the shape as columns r1, r2 and phi, floats for one
state or arrays of one shape (...), and vectors omega, qdot, J and p as
(..., 3); it returns (..., 3, 3) tensors and (..., 3) vectors.  A batch's
row has the bits of that row's call: products are one matmul per row, and
squares r * r.  The columns are not checked but for their squares: phi
takes either sign, and where r1^2 or r2^2 overflows, NumericalBlowup names
the square (see check_square, the one checked square, which
hamiltonian.reduced_hamiltonian takes too).  On a row where a tensor does
not exist, SingularInertia names the quantity that is 0 there, or the
inverse that is not finite.
"""

from math import sqrt
from sys import float_info

import numpy as np

from .errors import NumericalBlowup, SingularInertia
from .geometry import body_jacobi_vectors

SINGULAR_THRESHOLD = 1e-8

_ROOT_MAX = sqrt(float_info.max)


def check_square(name, x):
    """x * x for x a float, a complex number or an array; raises
    NumericalBlowup naming x where |x|^2 is past the float range on some
    row, before a float's inf or OverflowError or an array's
    RuntimeWarning.  The one checked square, of this module and of
    hamiltonian.reduced_hamiltonian.  _ROOT_MAX is the largest float whose
    square is finite."""
    if np.count_nonzero(np.abs(x) > _ROOT_MAX):
        raise NumericalBlowup(f"{name}^2 overflows")
    return x * x


def _tensor(shape, *entries):
    """The (..., *shape) array of entries in C order, each a float or (...) column."""
    t = np.stack(np.broadcast_arrays(*entries), -1)
    return t.reshape(t.shape[:-1] + shape)


def _corner(x, diagonal=0.0):
    """diag(diagonal, diagonal, x) as a (..., 3, 3) tensor."""
    return _tensor((3, 3), diagonal, 0.0, 0.0, 0.0, diagonal, 0.0, 0.0, 0.0, x)


def _apply(M, v):
    """M @ v for (..., 3, 3) M and (..., 3) v."""
    return (M @ v[..., None])[..., 0]


def _require(ok, message):
    """Raise SingularInertia(message) unless ok, a value or a mask, is
    nonzero on every row."""
    if np.count_nonzero(ok) < np.size(ok):
        raise SingularInertia(message)


def _larger(r1, r2, rows):
    """The larger of |r1| and |r2| on the rows where the mask `rows` is set
    and 1.0 elsewhere: the divisor that takes a sum or product of squares
    that leaves the float range on those rows inside it, and leaves the
    other rows' bits."""
    return np.where(rows, np.maximum(np.abs(r1), np.abs(r2)), 1.0)


def inertia_tensor(r1, r2, phi):
    """Moment of inertia tensor of the shape in the body frame.  Raises
    NumericalBlowup naming the entry, I22 or I33, whose sum of squares
    overflows on some row."""
    s, c = np.sin(phi), np.cos(phi)
    a, b = check_square("r1", r1), check_square("r2", r2)
    with np.errstate(over="ignore"):  # named below
        I22, I33 = a + b * c * c, a + b
    for name, sum_ in (("I22 = r1^2 + r2^2 cos^2 phi", I22), ("I33 = r1^2 + r2^2", I33)):
        if np.count_nonzero(sum_ == np.inf):
            raise NumericalBlowup(f"inertia tensor entry {name} overflows")
    return _tensor((3, 3), b * s * s, -b * s * c, 0.0, -b * s * c, I22, 0.0, 0.0, 0.0, I33)


def inertia_inverse(r1, r2, phi):
    """Closed-form inverse of the inertia tensor.  Singular at collinear
    shapes: raises SingularInertia when r2 = 0, r1 = 0, |sin phi| <=
    SINGULAR_THRESHOLD, r1^2 r2^2 sin^2 phi underflows to 0 or an entry is
    not finite (a subnormal divisor overflows it) on some row.  Where
    r1^2 r2^2 sin^2 phi overflows, the inverse is taken on r1, r2 over the
    larger of the two (see _larger), over that larger squared."""
    _require(r2, "r2 = 0: the inertia tensor is singular")
    _require(r1, "r1 = 0: the inertia tensor is singular")
    s, c = np.sin(phi), np.cos(phi)
    near = np.abs(s) <= SINGULAR_THRESHOLD
    if np.count_nonzero(near):
        at = np.extract(near, np.abs(s))[0]
        raise SingularInertia(f"|sin phi| = {at:.3e} at or below {SINGULAR_THRESHOLD:.3e}")
    a, b = check_square("r1", r1), check_square("r2", r2)
    with np.errstate(over="ignore"):  # det overflows: rescale (by 1.0, exact, elsewhere)
        larger = _larger(r1, r2, a * b * s * s == np.inf)
    r1, r2 = r1 / larger, r2 / larger
    a, b = r1 * r1, r2 * r2
    det = a * b * s * s
    _require(det, "r1^2 r2^2 sin^2 phi underflows to 0: the inertia tensor is singular")
    with np.errstate(over="ignore", divide="ignore"):  # a subnormal divisor, named below
        off = c / (a * s)
        I_inv = _tensor(
            (3, 3), (a + b * c * c) / det, off, 0.0, off, 1.0 / a, 0.0, 0.0, 0.0, 1.0 / (a + b)
        ) / (larger * larger)[..., None, None]
    _require(np.isfinite(I_inv), "I^-1 is not finite: the inertia tensor is singular")
    return I_inv


def gauge_potential(r1, r2, phi):
    """Gauge one-form a_mu (rows a_r1, a_r2, a_phi); only a_phi = (0, 0, r2^2)
    is nonzero."""
    return _corner(check_square("r2", r2))


def mechanical_connection(r1, r2, phi):
    """Connection A_mu = I^{-1} a_mu, in closed form: A33 = r2^2 / (r1^2 + r2^2).

    Finite for all phi: a_phi lies along the axis on which the inertia
    tensor never degenerates.  Where both squares underflow or their sum
    overflows, A33 is taken on r1, r2 over the larger of the two (see
    _larger); SingularInertia where r1 = r2 = 0.
    """
    with np.errstate(over="ignore"):  # rescaled below
        S = check_square("r1", r1) + check_square("r2", r2)
    out = (S == 0.0) | (S == np.inf)  # the ratio need not leave the range
    if np.count_nonzero(out):
        larger = _larger(r1, r2, out)
        _require(larger, "r1 = r2 = 0: the mechanical connection is undefined")
        r1, r2 = r1 / larger, r2 / larger
    return _corner(r2 * r2 / (r1 * r1 + r2 * r2))


def horizontal_metric(r1, r2, phi):
    """Horizontal (rotation-subtracted) shape metric g and its inverse;
    raises SingularInertia where r2 = 0 or r1 = 0, at which g33 = 0, and
    where g33 underflows or 1/g33 is not finite, on some row.  g33 =
    r1^2 r2^2 / (r1^2 + r2^2) is taken on r1, r2 over the larger of the two
    (see _larger), times that larger twice, where r1^2 r2^2 underflows
    to 0 or overflows."""
    _require(r2, "r2 = 0: the horizontal metric is singular")
    _require(r1, "r1 = 0: the horizontal metric is singular")
    a, b = check_square("r1", r1), check_square("r2", r2)
    with np.errstate(over="ignore"):  # rescaled below
        product = a * b
    out = (product == 0.0) | (product == np.inf)
    larger = 1.0
    if np.count_nonzero(out):  # then r1^2 + r2^2 >= 1 on those rows: no 0/0
        larger = _larger(r1, r2, out)
        r1, r2 = r1 / larger, r2 / larger
        a, b = r1 * r1, r2 * r2
        product = a * b
    g33 = product / (a + b) * larger * larger
    _require(g33, "g33 underflows to 0: the horizontal metric is singular")
    with np.errstate(over="ignore"):  # a subnormal g33, named below
        g_inv = _corner(1.0 / g33, 1.0)
    _require(np.isfinite(g_inv), "1/g33 is not finite: the horizontal metric is singular")
    return _corner(g33, 1.0), g_inv


def shape_partials(r1, r2, phi):
    """Partial derivatives of the body Jacobi vectors with respect to
    (r1, r2, phi); shape (..., 2, 3, 3): [..., vector, coordinate, component]."""
    s, c = np.sin(phi), np.cos(phi)
    return _tensor(
        (2, 3, 3),
        1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, c, s, 0.0, -r2 * s, r2 * c, 0.0,
    )


def body_velocities(r1, r2, phi, omega, qdot):
    """Body-frame velocities of the two Jacobi vectors, from the body
    angular velocity omega and the shape rates qdot = (r1dot, r2dot, phidot)."""
    b1, b2 = body_jacobi_vectors(r1, r2, phi)
    d = np.swapaxes(shape_partials(r1, r2, phi), -1, -2)  # [..., vector, component, coordinate]
    v1 = np.cross(omega, b1) + _apply(d[..., 0, :, :], qdot)
    v2 = np.cross(omega, b2) + _apply(d[..., 1, :, :], qdot)
    return v1, v2


def kinetic_energy_body(r1, r2, phi, omega, qdot):
    """Kinetic energy from the body decomposition:
    K = w^T I w / 2 + sum_mu (w^T a_mu) qdot^mu + h_{mu nu} qdot qdot / 2,
    with h = diag(1, 1, r2^2) the metric of the shape coordinates."""
    I, a, h = inertia_tensor(r1, r2, phi), gauge_potential(r1, r2, phi), _corner(r2 * r2, 1.0)
    w, q = omega[..., None], qdot[..., None]  # 3 x 1 columns
    wt, qt = omega[..., None, :], qdot[..., None, :]  # and 1 x 3 rows
    K = 0.5 * wt @ I @ w + _apply(a, omega)[..., None, :] @ q + 0.5 * qt @ h @ q
    return K[..., 0, 0]


def body_angular_momentum(r1, r2, phi, omega, qdot):
    """Body angular momentum J = I w + sum_mu a_mu qdot^mu, where the sum is
    a @ qdot: gauge_potential is symmetric."""
    return _apply(inertia_tensor(r1, r2, phi), omega) + _apply(gauge_potential(r1, r2, phi), qdot)


def shape_momenta(r1, r2, phi, omega, qdot):
    """The momenta (J, p) of the body state (omega, qdot): J of
    body_angular_momentum and the conjugate p_mu = g_{mu nu} qdot^nu +
    J . A_mu (equivalently h_{mu nu} qdot^nu + w . a_mu).  Raises
    SingularInertia at r2 = 0 and where horizontal_metric does."""
    _require(r2, "r2 = 0: the inertia tensor is singular")
    J = body_angular_momentum(r1, r2, phi, omega, qdot)
    g, _ = horizontal_metric(r1, r2, phi)
    return J, _apply(g, qdot) + _apply(mechanical_connection(r1, r2, phi), J)


def velocities_from_momenta(r1, r2, phi, J, p):
    """Invert the Legendre map: recover (omega, qdot) from (J, p).

    Needs the full inertia inverse, so it raises SingularInertia where
    inertia_inverse does: at r2 = 0 and near collinear shapes.  It loses
    digits as r1/r2 falls, I^-1 or not: omega3 = (J3 - p3)/r1^2 and
    qdot3 = p3/r2^2 - omega3 cancel in p3 = r2^2 (qdot3 + omega3), up to
    8e-2 at r1 = 1e-7, r2 = 1.
    """
    I_inv = inertia_inverse(r1, r2, phi)
    _, g_inv = horizontal_metric(r1, r2, phi)
    qdot = _apply(g_inv, p - _apply(mechanical_connection(r1, r2, phi), J))
    omega = _apply(I_inv, J - _apply(gauge_potential(r1, r2, phi), qdot))
    return omega, qdot
