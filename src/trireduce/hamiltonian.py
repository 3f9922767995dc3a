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

One kernel, _reduce_rows, serves both entry points.  Like body_frames it
reads vectors by component, so evaluate_reduced_batch passes (N, 3) Jacobi
rows and evaluate_reduced its state's four 3-vectors, which run the same
operations on numpy scalars and give the batch row's bits.
"""

from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .errors import DegenerateShape, NumericalBlowup
from .geometry import (
    COLLINEAR_THRESHOLD,
    CartesianState,
    MassTriple,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    check_vector,
    cross,
    jacobi_map,
)
from .potential import PotentialSpec, potential_at_positions
from .reduction import check_square, inertia_inverse

BRANCH_NONCOLLINEAR = "noncollinear"
BRANCH_COLLINEAR = "collinear"


@dataclass(frozen=True)
class ReducedEvaluation:
    """Result of evaluating the reduced Hamiltonian on one configuration:
    one row of a ReducedBatch, its fields named as the batch's columns, with
    H its H_reduced.

    branch names the body-frame rule that J and p are read in
    ("noncollinear" above the collinear threshold, "collinear" at or below
    it); the shape and sin_phi are measured; J and p are 3-vectors.
    """

    H: float
    branch: str
    r1: float
    r2: float
    phi: float
    J: np.ndarray
    p: np.ndarray
    singular_term: float
    sin_phi: float


def reduced_hamiltonian(r1, r2, phi, J, p, T, V):
    """The module docstring's H from the shape (r1, r2, phi), the momenta J
    and p, T = J1 / sin(phi) and V: (...) columns and (..., 3) momenta, or
    floats and 3-vectors for one state, complex ones too.  Raises
    DegenerateShape naming the divisor where r2^2, r1^2 or r1^2 r2^2 is 0 on
    any row, exactly or by underflow: T^2/b is 0/0 at r2 = 0, which is the
    Cartesian routes' to cover.  Raises NumericalBlowup naming the quantity
    where a square overflows, or where H is not finite."""
    a, b = check_square("r1", r1), check_square("r2", r2)
    (_, J2, J3), (p1, p2, p3) = np.moveaxis(J, -1, 0), np.moveaxis(p, -1, 0)
    # an overflow past the squares is an H that is not finite, named below
    with np.errstate(over="ignore", invalid="ignore"):
        ab = a * b
        if np.count_nonzero(ab) < np.size(ab):
            for name, divisor in (("r2^2", b), ("r1^2", a), ("r1^2 r2^2", ab)):
                if np.count_nonzero(divisor) < np.size(divisor):
                    raise DegenerateShape(f"{name} is 0: the reduced Hamiltonian divides by it")
        S = a + b
        quad = check_square("T", T) / b
        quad = quad + check_square("(J2 + cos(phi) T)", J2 + np.cos(phi) * T) / a
        quad = quad + check_square("J3", J3) / S + check_square("p1", p1) + check_square("p2", p2)
        H = 0.5 * (quad + S / ab * check_square("(p3 - b J3 / S)", p3 - b / S * J3)) + V
    if np.count_nonzero(np.isfinite(H)) < np.size(H):
        raise NumericalBlowup("H is not finite")
    return H


def singular_term(r1, r2, phi, omega):
    """The combination J1 / sin(phi) of the body angular velocity omega, in
    the form that stays finite for all phi: r2^2 w1 sin(phi) - r2^2 w2
    cos(phi).  Takes arrays as reduced_hamiltonian does; r1 does not enter.
    Raises NumericalBlowup where r2^2 overflows, and naming the product or
    the difference that is not finite on some row, before a numpy
    warning."""
    b = check_square("r2", r2)
    w1, w2, _ = np.moveaxis(omega, -1, 0)
    # an overflow past the square, named below
    with np.errstate(over="ignore", invalid="ignore"):
        first, second = b * w1 * np.sin(phi), b * w2 * np.cos(phi)
        T = first - second
    for name, value in (
        ("r2^2 w1 sin(phi)", first),
        ("r2^2 w2 cos(phi)", second),
        ("r2^2 w1 sin(phi) - r2^2 w2 cos(phi)", T),
    ):
        if np.count_nonzero(np.isfinite(value)) < np.size(value):
            raise NumericalBlowup(f"{name} overflows")
    return T


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
    NumericalBlowup when the Jacobi vectors, sin_phi or H overflow.
    """
    # one map for positions (row 0) and velocities (row 1); the state was
    # validated when it was built, so only an overflow of the map is new
    xv = np.array([[state.x1, state.x2, state.x3], [state.v1, state.v2, state.v3]])
    s1, s2 = jacobi_map(masses, xv[:, 0], xv[:, 1], xv[:, 2])
    r1, r2, phi, sin_phi, planar, degenerate, J, p, T, K = _reduce_rows(
        collinear_threshold, s1[0], s2[0], s1[1], s2[1]
    )
    if degenerate is not None:
        raise DegenerateShape.from_r1(r1)
    V = potential_at_positions(potential, masses, xv[0], (r1, r2, phi))
    H = float(K + V)
    if not isfinite(H):
        raise NumericalBlowup(f"H_reduced overflows ({H})")
    return ReducedEvaluation(
        H=H,
        branch=BRANCH_NONCOLLINEAR if planar else BRANCH_COLLINEAR,
        r1=float(r1), r2=float(r2), phi=float(phi), J=J, p=p,
        singular_term=float(T),
        sin_phi=float(sin_phi),
    )


def _reduce_rows(collinear_threshold, s1, s2, sd1, sd2):
    """The kernel of evaluate_reduced and evaluate_reduced_batch: shape,
    momenta and kinetic energy K of N states given as (N, 3) Jacobi rows,
    or of one state given as four 3-vectors, in body_frames' frames.
    Raises NumericalBlowup naming the first row whose Jacobi vectors, or
    then sin_phi, are not finite (row 0 for one state).

    With body velocities v1 = R^T sdot1, v2 = R^T sdot2 (each component
    the dot product of an axis with the rate, (x + y) + z) and
    q = cos(phi) v2[1] - sin(phi) v2[0]: T = r2 v2[2], J2 + cos(phi) T =
    -r1 v1[2], J3 = r1 v1[1] + r2 q and p3 = r2 q.  K is the module
    docstring's kinetic terms in these velocities, where only S divides (1
    on degenerate rows: S is 0 where all three bodies meet); they add up to
    (|v1|^2 + |v2|^2) / 2 under either frame rule.  Returns body_frames'
    (r1, r2, phi, sin_phi, planar, degenerate), J and p (N, 3), T and K
    (N,); for one state, numpy scalars and 3-vectors.
    """
    # one state's 12 components as row 0
    _require_finite("Jacobi vector", np.concatenate((s1, s2, sd1, sd2), -1).reshape(-1, 12))
    axes, r1, r2, phi, sin_phi, planar, degenerate = body_frames(
        s1, s2, sd1, sd2, collinear_threshold
    )
    # sin_phi is inf or NaN where |s1 x s2| overflows though the Jacobi
    # vectors do not, and phi reads pi/2 there; one state's is a numpy
    # scalar, which math.isfinite tests at a fraction of a ufunc's cost
    if not (isfinite(sin_phi) if sin_phi.ndim == 0 else np.isfinite(sin_phi).all()):
        _require_finite("sin_phi", np.reshape(sin_phi, -1))
    (v1x, v1y, v1z), (v2x, v2y, v2z) = (
        [u[0] * x + u[1] * y + u[2] * z for u in axes] for x, y, z in (sd1.T, sd2.T)
    )
    s, c = np.sin(phi), np.cos(phi)
    T = r2 * v2z
    q = c * v2y - s * v2x
    p3 = r2 * q
    J2 = -r1 * v1z - c * T
    J3 = r1 * v1y + p3
    p2 = c * v2x + s * v2y
    S = r1 * r1 + r2 * r2
    if degenerate is not None:
        S = np.where(degenerate, 1.0, S)
    w = r1 * q - r2 * v1y
    K = 0.5 * (v2z * v2z + v1z * v1z + (J3 * J3 + w * w) / S + v1x * v1x + p2 * p2)
    J = np.array((s * T, J2, J3)).T
    p = np.array((v1x, p2, p3)).T
    return r1, r2, phi, sin_phi, planar, degenerate, J, p, T, K


def cartesian_from_momenta(masses, r1, r2, phi, J, p) -> CartesianState:
    """The one state of shape (r1, r2, phi), floats, and momenta J and p, its
    body frame the space frame, by the inverse of _reduce_rows' map, which
    forms no omega or qdot (see reduction.velocities_from_momenta).  Raises
    ValueError where J or p is not a finite 3-vector (geometry.check_vector),
    SingularInertia where inertia_inverse does, NumericalBlowup where r1^2
    or r2^2 (reduction.check_square) or a velocity overflows."""
    J, p = check_vector("J", J), check_vector("p", p)
    inertia_inverse(r1, r2, phi)  # (J, p) fix the state only where I is invertible
    s, c = sin(phi), cos(phi)
    (J1, J2, J3), (p1, p2, p3) = J.tolist(), p.tolist()
    T, u = J1 / s, p3 / r2
    v = [p1, (J3 - p3) / r1, -(J2 + c * T) / r1, c * p2 - s * u, s * p2 + c * u, T / r2]
    if not all(map(isfinite, v)):
        raise NumericalBlowup("the body velocities of the shape overflow")
    v1, v2 = np.reshape(v, (2, 3))
    return cartesian_from_jacobi(masses, *body_jacobi_vectors(r1, r2, phi), v1, v2)


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
    """Raise NumericalBlowup naming the first row of values, an (N, ...)
    array, that is not all finite."""
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
    where the Jacobi vectors, sin_phi, E_total, L or (on a non-degenerate
    row) H_reduced are not finite.
    """
    s1, s2 = jacobi_map(masses, x[:, 0], x[:, 1], x[:, 2])
    sd1, sd2 = jacobi_map(masses, v[:, 0], v[:, 1], v[:, 2])
    r1, r2, phi, sin_phi, planar, degenerate, J, p, T, K = _reduce_rows(
        collinear_threshold, s1, s2, sd1, sd2
    )
    V = potential_at_positions(potential, masses, x, (r1, r2, phi))
    E = 0.5 * np.sum(masses.as_array()[:, None] * v ** 2, axis=(1, 2)) + V
    _require_finite("E_total", E)
    L = np.add(cross(s1.T, sd1.T), cross(s2.T, sd2.T)).T
    _require_finite("L", L)
    H = K + V
    _require_finite("H_reduced", H if degenerate is None else np.where(degenerate, 0.0, H))
    branch = np.where(planar, BRANCH_NONCOLLINEAR, BRANCH_COLLINEAR).astype(object)
    if degenerate is not None:
        # NaN where the frame, and so phi and the momenta, are undefined
        phi, sin_phi, T, H = np.where(degenerate, np.nan, (phi, sin_phi, T, H))
        J, p = np.where(degenerate[:, None], np.nan, (J, p))
        branch[degenerate] = "degenerate"
    return ReducedBatch(r1, r2, phi, sin_phi, J, p, T, H, E, L, branch)
