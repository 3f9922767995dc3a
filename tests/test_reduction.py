from math import pi, sqrt

import numpy as np
import pytest

from trireduce.checks import brute_gauge, brute_inertia, random_rotation
from trireduce.errors import NumericalBlowup, SingularInertia
from trireduce.geometry import (
    MassTriple,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    frame_matrices,
)
from trireduce import reduction
from trireduce.reduction import (
    body_angular_momentum,
    body_velocities,
    gauge_potential,
    horizontal_metric,
    inertia_inverse,
    inertia_tensor,
    kinetic_energy_body,
    mechanical_connection,
    shape_momenta,
    shape_partials,
    velocities_from_momenta,
)

RNG = np.random.default_rng(11)


def random_shape(phi_min=0.05):
    """A seeded shape (r1, r2, phi) of floats."""
    return RNG.uniform(0.3, 2.0), RNG.uniform(0.3, 2.0), RNG.uniform(phi_min, pi - phi_min)


def random_velocity():
    """A random body state (omega, qdot)."""
    return RNG.normal(size=3), RNG.normal(size=3)


class TestInertiaTensor:
    def test_right_angle_unit_lengths(self):
        I = inertia_tensor(1, 1, pi / 2)
        assert np.allclose(I, np.diag([1.0, 1.0, 2.0]), atol=1e-15)

    def test_documented_shape(self):
        I = inertia_tensor(sqrt(2), sqrt(2.0 / 3.0), pi / 2)
        assert np.allclose(I, np.diag([2.0 / 3.0, 2.0, 8.0 / 3.0]), atol=1e-14)

    def test_matches_cross_product_assembly(self):
        for _ in range(200):
            q = random_shape(phi_min=0.0)
            assert np.max(np.abs(inertia_tensor(*q) - brute_inertia(q))) < 1e-12


class TestInertiaInverse:
    def test_diagonal_case(self):
        I_inv = inertia_inverse(1, 1, pi / 2)
        assert np.allclose(I_inv, np.diag([1.0, 1.0, 0.5]), atol=1e-15)

    def test_product_is_identity(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            prod = inertia_tensor(*q) @ inertia_inverse(*q)
            assert np.max(np.abs(prod - np.eye(3))) < 1e-10

    def test_singular_at_collinear(self):
        with pytest.raises(SingularInertia):
            inertia_inverse(1.0, 1.0, 1e-12)

    @pytest.mark.parametrize("phi", [1e-12, -1e-12, pi])
    def test_singular_row_of_a_column_is_named(self, phi):
        # the message gives |sin phi| of the singular row, not of row 0
        at = f"{abs(np.sin(phi)):.3e}"
        with pytest.raises(SingularInertia, match=rf"^\|sin phi\| = {at} at or below 1\.000e-08$"):
            inertia_inverse(*with_row((1.0, 1.0, phi)))

    def test_band_is_computable(self):
        # inside the reduced-precision band the inverse still exists
        q = (1.0, 1.0, 1e-5)
        prod = inertia_tensor(*q) @ inertia_inverse(*q)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-4


class TestGaugeAndConnection:
    def test_gauge_values(self):
        q = (1.3, 2.0, 0.7)
        a = gauge_potential(*q)
        assert np.allclose(a[0], 0) and np.allclose(a[1], 0)
        assert np.allclose(a[2], [0, 0, 4.0])

    def test_gauge_matches_finite_differences(self):
        h = 1e-6
        for _ in range(50):
            q = random_shape()
            coords = np.array(q)
            a_fd = np.zeros((3, 3))
            for mu in range(3):
                cp, cm = coords.copy(), coords.copy()
                cp[mu] += h
                cm[mu] -= h
                bp = np.array(body_jacobi_vectors(*cp))
                bm = np.array(body_jacobi_vectors(*cm))
                d = (bp - bm) / (2 * h)
                b = np.array(body_jacobi_vectors(*q))
                a_fd[mu] = np.cross(b[0], d[0]) + np.cross(b[1], d[1])
            assert np.max(np.abs(gauge_potential(*q) - a_fd)) < 1e-8

    def test_connection_symmetric_shape(self):
        A = mechanical_connection(1.7, 1.7, 0.4)
        assert np.allclose(A[2], [0, 0, 0.5], atol=1e-15)

    def test_connection_values(self):
        A = mechanical_connection(1.0, 2.0, 0.4)
        assert np.allclose(A[2], [0, 0, 4.0 / 5.0], atol=1e-15)

    @pytest.mark.parametrize(
        "r1, r2, a33", [(1e-170, 1e-170, 0.5), (3e-170, 4e-170, 0.64), (1e-170, 0.0, 0.0)]
    )
    def test_connection_where_both_squares_underflow(self, r1, r2, a33):
        # r1^2 + r2^2 is 0: A33 = r2^2 / (r1^2 + r2^2) comes from the ratio
        A = mechanical_connection(r1, r2, 1.0)
        assert abs(A[2, 2] - a33) <= 1e-15
        assert np.count_nonzero(A) == (a33 != 0.0)

    def test_connection_matches_inverse_times_gauge(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            expected = (inertia_inverse(*q) @ gauge_potential(*q).T).T
            assert np.max(np.abs(mechanical_connection(*q) - expected)) < 1e-10


class TestHorizontalMetric:
    def test_unit_shape(self):
        g, g_inv = horizontal_metric(1, 1, 1.0)
        assert g[2, 2] == pytest.approx(0.5, abs=1e-15)
        assert g_inv[2, 2] == pytest.approx(2.0, abs=1e-15)

    def test_small_r2_limit(self):
        for r2 in (1e-2, 1e-4):
            g, _ = horizontal_metric(1.0, r2, 1.0)
            assert g[2, 2] == pytest.approx(r2 ** 2, rel=1e-3)

    def test_defining_formula(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            I = inertia_tensor(*q)
            A = mechanical_connection(*q)
            h = np.diag([1.0, 1.0, q[1] ** 2])
            g, g_inv = horizontal_metric(*q)
            assert np.max(np.abs(g - (h - A @ I @ A.T))) < 1e-10
            assert np.max(np.abs(g @ g_inv - np.eye(3))) < 1e-12
            assert g[0, 0] == 1.0 and g[1, 1] == 1.0


class TestBodyVelocities:
    def test_pure_stretch(self):
        q = (1.0, 1.0, 1.0)
        v1, v2 = body_velocities(*q, np.zeros(3), np.array([1.0, 0, 0]))
        assert np.allclose(v1, [1, 0, 0]) and np.allclose(v2, 0)

    def test_rigid_spin(self):
        q = (1.0, 1.0, pi / 2)
        v1, v2 = body_velocities(*q, np.array([0.0, 0, 1.0]), np.zeros(3))
        assert np.allclose(v1, [0, 1, 0], atol=1e-15)
        assert np.allclose(v2, [-1, 0, 0], atol=1e-15)

    def test_matches_frame_fit_along_synthetic_states(self):
        # realize (*q, w) as Jacobi data in a rotated frame and compare
        # R^T sdot against the body decomposition
        for _ in range(50):
            q = random_shape()
            w = random_velocity()
            Q = random_rotation(RNG)
            b1, b2 = body_jacobi_vectors(*q)
            v1, v2 = body_velocities(*q, *w)
            s1, s2, sd1, sd2 = Q @ b1, Q @ b2, Q @ v1, Q @ v2
            R = frame_matrices(body_frames(s1, s2, sd1, sd2)[0]).T
            assert np.allclose(R.T @ sd1, v1, atol=1e-12)
            assert np.allclose(R.T @ sd2, v2, atol=1e-12)


class TestKineticEnergy:
    def test_pure_shape_motion(self):
        q = (1.0, 1.0, 0.9)
        K = kinetic_energy_body(*q, np.zeros(3), np.array([1.0, 1.0, 0]))
        assert K == pytest.approx(1.0, abs=1e-15)

    def test_documented_value(self):
        q = (1.0, 1.0, pi / 2)
        w = np.array([0.0, 0, 1.0]), np.array([0.0, 0, 1.0])
        assert kinetic_energy_body(*q, *w) == pytest.approx(2.5, abs=1e-14)

    def test_equals_half_sum_of_squared_body_velocities(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            w = random_velocity()
            v1, v2 = body_velocities(*q, *w)
            K_direct = 0.5 * (v1 @ v1 + v2 @ v2)
            assert kinetic_energy_body(*q, *w) == pytest.approx(K_direct, abs=1e-12)

    def test_compact_form(self):
        for _ in range(100):
            q = random_shape(phi_min=0.01)
            w = random_velocity()
            I = inertia_tensor(*q)
            A = mechanical_connection(*q)
            g, _ = horizontal_metric(*q)
            omega, qdot = w
            shifted = omega + A.T @ qdot
            K_compact = 0.5 * shifted @ I @ shifted + 0.5 * qdot @ g @ qdot
            assert kinetic_energy_body(*q, *w) == pytest.approx(K_compact, abs=1e-12)

    def test_triple_equality_with_cartesian(self):
        masses = MassTriple(1.0, 2.0, 0.7)
        for _ in range(50):
            q = random_shape()
            w = random_velocity()
            Q = random_rotation(RNG)
            b1, b2 = body_jacobi_vectors(*q)
            v1, v2 = body_velocities(*q, *w)
            s1, s2, sd1, sd2 = Q @ b1, Q @ b2, Q @ v1, Q @ v2
            state = cartesian_from_jacobi(masses, s1, s2, sd1, sd2)
            K_cart = 0.5 * float(
                np.sum(masses.as_array()[:, None] * state.velocities ** 2)
            )
            K_jac = 0.5 * (sd1 @ sd1 + sd2 @ sd2)
            K_body = kinetic_energy_body(*q, *w)
            assert K_cart == pytest.approx(K_body, abs=1e-10)
            assert K_jac == pytest.approx(K_body, abs=1e-10)


class TestBodyAngularMomentum:
    def test_gauge_contribution_only(self):
        q = (2.0, 1.0, 0.8)
        J = body_angular_momentum(*q, np.zeros(3), np.array([0.0, 0, 1.0]))
        assert np.allclose(J, [0, 0, 1.0], atol=1e-15)

    def test_rigid_spin(self):
        q = (1.0, 1.0, pi / 2)
        J = body_angular_momentum(*q, np.array([0.0, 0, 1.0]), np.zeros(3))
        assert np.allclose(J, [0, 0, 2.0], atol=1e-15)

    def test_cross_product_form(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            w = random_velocity()
            b1, b2 = body_jacobi_vectors(*q)
            v1, v2 = body_velocities(*q, *w)
            J_direct = np.cross(b1, v1) + np.cross(b2, v2)
            assert np.allclose(body_angular_momentum(*q, *w), J_direct, atol=1e-12)

    def test_equals_rotated_spatial_angular_momentum(self):
        for _ in range(50):
            q = random_shape()
            w = random_velocity()
            Q = random_rotation(RNG)
            b1, b2 = body_jacobi_vectors(*q)
            v1, v2 = body_velocities(*q, *w)
            s1, s2, sd1, sd2 = Q @ b1, Q @ b2, Q @ v1, Q @ v2
            R = frame_matrices(body_frames(s1, s2, sd1, sd2)[0]).T
            L = np.cross(s1, sd1) + np.cross(s2, sd2)
            assert np.allclose(body_angular_momentum(*q, *w), R.T @ L, atol=1e-10)


class TestShapeMomenta:
    def test_pure_stretch(self):
        q = (1.0, 1.0, 0.7)
        J, p = shape_momenta(*q, np.zeros(3), np.array([1.0, 0, 0]))
        assert np.allclose(p, [1, 0, 0], atol=1e-15)
        assert np.allclose(J, 0, atol=1e-15)

    def test_documented_p3(self):
        for w3, v in [(0.5, 1.5), (-1.0, 2.0)]:
            q = (1.0, 1.0, pi / 2)
            _, p = shape_momenta(*q, np.array([0.0, 0, w3]), np.array([0.0, 0, v]))
            assert p[2] == pytest.approx(w3 + v, abs=1e-14)

    def test_two_forms_agree(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            omega, qdot = random_velocity()
            _, p = shape_momenta(*q, omega, qdot)
            h = np.diag([1.0, 1.0, q[1] ** 2])
            p_h = h @ qdot + gauge_potential(*q) @ omega
            assert np.allclose(p, p_h, atol=1e-12)


class TestVelocitiesFromMomenta:
    def test_round_trip(self):
        for _ in range(100):
            q = random_shape()
            omega, qdot = random_velocity()
            back_omega, back_qdot = velocities_from_momenta(*q, *shape_momenta(*q, omega, qdot))
            assert np.allclose(back_omega, omega, atol=1e-10)
            assert np.allclose(back_qdot, qdot, atol=1e-10)

    def test_diagonal_case(self):
        q = (1.0, 1.0, pi / 2)
        omega, qdot = velocities_from_momenta(*q, np.zeros(3), np.array([1.0, 0, 0]))
        assert np.allclose(omega, 0, atol=1e-15)
        assert np.allclose(qdot, [1, 0, 0], atol=1e-15)

    def test_documented_q3dot(self):
        q = (1.0, 1.0, pi / 2)
        _, qdot = velocities_from_momenta(*q, np.array([0.0, 0, 2.0]), np.array([0.0, 0, 1.0]))
        assert qdot[2] == pytest.approx(0.0, abs=1e-14)

    def test_singular_near_collinear(self):
        with pytest.raises(SingularInertia):
            velocities_from_momenta(
                1.0, 1.0, 1e-10, np.array([0.0, 0, 1.0]), np.zeros(3)
            )


# the functions that raise SingularInertia, and the reduction's functions
# of a shape (and two vectors) with body_jacobi_vectors
GUARDED = ["inertia_inverse", "horizontal_metric", "shape_momenta", "velocities_from_momenta"]
FUNCTIONS = [
    "inertia_tensor", "inertia_inverse", "gauge_potential",
    "mechanical_connection", "horizontal_metric", "shape_partials", "body_velocities",
    "kinetic_energy_body", "body_angular_momentum", "shape_momenta", "velocities_from_momenta",
]
TAKES_VECTORS = {
    "body_velocities", "kinetic_energy_body", "body_angular_momentum", "shape_momenta",
    "velocities_from_momenta",
}


def call(name, r1, r2, phi, u=None, w=None):
    """The function `name` of the reduction (or body_jacobi_vectors) at the
    shape (r1, r2, phi); the vectors it takes are u and w, all ones if None."""
    if name == "body_jacobi_vectors":
        return body_jacobi_vectors(r1, r2, phi)
    function = getattr(reduction, name)
    if name not in TAKES_VECTORS:
        return function(r1, r2, phi)
    ones = np.ones(np.shape(r1) + (3,))
    return function(r1, r2, phi, ones if u is None else u, ones if w is None else w)


def with_row(shape, n=8, k=5):
    """Columns (r1, r2, phi) of n generic shapes whose row k is shape."""
    columns = np.array([[1.3] * n, [0.8] * n, [1.1] * n])
    columns[:, k] = shape
    return columns


class TestZeroR2:
    """r2 = 0 raises SingularInertia naming r2, not a false |sin phi| or a
    ZeroDivisionError; collinear shapes with r2 > 0 stay finite."""

    Q = (1.0, 0.0, 1.0)
    INERTIA = r"^r2 = 0: the inertia tensor is singular$"

    def test_inertia_inverse(self):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            inertia_inverse(*self.Q)

    def test_horizontal_metric(self):
        with pytest.raises(SingularInertia, match=r"^r2 = 0: the horizontal metric is singular$"):
            horizontal_metric(*self.Q)

    def test_shape_momenta(self):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            shape_momenta(*self.Q, *random_velocity())

    def test_velocities_from_momenta(self):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            velocities_from_momenta(*self.Q, np.ones(3), np.ones(3))

    @pytest.mark.parametrize("name", GUARDED)
    def test_one_row_of_a_column(self, name):
        # one singular row of eight names the quantity as the float call does
        metric = name == "horizontal_metric"
        message = r"^r2 = 0: the horizontal metric is singular$" if metric else self.INERTIA
        with pytest.raises(SingularInertia, match=message):
            call(name, *with_row(self.Q))

    @pytest.mark.parametrize("phi", [0.0, pi])
    def test_collinear_shapes_with_r2_stay_finite(self, phi):
        q = (1.0, 0.5, phi)
        g, g_inv = horizontal_metric(*q)
        assert np.array_equal(np.diag(g), [1.0, 1.0, 0.2])
        assert np.all(np.isfinite(g_inv))
        J, p = shape_momenta(*q, *random_velocity())
        assert np.all(np.isfinite(J)) and np.all(np.isfinite(p))


UNDERFLOWING = [(1.0, 1e-170, 1.0), (1.0, 1e-200, 1.0), (1e-170, 1.0, 1.0)]


@pytest.mark.parametrize("shape", UNDERFLOWING, ids=["r2-1e-170", "r2-1e-200", "r1-1e-170"])
class TestUnderflowingSquares:
    """r1 and r2 are > 0, but r1^2 or r2^2 underflows to 0: SingularInertia
    names the quantity that divides, not a bare ZeroDivisionError."""

    INERTIA = r"^r1\^2 r2\^2 sin\^2 phi underflows to 0: the inertia tensor is singular$"
    METRIC = r"^g33 underflows to 0: the horizontal metric is singular$"

    def test_inertia_inverse(self, shape):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            inertia_inverse(*shape)

    def test_horizontal_metric(self, shape):
        with pytest.raises(SingularInertia, match=self.METRIC):
            horizontal_metric(*shape)

    def test_shape_momenta(self, shape):
        with pytest.raises(SingularInertia, match=self.METRIC):
            shape_momenta(*shape, np.ones(3), np.ones(3))

    def test_velocities_from_momenta(self, shape):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            velocities_from_momenta(*shape, np.ones(3), np.ones(3))

    @pytest.mark.parametrize("name", GUARDED)
    def test_one_row_of_a_column(self, shape, name):
        metric = name in ("horizontal_metric", "shape_momenta")
        with pytest.raises(SingularInertia, match=self.METRIC if metric else self.INERTIA):
            call(name, *with_row(shape))


# the functions that square r1 or r2, each with the lengths it squares
SQUARING = {
    name: ("r2",) if name == "gauge_potential" else ("r1", "r2")
    for name in FUNCTIONS
    if name not in ("shape_partials", "body_velocities")
}


@pytest.mark.parametrize("length", ["r1", "r2"])
@pytest.mark.parametrize("name", sorted(SQUARING))
def test_overflowing_square_is_named(name, length):
    # a square past the float range is NumericalBlowup naming it, from a
    # float call and on one row of a column, never an inf entry or a
    # RuntimeWarning (an error here)
    shape = (1e200, 0.8, 1.1) if length == "r1" else (1.3, 1e200, 1.1)
    for args in (shape, with_row(shape)):
        if length not in SQUARING[name]:
            assert np.all(np.isfinite(call(name, *args)))
            continue
        with pytest.raises(NumericalBlowup, match=rf"^{length}\^2 overflows$"):
            call(name, *args)


def test_shape_partials_match_finite_differences():
    h = 1e-6
    for _ in range(20):
        q = random_shape()
        d = shape_partials(*q)
        coords = np.array(q)
        for mu in range(3):
            cp, cm = coords.copy(), coords.copy()
            cp[mu] += h
            cm[mu] -= h
            bp = np.array(body_jacobi_vectors(*cp))
            bm = np.array(body_jacobi_vectors(*cm))
            fd = (bp - bm) / (2 * h)
            assert np.max(np.abs(d[:, mu, :] - fd)) < 1e-8


class TestZeroR1:
    """r1 = 0, which no shape start reaches, raises SingularInertia naming
    r1, not the underflow of r1^2 r2^2 sin^2 phi or of g33."""

    Q = (0.0, 1.0, 1.0)
    INERTIA = r"^r1 = 0: the inertia tensor is singular$"
    METRIC = r"^r1 = 0: the horizontal metric is singular$"

    @pytest.mark.parametrize("name", GUARDED)
    @pytest.mark.parametrize("column", [False, True], ids=["float", "column"])
    def test_names_r1(self, name, column):
        metric = name in ("horizontal_metric", "shape_momenta")
        with pytest.raises(SingularInertia, match=self.METRIC if metric else self.INERTIA):
            call(name, *(with_row(self.Q) if column else self.Q))


@pytest.mark.parametrize("column", [False, True], ids=["float", "column"])
def test_connection_at_r1_r2_zero_is_named(column):
    # A33 = r2^2 / (r1^2 + r2^2) is 0/0 there, and no rescale makes it finite
    shape = (0.0, 0.0, 1.0)
    message = r"^r1 = r2 = 0: the mechanical connection is undefined$"
    with pytest.raises(SingularInertia, match=message):
        mechanical_connection(*(with_row(shape) if column else shape))


@pytest.mark.parametrize("column", [False, True], ids=["float", "column"])
@pytest.mark.parametrize(
    "name, shape, message",
    [
        ("inertia_inverse", (1e-160, 1.0, 1.0), r"^I\^-1 is not finite: the inertia tensor"),
        ("velocities_from_momenta", (1e-160, 1.0, 1.0), r"^I\^-1 is not finite: the inertia"),
        ("horizontal_metric", (1.0, 1e-160, 1.0), r"^1/g33 is not finite: the horizontal metric"),
        ("shape_momenta", (1.0, 1e-160, 1.0), r"^1/g33 is not finite: the horizontal metric"),
    ],
)
def test_overflowing_inverse_is_named(name, shape, message, column):
    # r1^2 or g33 is subnormal, not 0: the inverse overflows, which a float
    # call returned as inf and an array call would warn of
    with pytest.raises(SingularInertia, match=message + r".* is singular$"):
        call(name, *(with_row(shape) if column else shape))


def test_connection_rescales_only_the_underflowing_rows():
    columns = with_row((3e-170, 4e-170, 1.0))
    A = mechanical_connection(*columns)
    assert A.tobytes() == np.array([mechanical_connection(*row) for row in columns.T]).tobytes()
    assert abs(A[5, 2, 2] - 0.64) <= 1e-15


@pytest.mark.parametrize("column", [False, True], ids=["float", "column"])
def test_sums_of_squares_past_the_float_range(column):
    # r1^2 and r2^2 are finite, their sum and product are not: the connection
    # and the metric rescale that row and keep the others' bits, and the
    # inertia tensor names the entry that overflows, never an inf entry or a
    # RuntimeWarning (an error here)
    shape = (1.3e154, 1.3e154, 0.3)
    args = with_row(shape) if column else shape
    A = mechanical_connection(*args)
    g, g_inv = horizontal_metric(*args)
    row = (5,) if column else ()
    assert A[row][2, 2] == 0.5
    assert g[row][2, 2] == pytest.approx(0.5 * 1.3e154 * 1.3e154, rel=1e-15)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(g_inv))
    if column:
        generic = with_row((1.3, 0.8, 1.1))
        for rescaled, plain in ((A, mechanical_connection(*generic)),
                                (g, horizontal_metric(*generic)[0])):
            assert np.delete(rescaled, 5, 0).tobytes() == np.delete(plain, 5, 0).tobytes()
    with pytest.raises(NumericalBlowup, match=r"^inertia tensor entry I22 = r1\^2 \+ r2\^2 cos"):
        inertia_tensor(*args)
    # cos phi = 0 keeps I22 finite: I33 overflows alone
    flat = (1.3e154, 1.3e154, pi / 2)
    with pytest.raises(NumericalBlowup, match=r"^inertia tensor entry I33 = r1\^2 \+ r2\^2 overflows$"):
        inertia_tensor(*(with_row(flat) if column else flat))


@pytest.mark.parametrize("column", [False, True], ids=["float", "column"])
def test_inverse_whose_determinant_overflows(column):
    # r1^2 r2^2 sin^2 phi overflows but the inverse exists: it is taken on
    # the rescaled lengths, with no RuntimeWarning (an error here), and the
    # other rows keep their bits; velocities_from_momenta reaches it too
    shape = (1.3e154, 1.3e154, 0.3)
    args = with_row(shape) if column else shape
    I_inv = inertia_inverse(*args)
    row = (5,) if column else ()
    np.testing.assert_allclose(I_inv[row], inertia_inverse(1.0, 1.0, 0.3) / 1.3e154 ** 2,
                               rtol=4e-15, atol=0.0)
    if column:
        plain = inertia_inverse(*with_row((1.3, 0.8, 1.1)))
        assert np.delete(I_inv, 5, 0).tobytes() == np.delete(plain, 5, 0).tobytes()
    omega, qdot = call("velocities_from_momenta", *args)
    assert np.all(np.isfinite(omega)) and np.all(np.isfinite(qdot))


def test_metric_of_squares_whose_product_underflows():
    # r1^2 r2^2 underflows to 0 at r1 = r2 = 1e-100, but g33 = 5e-201 does not
    g, g_inv = horizontal_metric(1e-100, 1e-100, 1.0)
    assert g[2, 2] == pytest.approx(5e-201, rel=1e-15)
    assert g_inv[2, 2] == pytest.approx(2e200, rel=1e-15)


# the shapes that the shape-start range rule refuses (r1 <= 0, r2 < 0, phi
# outside [0, pi]), squares that underflow and subnormal squares, whose
# inverses overflow
OUT_OF_RANGE = [
    (r1, r2, phi)
    for r1 in (1.3, 0.0, -0.7, 1e-160, 1e-170, -1e-170)
    for r2 in (0.8, 0.0, -1.1, 1e-160, 1e-170)
    for phi in (1.0, 0.0, pi, -2.0, -1e-12, 3.5, 40.0)
]


@pytest.mark.parametrize("name", FUNCTIONS + ["body_jacobi_vectors"])
def test_any_shape_gives_finite_values_or_a_named_error(name):
    # a numpy warning is an error here, so none is reached; nor is a bare
    # ZeroDivisionError of float arithmetic
    for shape in OUT_OF_RANGE:
        for columns in (shape, with_row(shape)):
            try:
                result = call(name, *columns)
            except SingularInertia:
                continue
            parts = result if isinstance(result, tuple) else (result,)
            assert all(np.all(np.isfinite(part)) for part in parts), (name, shape)


@pytest.mark.parametrize("name", FUNCTIONS + ["body_jacobi_vectors"])
def test_batch_equals_its_rows_bit_for_bit(name):
    # 64 seeded shapes, phi of either sign, with phi = 0 and pi where the
    # function is defined there
    rng = np.random.default_rng(2601)
    n = 64
    r1, r2 = rng.uniform(0.3, 2.0, size=(2, n))
    phi = rng.uniform(-pi, pi, size=n)
    if name not in ("inertia_inverse", "velocities_from_momenta"):
        phi[:3] = 0.0, pi, -pi
    u, w = rng.normal(size=(2, n, 3))
    batch = call(name, r1, r2, phi, u, w)
    rows = [call(name, float(r1[k]), float(r2[k]), float(phi[k]), u[k], w[k]) for k in range(n)]
    parts = batch if isinstance(batch, tuple) else (batch,)
    for i, part in enumerate(parts):
        stacked = np.stack([row[i] if isinstance(row, tuple) else row for row in rows])
        assert part.shape == stacked.shape and part.dtype == stacked.dtype
        assert part.tobytes() == stacked.tobytes()


def test_signed_phi_matches_the_cross_product_forms():
    # phi in (-pi, 0), as a signed planar chart takes it: the closed forms
    # equal checks' assembly from the body vectors to the tensor_oracle
    # suite's bound
    rng = np.random.default_rng(2602)
    worst = 0.0
    for _ in range(300):
        q = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), -rng.uniform(1.1e-3, pi - 1.1e-3)
        I, a_brute = inertia_tensor(*q), brute_gauge(q)
        A_brute = np.linalg.inv(I) @ a_brute.T
        g_brute = np.diag([1.0, 1.0, q[1] ** 2]) - A_brute.T @ I @ A_brute
        for closed, brute in (
            (I, brute_inertia(q)),
            (gauge_potential(*q), a_brute),
            (inertia_inverse(*q), np.linalg.inv(I)),
            (mechanical_connection(*q), A_brute.T),
            (horizontal_metric(*q)[0], g_brute),
        ):
            scale = max(1.0, float(np.max(np.abs(brute))))
            worst = max(worst, float(np.max(np.abs(closed - brute))) / scale)
    assert worst <= 1e-10


@pytest.mark.parametrize(
    "name", ["inertia_tensor", "inertia_inverse", "gauge_potential", "mechanical_connection",
             "horizontal_metric"],
)
def test_squares_keep_their_bits_across_a_batch(name):
    # r ** 2 on a float is libm's pow, which rounds otherwise than an
    # array's np.square on about 8 in 10 000 arguments; the tensors square
    # with r * r, so 4000 seeded shapes give the bits of their float calls
    rng = np.random.default_rng(2603)
    r1, r2 = rng.uniform(0.3, 2.0, size=(2, 4000))
    batch = call(name, r1, r2, 1.0)
    parts = batch if isinstance(batch, tuple) else (batch,)
    rows = [call(name, float(a), float(b), 1.0) for a, b in zip(r1, r2)]
    for i, part in enumerate(parts):
        stacked = np.stack([row[i] if isinstance(row, tuple) else row for row in rows])
        assert part.tobytes() == stacked.tobytes()
