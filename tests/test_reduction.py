from math import pi, sqrt

import numpy as np
import pytest

from trireduce.checks import random_rotation
from trireduce.errors import SingularInertia
from trireduce.geometry import (
    MassTriple,
    ShapeCoordinates,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
)
from trireduce.reduction import (
    BodyMomenta,
    BodyVelocityState,
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
    return ShapeCoordinates(
        RNG.uniform(0.3, 2.0), RNG.uniform(0.3, 2.0), RNG.uniform(phi_min, pi - phi_min)
    )


def random_velocity():
    return BodyVelocityState(RNG.normal(size=3), RNG.normal(size=3))


def brute_inertia(q):
    b1, b2 = body_jacobi_vectors(q)
    I = np.zeros((3, 3))
    for k, e in enumerate(np.eye(3)):
        I[:, k] = np.cross(b1, np.cross(e, b1)) + np.cross(b2, np.cross(e, b2))
    return I


class TestInertiaTensor:
    def test_right_angle_unit_lengths(self):
        I = inertia_tensor(ShapeCoordinates(1, 1, pi / 2))
        assert np.allclose(I, np.diag([1.0, 1.0, 2.0]), atol=1e-15)

    def test_documented_shape(self):
        I = inertia_tensor(ShapeCoordinates(sqrt(2), sqrt(2.0 / 3.0), pi / 2))
        assert np.allclose(I, np.diag([2.0 / 3.0, 2.0, 8.0 / 3.0]), atol=1e-14)

    def test_matches_cross_product_assembly(self):
        for _ in range(200):
            q = random_shape(phi_min=0.0)
            assert np.max(np.abs(inertia_tensor(q) - brute_inertia(q))) < 1e-12


class TestInertiaInverse:
    def test_diagonal_case(self):
        I_inv = inertia_inverse(ShapeCoordinates(1, 1, pi / 2))
        assert np.allclose(I_inv, np.diag([1.0, 1.0, 0.5]), atol=1e-15)

    def test_product_is_identity(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            prod = inertia_tensor(q) @ inertia_inverse(q)
            assert np.max(np.abs(prod - np.eye(3))) < 1e-10

    def test_singular_at_collinear(self):
        with pytest.raises(SingularInertia):
            inertia_inverse(ShapeCoordinates(1.0, 1.0, 1e-12))

    def test_band_is_computable(self):
        # inside the reduced-precision band the inverse still exists
        q = ShapeCoordinates(1.0, 1.0, 1e-5)
        prod = inertia_tensor(q) @ inertia_inverse(q)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-4


class TestGaugeAndConnection:
    def test_gauge_values(self):
        q = ShapeCoordinates(1.3, 2.0, 0.7)
        a = gauge_potential(q)
        assert np.allclose(a[0], 0) and np.allclose(a[1], 0)
        assert np.allclose(a[2], [0, 0, 4.0])

    def test_gauge_matches_finite_differences(self):
        h = 1e-6
        for _ in range(50):
            q = random_shape()
            coords = np.array([q.r1, q.r2, q.phi])
            a_fd = np.zeros((3, 3))
            for mu in range(3):
                cp, cm = coords.copy(), coords.copy()
                cp[mu] += h
                cm[mu] -= h
                bp = np.array(body_jacobi_vectors(ShapeCoordinates(*cp)))
                bm = np.array(body_jacobi_vectors(ShapeCoordinates(*cm)))
                d = (bp - bm) / (2 * h)
                b = np.array(body_jacobi_vectors(q))
                a_fd[mu] = np.cross(b[0], d[0]) + np.cross(b[1], d[1])
            assert np.max(np.abs(gauge_potential(q) - a_fd)) < 1e-8

    def test_connection_symmetric_shape(self):
        A = mechanical_connection(ShapeCoordinates(1.7, 1.7, 0.4))
        assert np.allclose(A[2], [0, 0, 0.5], atol=1e-15)

    def test_connection_values(self):
        A = mechanical_connection(ShapeCoordinates(1.0, 2.0, 0.4))
        assert np.allclose(A[2], [0, 0, 4.0 / 5.0], atol=1e-15)

    def test_connection_matches_inverse_times_gauge(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            expected = (inertia_inverse(q) @ gauge_potential(q).T).T
            assert np.max(np.abs(mechanical_connection(q) - expected)) < 1e-10


class TestHorizontalMetric:
    def test_unit_shape(self):
        g, g_inv = horizontal_metric(ShapeCoordinates(1, 1, 1.0))
        assert g[2, 2] == pytest.approx(0.5, abs=1e-15)
        assert g_inv[2, 2] == pytest.approx(2.0, abs=1e-15)

    def test_small_r2_limit(self):
        for r2 in (1e-2, 1e-4):
            g, _ = horizontal_metric(ShapeCoordinates(1.0, r2, 1.0))
            assert g[2, 2] == pytest.approx(r2 ** 2, rel=1e-3)

    def test_defining_formula(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            I = inertia_tensor(q)
            A = mechanical_connection(q)
            h = np.diag([1.0, 1.0, q.r2 ** 2])
            g, g_inv = horizontal_metric(q)
            assert np.max(np.abs(g - (h - A @ I @ A.T))) < 1e-10
            assert np.max(np.abs(g @ g_inv - np.eye(3))) < 1e-12
            assert g[0, 0] == 1.0 and g[1, 1] == 1.0


class TestBodyVelocities:
    def test_pure_stretch(self):
        q = ShapeCoordinates(1.0, 1.0, 1.0)
        v1, v2 = body_velocities(q, BodyVelocityState(np.zeros(3), np.array([1.0, 0, 0])))
        assert np.allclose(v1, [1, 0, 0]) and np.allclose(v2, 0)

    def test_rigid_spin(self):
        q = ShapeCoordinates(1.0, 1.0, pi / 2)
        v1, v2 = body_velocities(
            q, BodyVelocityState(np.array([0.0, 0, 1.0]), np.zeros(3))
        )
        assert np.allclose(v1, [0, 1, 0], atol=1e-15)
        assert np.allclose(v2, [-1, 0, 0], atol=1e-15)

    def test_matches_frame_fit_along_synthetic_states(self):
        # realize (q, w) as Jacobi data in a rotated frame and compare
        # R^T sdot against the body decomposition
        for _ in range(50):
            q = random_shape()
            w = random_velocity()
            Q = random_rotation(RNG)
            b1, b2 = body_jacobi_vectors(q)
            v1, v2 = body_velocities(q, w)
            s1, s2, sd1, sd2 = Q @ b1, Q @ b2, Q @ v1, Q @ v2
            R = body_frames(s1[None], s2[None], sd1[None], sd2[None])[0][0].T
            assert np.allclose(R.T @ sd1, v1, atol=1e-12)
            assert np.allclose(R.T @ sd2, v2, atol=1e-12)


class TestKineticEnergy:
    def test_pure_shape_motion(self):
        q = ShapeCoordinates(1.0, 1.0, 0.9)
        K = kinetic_energy_body(q, BodyVelocityState(np.zeros(3), np.array([1.0, 1.0, 0])))
        assert K == pytest.approx(1.0, abs=1e-15)

    def test_documented_value(self):
        q = ShapeCoordinates(1.0, 1.0, pi / 2)
        w = BodyVelocityState(np.array([0.0, 0, 1.0]), np.array([0.0, 0, 1.0]))
        assert kinetic_energy_body(q, w) == pytest.approx(2.5, abs=1e-14)

    def test_equals_half_sum_of_squared_body_velocities(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            w = random_velocity()
            v1, v2 = body_velocities(q, w)
            K_direct = 0.5 * (v1 @ v1 + v2 @ v2)
            assert kinetic_energy_body(q, w) == pytest.approx(K_direct, abs=1e-12)

    def test_compact_form(self):
        for _ in range(100):
            q = random_shape(phi_min=0.01)
            w = random_velocity()
            I = inertia_tensor(q)
            A = mechanical_connection(q)
            g, _ = horizontal_metric(q)
            shifted = w.omega + A.T @ w.qdot
            K_compact = 0.5 * shifted @ I @ shifted + 0.5 * w.qdot @ g @ w.qdot
            assert kinetic_energy_body(q, w) == pytest.approx(K_compact, abs=1e-12)

    def test_triple_equality_with_cartesian(self):
        masses = MassTriple(1.0, 2.0, 0.7)
        for _ in range(50):
            q = random_shape()
            w = random_velocity()
            Q = random_rotation(RNG)
            b1, b2 = body_jacobi_vectors(q)
            v1, v2 = body_velocities(q, w)
            s1, s2, sd1, sd2 = Q @ b1, Q @ b2, Q @ v1, Q @ v2
            state = cartesian_from_jacobi(masses, s1, s2, sd1, sd2)
            K_cart = 0.5 * float(
                np.sum(masses.as_array()[:, None] * state.velocities ** 2)
            )
            K_jac = 0.5 * (sd1 @ sd1 + sd2 @ sd2)
            K_body = kinetic_energy_body(q, w)
            assert K_cart == pytest.approx(K_body, abs=1e-10)
            assert K_jac == pytest.approx(K_body, abs=1e-10)


class TestBodyAngularMomentum:
    def test_gauge_contribution_only(self):
        q = ShapeCoordinates(2.0, 1.0, 0.8)
        w = BodyVelocityState(np.zeros(3), np.array([0.0, 0, 1.0]))
        assert np.allclose(body_angular_momentum(q, w), [0, 0, 1.0], atol=1e-15)

    def test_rigid_spin(self):
        q = ShapeCoordinates(1.0, 1.0, pi / 2)
        w = BodyVelocityState(np.array([0.0, 0, 1.0]), np.zeros(3))
        assert np.allclose(body_angular_momentum(q, w), [0, 0, 2.0], atol=1e-15)

    def test_cross_product_form(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            w = random_velocity()
            b1, b2 = body_jacobi_vectors(q)
            v1, v2 = body_velocities(q, w)
            J_direct = np.cross(b1, v1) + np.cross(b2, v2)
            assert np.allclose(body_angular_momentum(q, w), J_direct, atol=1e-12)

    def test_equals_rotated_spatial_angular_momentum(self):
        for _ in range(50):
            q = random_shape()
            w = random_velocity()
            Q = random_rotation(RNG)
            b1, b2 = body_jacobi_vectors(q)
            v1, v2 = body_velocities(q, w)
            s1, s2, sd1, sd2 = Q @ b1, Q @ b2, Q @ v1, Q @ v2
            R = body_frames(s1[None], s2[None], sd1[None], sd2[None])[0][0].T
            L = np.cross(s1, sd1) + np.cross(s2, sd2)
            assert np.allclose(body_angular_momentum(q, w), R.T @ L, atol=1e-10)


class TestShapeMomenta:
    def test_pure_stretch(self):
        q = ShapeCoordinates(1.0, 1.0, 0.7)
        m = shape_momenta(q, BodyVelocityState(np.zeros(3), np.array([1.0, 0, 0])))
        assert np.allclose(m.p, [1, 0, 0], atol=1e-15)
        assert np.allclose(m.J, 0, atol=1e-15)

    def test_documented_p3(self):
        for w3, v in [(0.5, 1.5), (-1.0, 2.0)]:
            q = ShapeCoordinates(1.0, 1.0, pi / 2)
            w = BodyVelocityState(np.array([0.0, 0, w3]), np.array([0.0, 0, v]))
            m = shape_momenta(q, w)
            assert m.p[2] == pytest.approx(w3 + v, abs=1e-14)

    def test_two_forms_agree(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            w = random_velocity()
            m = shape_momenta(q, w)
            h = np.diag([1.0, 1.0, q.r2 ** 2])
            p_h = h @ w.qdot + gauge_potential(q) @ w.omega
            assert np.allclose(m.p, p_h, atol=1e-12)


class TestVelocitiesFromMomenta:
    def test_round_trip(self):
        for _ in range(100):
            q = random_shape()
            w = random_velocity()
            back = velocities_from_momenta(q, shape_momenta(q, w))
            assert np.allclose(back.omega, w.omega, atol=1e-10)
            assert np.allclose(back.qdot, w.qdot, atol=1e-10)

    def test_diagonal_case(self):
        q = ShapeCoordinates(1.0, 1.0, pi / 2)
        w = velocities_from_momenta(
            q, BodyMomenta(np.zeros(3), np.array([1.0, 0, 0]))
        )
        assert np.allclose(w.omega, 0, atol=1e-15)
        assert np.allclose(w.qdot, [1, 0, 0], atol=1e-15)

    def test_documented_q3dot(self):
        q = ShapeCoordinates(1.0, 1.0, pi / 2)
        w = velocities_from_momenta(
            q, BodyMomenta(np.array([0.0, 0, 2.0]), np.array([0.0, 0, 1.0]))
        )
        assert w.qdot[2] == pytest.approx(0.0, abs=1e-14)

    def test_singular_near_collinear(self):
        with pytest.raises(SingularInertia):
            velocities_from_momenta(
                ShapeCoordinates(1.0, 1.0, 1e-10),
                BodyMomenta(np.array([0.0, 0, 1.0]), np.zeros(3)),
            )


class TestZeroR2:
    """r2 = 0 raises SingularInertia naming r2, not a false |sin phi| or a
    ZeroDivisionError; collinear shapes with r2 > 0 stay finite."""

    Q = ShapeCoordinates(1.0, 0.0, 1.0)
    INERTIA = r"^r2 = 0: the inertia tensor is singular$"

    def test_inertia_inverse(self):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            inertia_inverse(self.Q)

    def test_horizontal_metric(self):
        with pytest.raises(SingularInertia, match=r"^r2 = 0: the horizontal metric is singular$"):
            horizontal_metric(self.Q)

    def test_shape_momenta(self):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            shape_momenta(self.Q, random_velocity())

    def test_velocities_from_momenta(self):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            velocities_from_momenta(self.Q, BodyMomenta(np.ones(3), np.ones(3)))

    @pytest.mark.parametrize("phi", [0.0, pi])
    def test_collinear_shapes_with_r2_stay_finite(self, phi):
        q = ShapeCoordinates(1.0, 0.5, phi)
        g, g_inv = horizontal_metric(q)
        assert np.array_equal(np.diag(g), [1.0, 1.0, 0.2])
        assert np.all(np.isfinite(g_inv))
        m = shape_momenta(q, random_velocity())
        assert np.all(np.isfinite(m.J)) and np.all(np.isfinite(m.p))


UNDERFLOWING = [(1.0, 1e-170, 1.0), (1.0, 1e-200, 1.0), (1e-170, 1.0, 1.0)]


@pytest.mark.parametrize("shape", UNDERFLOWING, ids=["r2-1e-170", "r2-1e-200", "r1-1e-170"])
class TestUnderflowingSquares:
    """r1 and r2 are > 0, but r1^2 or r2^2 underflows to 0: SingularInertia
    names the quantity that divides, not a bare ZeroDivisionError."""

    INERTIA = r"^r1\^2 r2\^2 sin\^2 phi underflows to 0: the inertia tensor is singular$"
    METRIC = r"^g33 underflows to 0: the horizontal metric is singular$"

    def test_inertia_inverse(self, shape):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            inertia_inverse(ShapeCoordinates(*shape))

    def test_horizontal_metric(self, shape):
        with pytest.raises(SingularInertia, match=self.METRIC):
            horizontal_metric(ShapeCoordinates(*shape))

    def test_shape_momenta(self, shape):
        w = BodyVelocityState(np.ones(3), np.ones(3))
        with pytest.raises(SingularInertia, match=self.METRIC):
            shape_momenta(ShapeCoordinates(*shape), w)

    def test_velocities_from_momenta(self, shape):
        with pytest.raises(SingularInertia, match=self.INERTIA):
            velocities_from_momenta(ShapeCoordinates(*shape), BodyMomenta(np.ones(3), np.ones(3)))


def test_shape_partials_match_finite_differences():
    h = 1e-6
    for _ in range(20):
        q = random_shape()
        d = shape_partials(q)
        coords = np.array([q.r1, q.r2, q.phi])
        for mu in range(3):
            cp, cm = coords.copy(), coords.copy()
            cp[mu] += h
            cm[mu] -= h
            bp = np.array(body_jacobi_vectors(ShapeCoordinates(*cp)))
            bm = np.array(body_jacobi_vectors(ShapeCoordinates(*cm)))
            fd = (bp - bm) / (2 * h)
            assert np.max(np.abs(d[:, mu, :] - fd)) < 1e-8
