from math import pi, sqrt

import numpy as np
import pytest

from trireduce.checks import random_rotation
from trireduce.errors import DegenerateShape
from trireduce.geometry import (
    CartesianState,
    JacobiVectors,
    MassTriple,
    ShapeCoordinates,
    body_frame_fit,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    cross,
    jacobi_from_cartesian,
    lengths,
    reduced_masses,
    shape_to_distances,
    spatial_angular_momentum,
)

RNG = np.random.default_rng(7)


class TestReducedMasses:
    def test_equal_unit_masses(self):
        mu = reduced_masses(MassTriple(1, 1, 1))
        assert mu.mu1 == pytest.approx(0.5, abs=1e-15)
        assert mu.mu2 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_equal_masses_two(self):
        mu = reduced_masses(MassTriple(2, 2, 2))
        assert mu.mu1 == pytest.approx(1.0, abs=1e-15)
        assert mu.mu2 == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_homogeneous_in_masses(self):
        base = reduced_masses(MassTriple(1, 1, 1))
        for k in (0.5, 3.0, 7.25):
            scaled = reduced_masses(MassTriple(k, k, k))
            assert scaled.mu1 == pytest.approx(k * base.mu1, rel=1e-14)
            assert scaled.mu2 == pytest.approx(k * base.mu2, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MassTriple(1, -1, 1)
        with pytest.raises(ValueError):
            MassTriple(0, 1, 1)


class TestVectorHelpers:
    """lengths and cross round as np.linalg.norm and np.cross do, so the
    measurements routed through them keep numpy's bits."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e8, 1e150])
    def test_bits_equal_numpy(self, scale):
        rng = np.random.default_rng(11)
        a, b = scale * rng.normal(size=(2, 4000, 3))
        a[:3] = 0.0
        b[3:6] = 0.0
        assert np.array_equal(lengths(a), np.linalg.norm(a, axis=-1))
        assert np.array_equal(cross(a, b), np.cross(a, b))
        for k in range(8):  # single 3-vectors, zero ones included
            assert np.array_equal(lengths(a[k]), np.linalg.norm(a[k], axis=-1))
            assert np.array_equal(cross(a[k], b[k]), np.cross(a[k], b[k]))


def _state(x1, x2, x3, v1=None, v2=None, v3=None):
    zero = np.zeros(3)
    return CartesianState(
        np.array(x1, float),
        np.array(x2, float),
        np.array(x3, float),
        zero if v1 is None else np.array(v1, float),
        zero if v2 is None else np.array(v2, float),
        zero if v3 is None else np.array(v3, float),
    )


class TestJacobiMap:
    def test_documented_example(self):
        m = MassTriple(1, 1, 1)
        j = jacobi_from_cartesian(m, _state([1, 0, 0], [0, 1, 0], [-1, 0, 0]))
        assert np.allclose(j.s1, [sqrt(2), 0, 0], atol=1e-15)
        assert np.allclose(j.s2, [0, sqrt(2.0 / 3.0), 0], atol=1e-15)

    def test_translation_invariance(self):
        m = MassTriple(1.0, 2.0, 0.5)
        shift = np.array([3.1, -2.2, 0.7])
        s = _state([1, 0, 0], [0, 1, 0], [-1, 0.5, 0.2])
        shifted = _state(s.x1 + shift, s.x2 + shift, s.x3 + shift)
        j0 = jacobi_from_cartesian(m, s)
        j1 = jacobi_from_cartesian(m, shifted)
        assert np.allclose(j0.s1, j1.s1, atol=1e-14)
        assert np.allclose(j0.s2, j1.s2, atol=1e-14)

    def test_coincident_particles_map_to_zero(self):
        m = MassTriple(1, 2, 3)
        j = jacobi_from_cartesian(m, _state([1, 1, 1], [1, 1, 1], [1, 1, 1]))
        assert np.allclose(j.s1, 0) and np.allclose(j.s2, 0)

    def test_round_trip(self):
        m = MassTriple(1.3, 0.7, 2.1)
        j = JacobiVectors(
            RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)
        )
        back = jacobi_from_cartesian(m, cartesian_from_jacobi(m, j))
        for a, b in [
            (j.s1, back.s1),
            (j.s2, back.s2),
            (j.sdot1, back.sdot1),
            (j.sdot2, back.sdot2),
        ]:
            assert np.allclose(a, b, atol=1e-14)

    def test_inverse_zero(self):
        m = MassTriple(1, 1, 1)
        z = np.zeros(3)
        s = cartesian_from_jacobi(m, JacobiVectors(z, z, z, z))
        assert np.allclose(s.positions, 0) and np.allclose(s.velocities, 0)

    def test_inverse_center_of_mass_at_origin(self):
        for _ in range(20):
            m = MassTriple(*RNG.uniform(0.5, 3.0, size=3))
            j = JacobiVectors(
                RNG.normal(size=3),
                RNG.normal(size=3),
                RNG.normal(size=3),
                RNG.normal(size=3),
            )
            s = cartesian_from_jacobi(m, j)
            com = m.as_array() @ s.positions / m.total
            mom = m.as_array() @ s.velocities
            assert np.allclose(com, 0, atol=1e-14)
            assert np.allclose(mom, 0, atol=1e-14)


class TestAngularMomentum:
    def test_parallel_velocities_give_zero(self):
        j = JacobiVectors([1, 2, 3], [4, 5, 6], [2, 4, 6], [-4, -5, -6])
        assert np.allclose(spatial_angular_momentum(j), 0, atol=1e-14)

    def test_unit_cross_product(self):
        z = np.zeros(3)
        j = JacobiVectors([1, 0, 0], z, [0, 1, 0], z)
        assert np.allclose(spatial_angular_momentum(j), [0, 0, 1])

    def test_matches_cartesian_assembly(self):
        for _ in range(50):
            m = MassTriple(*RNG.uniform(0.5, 3.0, size=3))
            pos = RNG.normal(size=(3, 3))
            vel = RNG.normal(size=(3, 3))
            s = CartesianState(*pos, *vel)
            j = jacobi_from_cartesian(m, s)
            marr = m.as_array()
            com = marr @ pos / m.total
            vcom = marr @ vel / m.total
            L_direct = sum(
                marr[i] * np.cross(pos[i] - com, vel[i] - vcom) for i in range(3)
            )
            assert np.allclose(spatial_angular_momentum(j), L_direct, atol=1e-12)


class TestBodyFrameFit:
    def test_axis_aligned(self):
        z = np.zeros(3)
        R, q = body_frame_fit(JacobiVectors([2, 0, 0], [0, 1, 0], z, z))
        assert np.allclose(R, np.eye(3), atol=1e-15)
        assert (q.r1, q.r2) == (2.0, 1.0)
        assert q.phi == pytest.approx(pi / 2, abs=1e-15)

    def test_antiparallel_limit(self):
        z = np.zeros(3)
        for eps in (1e-3, 1e-5):
            _, q = body_frame_fit(
                JacobiVectors([1, 0, 0], [-1, eps, 0], z, z)
            )
            assert q.phi == pytest.approx(pi, abs=2 * eps)

    def test_reconstruction(self):
        for _ in range(100):
            j = JacobiVectors(
                RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)
            )
            R, q = body_frame_fit(j)
            b1, b2 = body_jacobi_vectors(q)
            assert np.allclose(R @ b1, j.s1, atol=1e-12)
            assert np.allclose(R @ b2, j.s2, atol=1e-12)

    def test_equivariance(self):
        for _ in range(100):
            j = JacobiVectors(
                RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)
            )
            Q = random_rotation(RNG)
            R, q = body_frame_fit(j)
            Rq, qq = body_frame_fit(
                JacobiVectors(Q @ j.s1, Q @ j.s2, Q @ j.sdot1, Q @ j.sdot2)
            )
            assert abs(q.r1 - qq.r1) < 1e-12
            assert abs(q.r2 - qq.r2) < 1e-12
            assert abs(q.phi - qq.phi) < 1e-12
            assert np.max(np.abs(Rq - Q @ R)) < 1e-12

    def test_degenerate_and_collinear(self):
        z = np.zeros(3)
        with pytest.raises(DegenerateShape):
            body_frame_fit(JacobiVectors(z, [1, 0, 0], z, z))
        with pytest.raises(DegenerateShape):
            body_frame_fit(JacobiVectors([1, 0, 0], z, z, z))
        # below the collinear threshold phi is exactly 0 or pi; with no
        # bending motion u2 is a fixed perpendicular of u1
        for s2, phi in (([2, 1e-12, 0], 0.0), ([-2, 1e-12, 0], pi)):
            R, q = body_frame_fit(JacobiVectors([1, 0, 0], s2, z, z))
            assert q.phi == phi
            assert np.array_equal(R[:, 0], [1.0, 0.0, 0.0])
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-15
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_rows_marked(self):
        # body_frames raises nothing at r1 = 0 or r2 = 0: it marks those
        # rows, measures them as they are and fits them a finite stand-in
        # frame (a RuntimeWarning is an error here)
        z = np.zeros(3)
        s1 = np.array([[1.0, 0.0, 0.0], z, [1.0, 2.0, 0.0], z])
        s2 = np.array([[0.0, 2.0, 0.0], [0.0, 1.0, 0.0], z, z])
        sd1, sd2 = RNG.normal(size=(2, 4, 3))
        axes, r1, r2, phi, measured, sin_phi, planar, degenerate = body_frames(s1, s2, sd1, sd2)
        assert degenerate.tolist() == [False, True, True, True]
        assert measured[0].tolist() == [1.0, 0.0, sqrt(5.0), 0.0]
        assert measured[1].tolist() == [2.0, 1.0, 0.0, 0.0]
        assert np.all(np.isfinite(axes)) and np.all(np.isfinite(sin_phi))
        assert np.all(np.abs(axes @ axes.transpose(0, 2, 1) - np.eye(3)) < 1e-15)
        assert body_frames(s1[:1], s2[:1], sd1[:1], sd2[:1])[-1] is None

    def test_collinear_u2_along_bending(self):
        for _ in range(100):
            s1 = RNG.normal(size=3)
            k = RNG.uniform(-2.0, 2.0)
            sd1, sd2 = RNG.normal(size=3), RNG.normal(size=3)
            R, q = body_frame_fit(JacobiVectors(s1, k * s1, sd1, sd2))
            assert q.phi == (0.0 if k > 0 else pi)
            u1 = s1 / np.linalg.norm(s1)
            bend = sd2 - k * sd1  # sdot2 - sigma (r2/r1) sdot1
            bend -= np.dot(bend, u1) * u1
            assert np.allclose(R[:, 1], bend / np.linalg.norm(bend), atol=1e-12)
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-14


class TestShapeToDistances:
    def test_equilateral_style_example(self):
        m = MassTriple(1, 1, 1)
        q = ShapeCoordinates(sqrt(2), sqrt(2.0 / 3.0), pi / 2)
        d12, d13, d23 = shape_to_distances(m, q.r1, q.r2, q.phi)
        assert d12 == pytest.approx(sqrt(2), rel=1e-14)
        assert d13 == pytest.approx(2.0, rel=1e-14)
        assert d23 == pytest.approx(sqrt(2), rel=1e-14)

    def test_midpoint_symmetry(self):
        m = MassTriple(1, 1, 1)
        q = ShapeCoordinates(sqrt(2), 0.0, 0.0)
        d12, d13, d23 = shape_to_distances(m, q.r1, q.r2, q.phi)
        assert d12 == pytest.approx(d13 / 2, rel=1e-12)
        assert d23 == pytest.approx(d13 / 2, rel=1e-12)

    def test_matches_cartesian_distances(self):
        for _ in range(30):
            m = MassTriple(*RNG.uniform(0.5, 3.0, size=3))
            pos = RNG.normal(size=(3, 3))
            s = CartesianState(*pos, *np.zeros((3, 3)))
            j = jacobi_from_cartesian(m, s)
            _, q = body_frame_fit(j)
            d12, d13, d23 = shape_to_distances(m, q.r1, q.r2, q.phi)
            assert d12 == pytest.approx(np.linalg.norm(pos[0] - pos[1]), rel=1e-12)
            assert d13 == pytest.approx(np.linalg.norm(pos[0] - pos[2]), rel=1e-12)
            assert d23 == pytest.approx(np.linalg.norm(pos[1] - pos[2]), rel=1e-12)
