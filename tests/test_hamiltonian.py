import json
import re
import sys
from math import cos, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trireduce import geometry, hamiltonian
from trireduce import potential as potential_module
from trireduce.checks import random_rotation
from trireduce.dynamics import BAND_THRESHOLD, total_energy
from trireduce.errors import DegenerateShape, DomainError, NumericalBlowup
from trireduce.geometry import (
    COLLINEAR_THRESHOLD,
    CartesianState,
    MassTriple,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    frame_matrices,
    jacobi_map,
    reduced_masses,
)
from trireduce.hamiltonian import (
    cartesian_from_momenta,
    evaluate_reduced,
    evaluate_reduced_batch,
    reduced_hamiltonian,
    singular_term,
)
from trireduce.potential import builtin_potential, parse_potential, potential_at_positions
from trireduce.reduction import (
    body_angular_momentum,
    body_velocities,
    kinetic_energy_body,
    shape_momenta,
    velocities_from_momenta,
)

RNG = np.random.default_rng(23)
FREE = builtin_potential("free")


def random_shape(phi_min=0.05):
    """A seeded shape (r1, r2, phi) of floats."""
    return RNG.uniform(0.3, 2.0), RNG.uniform(0.3, 2.0), RNG.uniform(phi_min, pi - phi_min)


def random_velocity():
    """A random body state (omega, qdot)."""
    return RNG.normal(size=3), RNG.normal(size=3)


def body_hamiltonian(q, omega, qdot, V):
    """reduced_hamiltonian of the body state (omega, qdot) at the shape q =
    (r1, r2, phi)."""
    J, p = shape_momenta(*q, omega, qdot)
    return reduced_hamiltonian(*q, J, p, singular_term(*q, omega), V)


ZERO = np.zeros(3)


class TestReducedHamiltonian:
    def test_zero_state(self):
        assert reduced_hamiltonian(1.2, 0.8, 1.1, ZERO, ZERO, 0.0, 0.0) == 0.0

    def test_pure_j3_state(self):
        for r2 in (0.5, 1.0, 1.7):
            H = reduced_hamiltonian(1.0, r2, pi / 2, np.array([0.0, 0.0, 3.0]), ZERO, 0.0, 0.0)
            assert H == pytest.approx(4.5, rel=1e-14)

    def test_legendre_consistency(self):
        for _ in range(200):
            q = random_shape()
            w = random_velocity()
            K = kinetic_energy_body(*q, *w)
            V = RNG.normal()
            H = body_hamiltonian(q, *w, V)
            assert H == pytest.approx(K + V, rel=1e-10, abs=1e-10)

    def test_adds_potential(self):
        assert reduced_hamiltonian(1.0, 1.0, 1.0, ZERO, ZERO, 0.0, 2.5) == 2.5


class TestCollinearHamiltonian:
    """The finite form evaluated at collinear shapes (phi = 0 or pi)."""

    def test_zero_state(self):
        assert reduced_hamiltonian(1.0, 1.0, 0.0, ZERO, ZERO, 0.0, 0.0) == 0.0

    def test_documented_value(self):
        H = reduced_hamiltonian(1.0, 1.0, 0.0, np.array([0.0, 0.0, 2.0]), ZERO, 0.0, 0.0)
        assert H == pytest.approx(2.0, abs=1e-14)

    def test_two_closed_forms_agree(self):
        for _ in range(100):
            r1, r2 = RNG.uniform(0.3, 2.0, size=2)
            J3, p1, p2, p3 = RNG.normal(size=4)
            J, p = np.array([0.0, 0.0, J3]), np.array([p1, p2, p3])
            H = reduced_hamiltonian(r1, r2, 0.0, J, p, 0.0, 0.0)
            alt = (
                0.5 * (J3 - p3) ** 2 / r1 ** 2
                + 0.5 * p3 ** 2 / r2 ** 2
                + 0.5 * (p1 ** 2 + p2 ** 2)
            )
            assert H == pytest.approx(alt, rel=1e-12, abs=1e-12)

    def test_legendre_consistency_with_collinear_kinetic_energy(self):
        # every spin component, including the transverse w2 that bends the
        # line out of any fixed plane
        for phi in (0.0, pi):
            for _ in range(50):
                q0 = (*RNG.uniform(0.3, 2.0, size=2), phi)
                w = random_velocity()
                K0 = kinetic_energy_body(*q0, *w)
                V = RNG.normal()
                H = body_hamiltonian(q0, *w, V)
                assert H == pytest.approx(K0 + V, rel=1e-12, abs=1e-12)

    def test_degenerate_lengths_rejected(self):
        # r2 = 0, and squares that underflow to 0: DegenerateShape names the
        # divisor, for one state and for a batch with one such row beside a
        # regular one, before any NaN or numpy warning (an error here)
        for r1, r2, divisor in (
            (1.0, 0.0, "r2^2"),
            (1.0, 1e-170, "r2^2"),
            (1e-170, 1.0, "r1^2"),
            (1e-100, 1e-100, "r1^2 r2^2"),
        ):
            message = f"^{re.escape(divisor)} is 0: the reduced Hamiltonian divides by it$"
            with pytest.raises(DegenerateShape, match=message):
                reduced_hamiltonian(r1, r2, 0.0, ZERO, ZERO, 0.0, 0.0)
            r1s, r2s, ones = np.array([1.0, r1]), np.array([0.5, r2]), np.ones((2, 3))
            with pytest.raises(DegenerateShape, match=message):
                reduced_hamiltonian(r1s, r2s, np.ones(2), ones, ones, np.ones(2), np.zeros(2))


def _as_form(form, *args):
    """args, scalars and 3-vectors, as one float row, a one-row batch, or
    complex input."""
    if form == "array":
        return [np.array([x], float) for x in args]
    if form == "complex":
        return [np.asarray(x) + 0j if np.ndim(x) else complex(x) for x in args]
    return list(args)


FORMS = ["float", "array", "complex"]
ONES = np.ones(3)


class TestNamedOverflow:
    """An overflowing square, or an H that is not finite, is NumericalBlowup
    naming the quantity, before a float's OverflowError or an array's
    RuntimeWarning (an error here)."""

    @pytest.mark.parametrize("form", FORMS)
    def test_r1_squared(self, form):
        args = _as_form(form, 1e200, 0.5, 0.3, ONES, ONES, 0.1, 0.0)
        with pytest.raises(NumericalBlowup, match=r"^r1\^2 overflows$"):
            reduced_hamiltonian(*args)

    @pytest.mark.parametrize("form", FORMS)
    def test_singular_term_squared(self, form):
        args = _as_form(form, 1.0, 1.0, 0.3, ONES, ONES, 1e200, 0.0)
        with pytest.raises(NumericalBlowup, match=r"^T\^2 overflows$"):
            reduced_hamiltonian(*args)

    @pytest.mark.parametrize("form", FORMS)
    def test_r2_squared_in_singular_term(self, form):
        args = _as_form(form, 1.0, 1e200, 0.3, ONES)
        with pytest.raises(NumericalBlowup, match=r"^r2\^2 overflows$"):
            singular_term(*args)

    @pytest.mark.parametrize(
        "omega, name",
        [
            ([1e300, 0.0, 0.0], r"r2\^2 w1 sin\(phi\)"),
            ([0.0, 1e300, 0.0], r"r2\^2 w2 cos\(phi\)"),
            # each product is 1.2e308, their difference is not finite
            ([1.7e108, -1.7e108, 0.0], r"r2\^2 w1 sin\(phi\) - r2\^2 w2 cos\(phi\)"),
        ],
        ids=["w1", "w2", "difference"],
    )
    @pytest.mark.parametrize("form", FORMS)
    def test_singular_term_products(self, form, omega, name):
        # r2^2 = 1e200 is finite, a product with omega is not
        args = _as_form(form, 1.0, 1e100, pi / 4, np.array(omega))
        with pytest.raises(NumericalBlowup, match=f"^{name} overflows$"):
            singular_term(*args)

    @pytest.mark.parametrize("form", FORMS)
    def test_h_not_finite(self, form):
        # every square is finite, but r1^2 + r2^2 is not
        args = _as_form(form, 1e154, 1e154, 0.3, ONES, ONES, 0.1, 0.0)
        with pytest.raises(NumericalBlowup, match="^H is not finite$"):
            reduced_hamiltonian(*args)

    def test_largest_finite_square_keeps_its_bits(self):
        # the guard refuses no square that is finite
        r1 = sqrt(sys.float_info.max)
        assert reduced_hamiltonian(r1, 1.0, 0.3, ZERO, ZERO, 0.0, 0.0) == 0.0
        assert singular_term(1.0, r1, 0.0, np.array([0.0, -1e-300, 0.0])) == r1 ** 2 * 1e-300


class TestSingularTerm:
    def test_collinear_zero_transverse_spin(self):
        assert singular_term(1.0, 1.4, 0.0, np.array([0.7, 0.0, 0.2])) == 0.0

    def test_collinear_limit_value(self):
        for c in (0.5, -1.2, 3.0):
            T = singular_term(1.0, 1.5, 0.0, np.array([0.3, c, 0.0]))
            assert T == pytest.approx(-1.5 ** 2 * c, abs=1e-15)

    def test_matches_direct_quotient(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            omega, qdot = random_velocity()
            J1 = body_angular_momentum(*q, omega, qdot)[0]
            assert singular_term(*q, omega) == pytest.approx(
                J1 / sin(q[2]), rel=1e-12, abs=1e-12
            )

    def test_product_with_sin_phi_is_j1(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            omega, qdot = random_velocity()
            J1 = body_angular_momentum(*q, omega, qdot)[0]
            T = singular_term(*q, omega)
            assert T * sin(q[2]) == pytest.approx(J1, abs=1e-14)


class TestFormulaOnArrays:
    """reduced_hamiltonian and singular_term on (N,) columns and (N, 3)
    vectors, one call for the batch, and on complex input."""

    N = 20000

    def columns(self):
        """Shapes, momenta, body angular velocities, T and V >= 0 of N states."""
        rng = np.random.default_rng(2401)
        r1, r2 = rng.uniform(0.3, 2.0, size=(2, self.N))
        phi = rng.uniform(0.0, pi, self.N)
        J, p, omega = rng.normal(size=(3, self.N, 3))
        return r1, r2, phi, J, p, omega, rng.normal(size=self.N), rng.uniform(0.0, 2.0, self.N)

    def test_batch_equals_its_rows(self):
        # every square is x * x, so a float call has its row's bits (a
        # float's x ** 2 is libm's pow, which rounds otherwise on some rows)
        r1, r2, phi, J, p, omega, T, V = self.columns()
        masses = MassTriple(1.0, 1.5, 2.0)
        H = reduced_hamiltonian(r1, r2, phi, J, p, T, V)
        terms = singular_term(r1, r2, phi, omega)
        d = np.transpose(geometry.shape_to_distances(masses, r1, r2, phi))
        differ = {"H": 0, "T": 0, "d": 0}
        for k in range(self.N):
            shape = float(r1[k]), float(r2[k]), float(phi[k])
            row = reduced_hamiltonian(*shape, J[k], p[k], float(T[k]), float(V[k]))
            differ["H"] += row != H[k]
            differ["T"] += singular_term(*shape, omega[k]) != terms[k]
            differ["d"] += geometry.shape_to_distances(masses, *shape) != tuple(d[k])
        assert differ == {"H": 0, "T": 0, "d": 0}

    def test_complex_step_gives_the_derivatives(self):
        # a step of i h in p1, p2 or V puts h dH/dp1 = h p1, h p2 or h into
        # the imaginary part of H
        r1, r2, phi, J, p, _, T, V = self.columns()
        h = 1e-20
        for k, derivative in ((0, p[:, 0]), (1, p[:, 1]), (None, 1.0)):
            p_step, V_step = p.astype(complex), V.astype(complex)
            if k is None:
                V_step += 1j * h
            else:
                p_step[:, k] += 1j * h
            dH = reduced_hamiltonian(r1, r2, phi, J, p_step, T, V_step).imag / h
            assert np.all(np.abs(dH - derivative) <= 1e-14 * np.maximum(1.0, np.abs(derivative)))


def collinear_jacobi(transverse=1.0, axial=0.3):
    """Collinear Jacobi state with transverse velocity so that L != 0:
    rows s1, s2, sdot1 and sdot2."""
    return np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0], [0.0, 0.0, axial], [transverse, 0.0, 0.0]])


def rotated(Q, j):
    """The rows of j, each turned by Q."""
    return np.array([Q @ v for v in j])


def fitted_frame(j, collinear_threshold=COLLINEAR_THRESHOLD):
    """R (R s_body = s_space) and the shape of body_frames' fit of the one
    state whose Jacobi rows are j."""
    axes, r1, r2, phi = body_frames(*j[:, None], collinear_threshold)[:4]
    return frame_matrices(axes)[0].T, (r1[0], r2[0], phi[0])


class TestAlignCollinearFrame:
    """The body frame body_frames picks at collinear shapes."""

    def test_documented_frame(self):
        j = collinear_jacobi()
        # bending sd2 - (r2/r1) sd1 = (1,0,0) sets u2; L = (0,1,0) is along u3
        R, _ = fitted_frame(j)
        assert np.allclose(R[:, 0], [0, 0, 1], atol=1e-14)  # u1 = e3
        assert np.allclose(R[:, 1], [1, 0, 0], atol=1e-14)  # u2 = e1
        assert np.allclose(R[:, 2], [0, 1, 0], atol=1e-14)  # u3 = e2

    def test_transverse_j_components_vanish(self):
        for _ in range(20):
            Q = random_rotation(RNG)
            j0 = collinear_jacobi(transverse=RNG.uniform(0.5, 2.0))
            j = rotated(Q, j0)
            R, _ = fitted_frame(j)
            J = R.T @ (np.cross(j[0], j[2]) + np.cross(j[1], j[3]))
            assert abs(J[0]) < 1e-12 and abs(J[1]) < 1e-12
            assert J[2] > 0

    def test_fitted_frames_converge_to_aligned_frame(self):
        # free motion through a collinear configuration at t = 0; sdot1
        # tilts the molecular line so frames move
        j0 = np.array([
            [0.0, 0.0, 2.0],
            [0.0, 0.0, 1.0],
            [0.15, 0.0, 0.3],
            [1.0, 0.0, 0.0],
        ])
        R0, _ = fitted_frame(j0)
        half_turn = np.diag([1.0, -1.0, -1.0])
        deviations = []
        deltas = [1e-2, 1e-3, 1e-4]
        for delta in deltas:
            worst = 0.0
            for t in (-delta, delta):
                j = np.array([j0[0] + t * j0[2], j0[1] + t * j0[3], j0[2], j0[3]])
                R, _ = fitted_frame(j)
                dev = min(
                    np.max(np.abs(R - R0)), np.max(np.abs(R @ half_turn - R0))
                )
                worst = max(worst, dev)
            deviations.append(worst)
        # deviation shrinks linearly with delta
        assert deviations[1] < 0.2 * deviations[0]
        assert deviations[2] < 0.2 * deviations[1]


class TestEvaluateReduced:
    def _random_cartesian(self, masses):
        # zero total momentum: the reduced Hamiltonian is the energy in the
        # center-of-mass frame
        pos = RNG.normal(size=(3, 3))
        vel = RNG.normal(size=(3, 3))
        vel -= masses.as_array() @ vel / masses.total
        return CartesianState(*pos, *vel)

    def test_noncollinear_matches_total_energy(self):
        masses = MassTriple(1.0, 2.0, 0.6)
        potential = builtin_potential("harmonic", k=0.4)
        for _ in range(50):
            state = self._random_cartesian(masses)
            ev = evaluate_reduced(masses, state, potential)
            E = total_energy(masses, state, potential)
            assert ev.H == pytest.approx(E, rel=1e-10, abs=1e-10)

    def test_collinear_branch_matches_total_energy(self):
        masses = MassTriple(1.0, 1.0, 1.0)
        potential = parse_potential("d12 ^ 2 + d13 ^ 2 + d23 ^ 2")
        for _ in range(20):
            Q = random_rotation(RNG)
            j0 = collinear_jacobi(
                transverse=RNG.uniform(0.5, 2.0), axial=RNG.normal()
            )
            state = cartesian_from_jacobi(masses, *rotated(Q, j0))
            ev = evaluate_reduced(masses, state, potential)
            assert ev.branch == "collinear"
            E = total_energy(masses, state, potential)
            assert np.isfinite(ev.H)
            assert ev.H == pytest.approx(E, rel=1e-10, abs=1e-10)

    def test_branch_dispatch(self):
        masses = MassTriple(1.0, 1.0, 1.0)
        cases = [
            (pi / 6, RNG.normal(size=3), RNG.normal(size=3), "noncollinear"),
            (0.0, RNG.normal(size=3), RNG.normal(size=3), "collinear"),
        ]
        for phi, omega, qdot, branch in cases:
            q = (1.0, 1.0, phi)
            b1, b2 = body_jacobi_vectors(*q)
            v1, v2 = body_velocities(*q, omega, qdot)
            state = cartesian_from_jacobi(masses, b1, b2, v1, v2)
            ev = evaluate_reduced(masses, state, FREE)
            assert ev.branch == branch
            assert ev.H == pytest.approx(kinetic_energy_body(*q, omega, qdot), rel=1e-12)

    def test_collinear_rotation_invariance(self):
        masses = MassTriple(1.0, 1.5, 0.8)
        j0 = collinear_jacobi(transverse=1.3, axial=-0.4)
        H_ref = None
        for _ in range(10):
            Q = random_rotation(RNG)
            ev = evaluate_reduced(masses, cartesian_from_jacobi(masses, *rotated(Q, j0)), FREE)
            if H_ref is None:
                H_ref = ev.H
            assert ev.H == pytest.approx(H_ref, rel=1e-10, abs=1e-10)

    def test_conditioning_warning_in_band(self):
        # sin(phi) inside the conditioning band but above the collinear
        # threshold: the noncollinear rule applies and H stays exact
        masses = MassTriple(1.0, 1.0, 1.0)
        q = (1.0, 1.0, 1e-4)
        w = np.array([0.0, 0.0, 0.3]), np.array([0.1, 0.2, 0.4])
        b1, b2 = body_jacobi_vectors(*q)
        v1, v2 = body_velocities(*q, *w)
        state = cartesian_from_jacobi(masses, b1, b2, v1, v2)
        ev = evaluate_reduced(masses, state, FREE)
        assert ev.branch == "noncollinear"
        assert COLLINEAR_THRESHOLD < ev.sin_phi < BAND_THRESHOLD
        assert ev.H == pytest.approx(kinetic_energy_body(*q, *w), rel=1e-12)


class TestShapeStart:
    MASSES = MassTriple(1.0, 1.5, 2.0)

    # its refusals are TestEvaluate::test_unrealisable_shape_exit_3 in test_cli.py
    @pytest.mark.parametrize("r1", [1.0, 1e-3, 1e-5, 1e-7])
    def test_momenta_round_trip(self, r1):
        # the body velocities are read off (J, p), so evaluate_reduced gives
        # them back as r1 / r2 falls; through velocities_from_momenta the
        # error was 1.0e-5 at r1 = 1e-5 and 7.6e-2 at r1 = 1e-7
        rng = np.random.default_rng(1502)
        potential = builtin_potential("harmonic", k=0.7)
        worst = 0.0
        for _ in range(200):
            phi = rng.uniform(0.3, 2.8)
            J, p = rng.normal(size=3), rng.normal(size=3)
            state = cartesian_from_momenta(self.MASSES, r1, 1.0, phi, J, p)
            ev = evaluate_reduced(self.MASSES, state, potential)
            errors = np.abs(np.concatenate([ev.J - J, ev.p - p]))
            worst = max(worst, float(np.max(errors)))
        assert worst <= 1e-8


class TestCollinearLimit:
    def test_limit_is_quadratic_in_phi(self):
        w = np.array([0.9, 0.0, 0.4]), np.array([0.2, -0.3, 0.6])

        def H(phi):
            return body_hamiltonian((1.3, 0.8, phi), *w, 0.0)

        H0 = H(0.0)
        phis = [10.0 ** (-k) for k in range(1, 7)]
        diffs = [abs(H(phi) - H0) for phi in phis]
        assert all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))
        slope = np.polyfit(np.log(phis), np.log(diffs), 1)[0]
        assert 1.8 <= slope <= 2.2


COLLINEAR_KINDS = ("collinear_planar", "collinear_3d", "zero_L")
CLOSE_KINDS = ("close_12", "close_13", "close_23")
PHI_BY_KIND = {
    # for a close encounter, the direction of the gap between the two bodies
    **dict.fromkeys(CLOSE_KINDS, st.floats(0.0, 2 * pi)),
    "collinear_planar": st.sampled_from([0.0, pi]),
    "collinear_3d": st.sampled_from([0.0, pi]),
    "zero_L": st.sampled_from([0.0, pi]),
    "sub_threshold": st.floats(1e-12, 1e-8, exclude_max=True),
    "near_meeting": st.floats(1e-12, 1e-8, exclude_max=True),
    "near_collinear": st.floats(1e-8, 1e-3),
    "generic": st.floats(1e-3, pi - 1e-3),
}


MASS_TRIPLES = st.tuples(*[st.floats(0.3, 3.0)] * 3).map(lambda m: MassTriple(*m))
VECTORS = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)
ROTATIONS = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_rotation(np.random.default_rng(seed))
)


@st.composite
def rotated_states(draw, masses=MASS_TRIPLES, kinds=st.sampled_from(sorted(PHI_BY_KIND))):
    """Zero-momentum Cartesian state of a given shape kind, randomly
    rotated.  Collinear kinds have s2 exactly parallel to s1 after the
    rotation; zero_L ones also have L = 0 (as the figure-eight start);
    near_meeting ones have body 2 over body 1, at a distance of order
    r2 sin(phi) from it; close_ij ones have bodies i and j 1e-8 to 1e-5 of
    the size of the shape apart."""
    masses = draw(masses)
    kind = draw(kinds)
    phi = draw(PHI_BY_KIND[kind])
    if kind in ("sub_threshold", "near_collinear") and draw(st.booleans()):
        phi = pi - phi
    r1, r2 = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    if kind == "near_meeting":
        # body 1 sits m3/(m1 + m3) |x1 - x3| from the 1-3 center of mass
        mu1, mu2 = reduced_masses(masses)
        r2 = sqrt(mu2 / mu1) * masses.m3 / (masses.m1 + masses.m3) * r1 / cos(phi)
    b2 = np.array([r2 * cos(phi), r2 * sin(phi), 0.0])
    if kind in CLOSE_KINDS:
        gap = draw(st.floats(1e-8, 1e-5))
        if kind == "close_13":
            r1 = gap * r2
        else:
            # bodies 1 and 3 sit m3 and -m1 over (m1 + m3) of x1 - x3 from
            # their center of mass; body 2 goes beside one of them
            mu1, mu2 = reduced_masses(masses)
            side = masses.m3 if kind == "close_12" else -masses.m1
            beside = sqrt(mu2 / mu1) * side / (masses.m1 + masses.m3) * r1
            b2 = gap * b2 + np.array([beside, 0.0, 0.0])
    sd1, sd2 = draw(VECTORS), draw(VECTORS)
    k = r2 / r1 * cos(phi)
    if kind == "collinear_planar":
        sd1[2] = sd2[2] = 0.0
    if kind == "zero_L":
        # L = r1 e1 x (sd1 + k sd2) in the body frame
        sd1[1:] = -k * sd2[1:]
    Q = draw(ROTATIONS)
    s1 = Q @ np.array([r1, 0.0, 0.0])
    if kind in COLLINEAR_KINDS:
        s2 = k * s1
    else:
        s2 = Q @ b2
    state = cartesian_from_jacobi(masses, s1, s2, Q @ sd1, Q @ sd2)
    return kind, masses, state


class TestFiniteEverywhere:
    @settings(max_examples=600, deadline=None)
    @given(rotated_states())
    def test_hamiltonian_equals_cm_energy(self, case):
        kind, masses, state = case
        potential = builtin_potential("harmonic", k=0.7)
        ev = evaluate_reduced(masses, state, potential)
        E = total_energy(masses, state, potential)
        assert abs(ev.H - E) / max(1.0, abs(E)) <= 1e-10, kind
        if kind in COLLINEAR_KINDS:
            assert ev.branch == "collinear"


@st.composite
def degenerate_states(draw, masses):
    """A state with r2 = 0 (body 2 at the 1-3 center of mass) or r1 = 0
    (bodies 1 and 3 coincide), exactly, and random velocities."""
    Q = draw(ROTATIONS)
    x1 = Q @ np.array([draw(st.floats(0.3, 2.0)), 0.0, 0.0])
    x3 = -x1 if draw(st.booleans()) else x1
    x2 = (masses.m1 * x1 + masses.m3 * x3) / (masses.m1 + masses.m3)
    if np.array_equal(x1, x3):
        x2 = Q @ np.array([0.0, draw(st.floats(0.3, 2.0)), 0.0])
    return CartesianState(x1, x2, x3, draw(VECTORS), draw(VECTORS), draw(VECTORS))


@st.composite
def state_batches(draw):
    masses = draw(MASS_TRIPLES)
    one = st.one_of(
        rotated_states(st.just(masses)).map(lambda case: case[2]),
        degenerate_states(masses),
    )
    return masses, draw(st.lists(one, min_size=1, max_size=6))


BATCH_POTENTIALS = (
    builtin_potential("harmonic", k=0.7),
    parse_potential("0.35*(d12 - 1)^2 + 0.5*(d23 - 0.8)^2 + r2^2*cos(phi)/4 + r1/3"),
    # reads the shape but not phi, so it has a V at r1 = 0 and r2 = 0 too
    parse_potential("0.5*r1^2 + r2/3 + 0.35*(d12 - 1)^2"),
)


def _close(a, b):
    """|a - b| <= 1e-12 max(1, |b|), for scalars or 3-vectors."""
    return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.linalg.norm(b)))


class TestBatchKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        state_batches(),
        st.sampled_from(BATCH_POTENTIALS),
        st.sampled_from([COLLINEAR_THRESHOLD, 0.5]),
    )
    def test_rows_match_scalar_reference(self, batch, potential, threshold):
        masses, states = batch
        x = np.array([s.positions for s in states])
        v = np.array([s.velocities for s in states])
        s1, s2 = jacobi_map(masses, x[:, 0], x[:, 1], x[:, 2])
        if "phi" in potential.reads and not (s1.any(axis=1) & s2.any(axis=1)).all():
            # r1 = 0 or r2 = 0 on some row: phi, and so the V that E_total
            # takes, is undefined there
            with pytest.raises(DomainError) as err:
                evaluate_reduced_batch(masses, x, v, potential, threshold)
            assert err.value.node == "phi"
            return
        out = evaluate_reduced_batch(masses, x, v, potential, threshold)
        for i, state in enumerate(states):
            j = np.array(
                [*jacobi_map(masses, *state.positions), *jacobi_map(masses, *state.velocities)]
            )
            E = total_energy(masses, state, potential)
            L = np.cross(j[0], j[2]) + np.cross(j[1], j[3])
            assert _close(out.E_total[i], E)
            assert _close(out.L[i], L)
            # row independence: the one-state evaluation of the same state
            try:
                ev = evaluate_reduced(masses, state, potential, threshold)
            except DegenerateShape:
                assert out.branch[i] == "degenerate"
                nan = [out.phi[i], out.sin_phi[i], out.singular_term[i], out.H_reduced[i]]
                nan += [*out.J[i], *out.p[i]]
                assert np.all(np.isnan(nan))
                continue
            assert out.branch[i] == ev.branch
            assert _close(out.H_reduced[i], ev.H)
            for name in ("r1", "r2", "phi", "sin_phi", "J", "p", "singular_term"):
                assert _close(getattr(out, name)[i], getattr(ev, name))

            # independent oracles; the non-degenerate states have their
            # center of mass at rest, so H equals the Cartesian energy
            noncollinear = out.branch[i] == "noncollinear"
            assert _close(out.H_reduced[i], E)
            R, q = fitted_frame(j, threshold)
            if noncollinear or out.sin_phi[i] <= 1e-14:
                assert _close(out.J[i], R.T @ L)
            # the inverse Legendre map divides by sin(phi)^2 and by r1^2 r2^2:
            # it is an oracle only where neither is small
            shorter, longer = sorted((out.r1[i], out.r2[i]))
            if out.sin_phi[i] > 1e-3 and noncollinear and shorter > 1e-3 * longer:
                w = velocities_from_momenta(*q, out.J[i], out.p[i])
                v1, v2 = body_velocities(*q, *w)
                assert _close(v1, R.T @ j[2])
                assert _close(v2, R.T @ j[3])
                J, p = shape_momenta(*q, *w)
                assert _close(out.J[i], J)
                assert _close(out.p[i], p)


class TestOneRowPath:
    @settings(max_examples=300, deadline=None)
    @given(
        rotated_states(),
        st.sampled_from(BATCH_POTENTIALS),
    )
    def test_equals_the_batch_at_one_row(self, case, potential):
        # evaluate_reduced maps positions and velocities in one call; the
        # batch kernel on a one-row batch (the route of `evaluate`) gives
        # the same bits in every field
        kind, masses, state = case
        ev = evaluate_reduced(masses, state, potential)
        out = evaluate_reduced_batch(
            masses, state.positions[None], state.velocities[None], potential
        )
        assert (ev.H, ev.r1, ev.r2, ev.phi) == (
            out.H_reduced[0], out.r1[0], out.r2[0], out.phi[0]
        ), kind
        assert (ev.singular_term, ev.sin_phi, ev.branch) == (
            out.singular_term[0], out.sin_phi[0], out.branch[0]
        ), kind
        assert np.array_equal(ev.J, out.J[0]), kind
        assert np.array_equal(ev.p, out.p[0]), kind

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflow_raises_named(self):
        # an overflow of the Jacobi map, or of the kinetic terms with
        # finite Jacobi vectors, is named instead of validated or returned
        masses = MassTriple(1.0, 1.0, 1.0)
        gravity = builtin_potential("gravity", G=1.0)
        x = [[0.97000436, -0.24308753, 0.0], [-0.97000436, 0.24308753, 0.0], [0.0, 0.0, 0.0]]
        v = [[0.466203685, 0.43236573, 0.0], [0.466203685, 0.43236573, 0.0], [-0.93240737, -0.86473146, 0.0]]
        far = CartesianState(*[[1e308, 0, 0], [0, 1, 0], [-1e308, 0, 0]], *v)
        fast = CartesianState(*x, *[[1e200, 0, 0], [0, 0, 1e200], [-1e200, 0, -1e200]])
        with pytest.raises(NumericalBlowup, match="^Jacobi vector overflow at row 0$"):
            evaluate_reduced(masses, far, gravity)
        with pytest.raises(NumericalBlowup, match="H_reduced"):
            evaluate_reduced(masses, fast, gravity)
        # the batch names the quantity and the row, behind a finite row
        ok = CartesianState(*x, *v)
        # finite Jacobi vectors and energy, but r1 |s1dot| overflows, and
        # so does |s1 x s2| where body 2 is off the line of 1 and 3
        spin = [[0, 1e10, 0], [0, 0, 0], [0, -1e10, 0]]
        line = CartesianState(*[[1e300, 0, 0], [1, 0, 0], [-1e300, 0, 0]], *spin)
        bent = CartesianState(*[[1e300, 0, 0], [0, 1, 0], [-1e300, 0, 0]], *spin)
        for state, quantity in (
            (far, "Jacobi vector"), (bent, "sin_phi"), (fast, "E_total"), (line, "L")
        ):
            x2 = np.array([ok.positions, state.positions])
            v2 = np.array([ok.velocities, state.velocities])
            with pytest.raises(NumericalBlowup, match=f"^{quantity} overflow at row 1$"):
                evaluate_reduced_batch(masses, x2, v2, gravity)

    def test_sin_phi_overflow_is_named(self):
        # a seeded state: at positions times 1e80 |s1 x s2| overflows
        # though the Jacobi vectors do not, and sin_phi = inf read phi as
        # pi/2 (true 0.329) and H_reduced 0.1107 against E_total 1.7525;
        # at 1e0 and 1e77 phi is right and one state has its row's bits
        masses, free = MassTriple(1.0, 1.5, 2.0), builtin_potential("free")
        rng = np.random.default_rng(0)
        x, v = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        m = masses.as_array()[:, None]
        x, v = x - np.sum(m * x, 0) / masses.total, v - np.sum(m * v, 0) / masses.total
        for k in (0, 77):
            ev = evaluate_reduced(masses, CartesianState(*x * 10.0**k, *v), free)
            out = evaluate_reduced_batch(masses, x[None] * 10.0**k, v[None], free)
            assert ev.phi == 0.32904844593902194
            assert (ev.H, ev.phi, ev.sin_phi) == (out.H_reduced[0], out.phi[0], out.sin_phi[0])
        state = CartesianState(*x * 1e80, *v)
        rows = np.array([x, x * 1e80])
        # the one-state path warns in geometry._length first
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalBlowup, match="^sin_phi overflow at row 0$"):
                evaluate_reduced(masses, state, free)
            with pytest.raises(NumericalBlowup, match="^sin_phi overflow at row 1$"):
                evaluate_reduced_batch(masses, rows, np.array([v, v]), free)


def jacobi_vectors(masses, state):
    """The four 3-vectors (s1, s2, sd1, sd2) of a state."""
    return (*jacobi_map(masses, *state.positions), *jacobi_map(masses, *state.velocities))


@st.composite
def unbent_jacobi(draw):
    """The Jacobi vectors of an exactly collinear state with no bending
    rate, which gets the fixed perpendicular frame: at rest, or on an axis
    with its rates along it."""
    r1, k = draw(st.floats(0.3, 2.0)), draw(st.floats(-2.0, 2.0).filter(bool))
    axis = np.eye(3)[draw(st.integers(0, 2))]
    s1 = r1 * (draw(ROTATIONS) @ axis if draw(st.booleans()) else axis)
    if np.array_equal(s1, r1 * axis):
        rates = [draw(st.floats(-2.0, 2.0)) * axis for _ in range(2)]
    else:
        rates = [np.zeros(3)] * 2
    return s1, k * s1, *rates


ONE_STATE_KINDS = (*sorted(PHI_BY_KIND), "degenerate", "unbent")


def kind_jacobi(kind):
    """The Jacobi vectors of states of one kind of rotated_states, or of a
    degenerate (r1 = 0 or r2 = 0) or unbent state."""
    if kind == "unbent":
        return unbent_jacobi()
    if kind == "degenerate":
        return MASS_TRIPLES.flatmap(
            lambda m: degenerate_states(m).map(lambda state: jacobi_vectors(m, state))
        )
    return rotated_states(kinds=st.just(kind)).map(lambda case: jacobi_vectors(*case[1:]))


ANY_JACOBI = st.sampled_from(ONE_STATE_KINDS).flatmap(kind_jacobi)


def _bits(value):
    return np.asarray(value).tobytes()


class TestOneStateKernel:
    """measure_shape, body_frames and the kernel on one state given as four
    3-vectors run the batch's operations on numpy scalars: each output is
    its row of the (N, 3) call, bit for bit."""

    @pytest.mark.parametrize("kind", ONE_STATE_KINDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_state_is_its_row(self, kind, data):
        states = data.draw(st.lists(ANY_JACOBI, max_size=5))
        states.insert(data.draw(st.integers(0, len(states))), data.draw(kind_jacobi(kind)))
        threshold = data.draw(st.sampled_from([COLLINEAR_THRESHOLD, 0.5]))
        s1, s2, sd1, sd2 = (np.array(rows) for rows in zip(*states))
        shape = geometry.measure_shape(s1, s2)
        frames = body_frames(s1, s2, sd1, sd2, threshold)
        kernel = hamiltonian._reduce_rows(threshold, s1, s2, sd1, sd2)
        for i, vectors in enumerate(states):
            one = geometry.measure_shape(*vectors[:2])
            normal, one_normal = shape[2], one[2]
            assert [_bits(c[i]) for c in normal] == [_bits(c) for c in one_normal]
            for column, value in zip(shape[:2] + shape[3:], one[:2] + one[3:]):
                assert isinstance(value, np.float64) and _bits(column[i]) == _bits(value)
            one = body_frames(*vectors, threshold)
            assert [_bits(c[i]) for u in frames[0] for c in u] == [
                _bits(c) for u in one[0] for c in u
            ]
            for column, value in zip(frames[1:-1], one[1:-1]):
                assert isinstance(value, np.generic) and _bits(column[i]) == _bits(value)
            marked = frames[-1] is not None and frames[-1][i]
            assert (one[-1] is not None) == marked, kind
            one = hamiltonian._reduce_rows(threshold, *vectors)
            for name, column, value in zip(("J", "p", "T", "K"), kernel[-4:], one[-4:]):
                assert _bits(column[i]) == _bits(value), (kind, name)
            assert one[-4].shape == one[-3].shape == (3,)
            assert isinstance(one[-2], np.float64) and isinstance(one[-1], np.float64)


class TestMeasuredPhi:
    """phi is measure_shape's angle on every row, under either frame rule."""

    MASSES = MassTriple(1.0, 1.5, 2.0)
    # below the collinear threshold, at phi = 0 exactly, and generic
    PHIS = [1e-9, 3e-12, pi - 1e-10, 0.0, 1.1]

    def states(self):
        rng = np.random.default_rng(2707)
        for phi in self.PHIS:
            v1, v2 = rng.normal(size=(2, 3))
            yield cartesian_from_jacobi(self.MASSES, *body_jacobi_vectors(1.0, 0.8, phi), v1, v2)

    def measured_phi(self, x):
        """measure_shape's phi of (N, 3, 3) positions."""
        return geometry.measure_shape(*jacobi_map(self.MASSES, x[:, 0], x[:, 1], x[:, 2]))[-1]

    def test_phi_is_measured_in_every_entry_point(self, tmp_path):
        from trireduce.cli import main

        potential = builtin_potential("harmonic", k=0.7)
        states = list(self.states())
        x = np.array([state.positions for state in states])
        v = np.array([state.velocities for state in states])
        phi = self.measured_phi(x)
        assert np.count_nonzero(np.sin(phi) <= COLLINEAR_THRESHOLD) == 4
        out = evaluate_reduced_batch(self.MASSES, x, v, potential)
        assert out.phi.tolist() == phi.tolist()
        E = out.E_total
        assert np.all(np.abs(out.H_reduced - E) <= 1e-10 * np.maximum(1.0, np.abs(E)))
        for state, measured in zip(states, phi.tolist()):
            ev = evaluate_reduced(self.MASSES, state, potential)
            assert ev.phi == measured
            config = {
                "masses": [1.0, 1.5, 2.0],
                "potential": {"builtin": "harmonic", "params": {"k": 0.7}},
                "initial_state": {
                    "cartesian": {
                        "positions": state.positions.tolist(),
                        "velocities": state.velocities.tolist(),
                    }
                },
                "integrator": {"dt": 1e-3, "steps": 3},
            }
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 0
            lines = (tmp_path / "t.csv").read_text().splitlines()
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            assert float(rows[0]["phi"]) == measured
            for row in rows:
                xs = np.array([[[float(row[f"x{i}{c}"]) for c in "xyz"] for i in "123"]])
                assert float(row["phi"]) == self.measured_phi(xs)[0]
                H, E = float(row["H_reduced"]), float(row["E_total"])
                assert abs(H - E) <= 1e-10 * max(1.0, abs(E))


class TestOnePass:
    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("potential", BATCH_POTENTIALS, ids=["harmonic", "phi", "shape"])
    def test_maps_and_measures_once(self, monkeypatch, n, potential):
        # a regular batch maps its positions once and its velocities once,
        # and its frames and its V read one measurement of the shape
        masses = MassTriple(1.0, 2.0, 0.6)
        rng = np.random.default_rng(n)
        x, v = rng.normal(size=(n, 3, 3)), rng.normal(size=(n, 3, 3))
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append((name, args[1] if name == "jacobi_map" else None))
                return fn(*args)

            return counted

        for module in (hamiltonian, geometry, potential_module):
            for name in ("jacobi_map", "measure_shape"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        out = evaluate_reduced_batch(masses, x, v, potential)
        assert not np.any(out.branch == "degenerate")
        mapped = [np.shares_memory(a, x) for name, a in calls if name == "jacobi_map"]
        assert sorted(mapped) == [False, True]
        assert [name for name, _ in calls].count("measure_shape") == 1

    def test_degenerate_shape_before_potential(self):
        # evaluate_reduced checks the shape before it evaluates V, so r1 = 0
        # under gravity (d13 = 0) and r2 = 0 under an expression that reads
        # phi raise DegenerateShape, not V's DomainError; the batch runs V
        masses = MassTriple(1.0, 2.0, 1.0)
        z = np.zeros(3)
        r1_zero = CartesianState([1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0], z, z, z)
        r2_zero = CartesianState([1.0, 0, 0], z, [-1.0, 0, 0], z, z, z)
        for state, potential, message in (
            (r1_zero, builtin_potential("gravity"), "^[|]s1[|] = 0: body frame undefined$"),
            (r2_zero, BATCH_POTENTIALS[1], "^r2 = 0: phi undefined$"),
        ):
            with pytest.raises(DegenerateShape, match=message):
                evaluate_reduced(masses, state, potential)
            with pytest.raises(DomainError):
                evaluate_reduced_batch(
                    masses, state.positions[None], state.velocities[None], potential
                )


# The north-star sweep: per family, SWEEP_TRIPLES mass triples log-uniform
# in [1e-3, 1e3], each with SWEEP_STATES zero-momentum, randomly rotated
# states, under every potential of SWEEP_POTENTIALS
SWEEP_FAMILIES = (
    "generic", "near_collinear", "collinear_planar", "collinear_3d",
    "small_r2", "close_12", "close_13", "close_23",
)
SWEEP_TRIPLES, SWEEP_STATES = 50, 200
PAIR_INDICES = ((0, 1), (0, 2), (1, 2))
# each potential with its pair energy (distance, m_i, m_k), for the oracle
SWEEP_POTENTIALS = (
    (builtin_potential("gravity", G=1.0), lambda d, mi, mk: -mi * mk / d),
    (builtin_potential("harmonic", k=1.0), lambda d, mi, mk: 0.5 * (d - 1.0) ** 2),
    (parse_potential("-1/d12 - 1/d13 - 1/d23"), lambda d, mi, mk: -1.0 / d),
)


def _random_rotations(rng, n):
    """n rotations, uniform on SO(3): the Q of the QR decomposition of a
    Gaussian matrix, its signs fixed by R, one axis flipped where it is a
    reflection."""
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0.0, :, 0] *= -1.0
    return q


def _rotate(rotations, a):
    """Each rotation of the (n, 3, 3) stack applied to the rows of a[n]."""
    return np.einsum("nij,nkj->nki", rotations, a)


def sweep_states(rng, family, m, n):
    """n states of a family for the masses m, as (n, 3, 3) positions and
    velocities.  Close encounters are drawn as positions, two bodies 1e-8
    to 1e-5 of the size of the configuration apart; the other families as
    Jacobi vectors, mapped back with the center of mass at the origin.
    Velocities have zero total momentum, and every state is rotated."""
    rotations = _random_rotations(rng, n)
    if family.startswith("close"):
        x = rng.normal(size=(n, 3, 3))
        i, k = PAIR_INDICES[("close_12", "close_13", "close_23").index(family)]
        gap = rng.normal(size=(n, 3))
        size = 10.0 ** rng.uniform(-8.0, -5.0, n) * np.linalg.norm(x, axis=(1, 2))
        x[:, k] = x[:, i] + (size / np.linalg.norm(gap, axis=1))[:, None] * gap
        v = rng.normal(size=(n, 3, 3))
        v -= (m @ v / m.sum())[:, None]
        return _rotate(rotations, x), _rotate(rotations, v)
    r1, r2 = rng.uniform(0.3, 2.0, size=(2, n))
    phi = rng.uniform(1e-3, pi - 1e-3, n)
    if family == "near_collinear":
        phi = 10.0 ** rng.uniform(-16.0, -3.0, n)
        phi = np.where(rng.random(n) < 0.5, phi, pi - phi)
    if family == "small_r2":
        r2 = r1 * 10.0 ** rng.uniform(-8.0, 0.0, n)
    s = np.zeros((n, 2, 3))
    s[:, 0, 0] = r1
    s[:, 1, 0], s[:, 1, 1] = r2 * np.cos(phi), r2 * np.sin(phi)
    sd = rng.normal(size=(n, 2, 3))
    if family == "collinear_planar":
        sd[:, :, 2] = 0.0
    s, sd = _rotate(rotations, s), _rotate(rotations, sd)
    if family.startswith("collinear"):
        # s2 exactly parallel to s1, beyond body 1 or beyond body 3
        s[:, 1] = (rng.choice([-1.0, 1.0], n) * r2 / r1)[:, None] * s[:, 0]
    m1, m2, m3 = m
    pair, total = m1 + m3, m1 + m2 + m3

    def bodies(a):
        rel13 = a[:, 0] / np.sqrt(m1 * m3 / pair)
        rel2 = a[:, 1] / np.sqrt(m2 * pair / total)
        c13 = -m2 / total * rel2
        return np.stack([c13 + m3 / pair * rel13, c13 + rel2, c13 - m1 / pair * rel13], axis=1)

    return bodies(s), bodies(sd)


def cartesian_energy(pair_energy, m, x, v):
    """Center-of-mass energy of (n, 3, 3) positions and velocities, from
    plain Cartesian sums."""
    v = v - (m @ v / m.sum())[:, None]
    energy = 0.5 * np.sum(m[:, None] * v ** 2, axis=(1, 2))
    for i, k in PAIR_INDICES:
        distance = np.sqrt(np.sum((x[:, i] - x[:, k]) ** 2, axis=1))
        energy = energy + pair_energy(distance, m[i], m[k])
    return energy


class TestNorthStarSweep:
    @pytest.mark.parametrize("family", SWEEP_FAMILIES)
    def test_hamiltonian_equals_cm_energy(self, family):
        # |H - E_cm| / max(1, |E_cm|) <= 1e-10 on every state, through the
        # batch and, on every 50th state, through the one-row path
        rng = np.random.default_rng(SWEEP_FAMILIES.index(family))
        failures = {}  # potential -> (evaluations above the bound, worst error)
        for _ in range(SWEEP_TRIPLES):
            m = 10.0 ** rng.uniform(-3.0, 3.0, 3)
            masses = MassTriple(*m)
            x, v = sweep_states(rng, family, m, SWEEP_STATES)
            for potential, pair_energy in SWEEP_POTENTIALS:
                E = cartesian_energy(pair_energy, m, x, v)
                out = evaluate_reduced_batch(masses, x, v, potential)
                if family.startswith("collinear"):
                    assert np.all(out.branch == "collinear")
                rows = np.arange(0, SWEEP_STATES, 50)
                one_row = [
                    evaluate_reduced(masses, CartesianState(*x[k], *v[k]), potential).H
                    for k in rows
                ]
                H, E = np.concatenate([out.H_reduced, one_row]), np.concatenate([E, E[rows]])
                errors = np.abs(H - E) / np.maximum(1.0, np.abs(E))
                name = potential.builtin or potential.source
                count, worst = failures.get(name, (0, 0.0))
                failures[name] = (count + np.count_nonzero(errors > 1e-10), max(worst, errors.max()))
        assert all(count == 0 for count, _ in failures.values()), failures


# The paper's formula on the kernel's columns: per family, FORMULA_TRIPLES
# mass triples with FORMULA_STATES states each, drawn as in the north-star
# sweep.  close_13 is held to the chart's conditioning instead of 1e-10:
# with r1 down to 1e-8 of r2, J2 + cos(phi) T = -r1 v1z and p3 - (b/S) J3
# are O(r1) but formed from terms of O(r2), so the rounded (q, J, p) carry
# an error of about eps (1 + r2/r1) K into any formula that takes them.
# The measured ratio to that bound is at most 0.93 (10^4 states, 5 seeds);
# FORMULA_CONDITIONING is its constant C.
FORMULA_TRIPLES, FORMULA_STATES = 20, 100
FORMULA_CONDITIONING = 4.0


class TestPaperFormulaSweep:
    @pytest.mark.parametrize("family", SWEEP_FAMILIES)
    def test_formula_on_kernel_columns_equals_cm_energy(self, family):
        # reduced_hamiltonian on the columns (r1, r2, phi), J, p, T and V of
        # each batch, in one call; every family but close_13 to
        # |H - E_cm| / max(1, |E_cm|) <= 1e-10
        rng = np.random.default_rng(len(SWEEP_FAMILIES) + SWEEP_FAMILIES.index(family))
        eps = np.finfo(float).eps
        failures = {}  # potential -> (rows above 1e-10, rows above the bound)
        for _ in range(FORMULA_TRIPLES):
            m = 10.0 ** rng.uniform(-3.0, 3.0, 3)
            masses = MassTriple(*m)
            x, v = sweep_states(rng, family, m, FORMULA_STATES)
            for potential, pair_energy in SWEEP_POTENTIALS:
                E = cartesian_energy(pair_energy, m, x, v)
                out = evaluate_reduced_batch(masses, x, v, potential)
                V = potential_at_positions(potential, masses, x)
                H = reduced_hamiltonian(
                    out.r1, out.r2, out.phi, out.J, out.p, out.singular_term, V
                )
                scale = np.maximum(1.0, np.abs(E))
                errors = np.abs(H - E) / scale
                bound = 1e-10
                if family == "close_13":
                    K = E - V
                    conditioning = FORMULA_CONDITIONING * eps * (1.0 + out.r2 / out.r1) * K
                    bound = np.maximum(bound, conditioning / scale)
                name = potential.builtin or potential.source
                above, broken = failures.get(name, (0, 0))
                failures[name] = (
                    above + np.count_nonzero(errors > 1e-10),
                    broken + np.count_nonzero(errors > bound),
                )
        assert all(broken == 0 for _, broken in failures.values()), failures
