from math import cos, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trireduce.checks import random_rotation
from trireduce.dynamics import BAND_THRESHOLD, total_energy
from trireduce.errors import DegenerateShape, NumericalBlowup
from trireduce.geometry import (
    COLLINEAR_THRESHOLD,
    CartesianState,
    JacobiVectors,
    MassTriple,
    ShapeCoordinates,
    body_frame_fit,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    jacobi_from_cartesian,
    reduced_masses,
    spatial_angular_momentum,
)
from trireduce.hamiltonian import (
    evaluate_reduced,
    evaluate_reduced_batch,
    evaluate_reduced_jacobi,
    reduced_hamiltonian,
    singular_term,
)
from trireduce.potential import builtin_potential, parse_potential
from trireduce.reduction import (
    BodyMomenta,
    BodyVelocityState,
    body_angular_momentum,
    body_velocities,
    kinetic_energy_body,
    shape_momenta,
    velocities_from_momenta,
)

RNG = np.random.default_rng(23)
FREE = builtin_potential("free")


def random_shape(phi_min=0.05):
    return ShapeCoordinates(
        RNG.uniform(0.3, 2.0), RNG.uniform(0.3, 2.0), RNG.uniform(phi_min, pi - phi_min)
    )


def random_velocity():
    return BodyVelocityState(RNG.normal(size=3), RNG.normal(size=3))


class TestReducedHamiltonian:
    def test_zero_state(self):
        q = ShapeCoordinates(1.2, 0.8, 1.1)
        m = BodyMomenta(np.zeros(3), np.zeros(3))
        assert reduced_hamiltonian(q, m, 0.0, 0.0) == 0.0

    def test_pure_j3_state(self):
        for r2 in (0.5, 1.0, 1.7):
            q = ShapeCoordinates(1.0, r2, pi / 2)
            m = BodyMomenta(np.array([0.0, 0.0, 3.0]), np.zeros(3))
            assert reduced_hamiltonian(q, m, 0.0, 0.0) == pytest.approx(4.5, rel=1e-14)

    def test_legendre_consistency(self):
        for _ in range(200):
            q = random_shape()
            w = random_velocity()
            m = shape_momenta(q, w)
            K = kinetic_energy_body(q, w)
            V = RNG.normal()
            H = reduced_hamiltonian(q, m, singular_term(q, w), V)
            assert H == pytest.approx(K + V, rel=1e-10, abs=1e-10)

    def test_adds_potential(self):
        q = ShapeCoordinates(1.0, 1.0, 1.0)
        m = BodyMomenta(np.zeros(3), np.zeros(3))
        assert reduced_hamiltonian(q, m, 0.0, 2.5) == 2.5


class TestCollinearHamiltonian:
    """The finite form evaluated at collinear shapes (phi = 0 or pi)."""

    def test_zero_state(self):
        m = BodyMomenta(np.zeros(3), np.zeros(3))
        assert reduced_hamiltonian(ShapeCoordinates(1.0, 1.0, 0.0), m, 0.0, 0.0) == 0.0

    def test_documented_value(self):
        m = BodyMomenta(np.array([0.0, 0.0, 2.0]), np.zeros(3))
        q = ShapeCoordinates(1.0, 1.0, 0.0)
        assert reduced_hamiltonian(q, m, 0.0, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_two_closed_forms_agree(self):
        for _ in range(100):
            r1, r2 = RNG.uniform(0.3, 2.0, size=2)
            J3, p1, p2, p3 = RNG.normal(size=4)
            m = BodyMomenta(np.array([0.0, 0.0, J3]), np.array([p1, p2, p3]))
            H = reduced_hamiltonian(ShapeCoordinates(r1, r2, 0.0), m, 0.0, 0.0)
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
                q0 = ShapeCoordinates(*RNG.uniform(0.3, 2.0, size=2), phi)
                w = random_velocity()
                K0 = kinetic_energy_body(q0, w)
                V = RNG.normal()
                H = reduced_hamiltonian(
                    q0, shape_momenta(q0, w), singular_term(q0, w), V
                )
                assert H == pytest.approx(K0 + V, rel=1e-12, abs=1e-12)

    def test_degenerate_lengths_rejected(self):
        m = BodyMomenta(np.zeros(3), np.zeros(3))
        with pytest.raises(DegenerateShape):
            reduced_hamiltonian(ShapeCoordinates(1.0, 0.0, 0.0), m, 0.0, 0.0)


class TestSingularTerm:
    def test_collinear_zero_transverse_spin(self):
        q = ShapeCoordinates(1.0, 1.4, 0.0)
        w = BodyVelocityState(np.array([0.7, 0.0, 0.2]), np.zeros(3))
        assert singular_term(q, w) == 0.0

    def test_collinear_limit_value(self):
        for c in (0.5, -1.2, 3.0):
            q = ShapeCoordinates(1.0, 1.5, 0.0)
            w = BodyVelocityState(np.array([0.3, c, 0.0]), np.zeros(3))
            assert singular_term(q, w) == pytest.approx(-1.5 ** 2 * c, abs=1e-15)

    def test_matches_direct_quotient(self):
        for _ in range(100):
            q = random_shape(phi_min=0.11)
            w = random_velocity()
            J1 = body_angular_momentum(q, w)[0]
            assert singular_term(q, w) == pytest.approx(
                J1 / sin(q.phi), rel=1e-12, abs=1e-12
            )

    def test_product_with_sin_phi_is_j1(self):
        for _ in range(100):
            q = random_shape(phi_min=0.0)
            w = random_velocity()
            J1 = body_angular_momentum(q, w)[0]
            assert singular_term(q, w) * sin(q.phi) == pytest.approx(J1, abs=1e-14)


def collinear_jacobi(transverse=1.0, axial=0.3):
    """Collinear Jacobi state with transverse velocity so that L != 0."""
    s1 = np.array([0.0, 0.0, 2.0])
    s2 = np.array([0.0, 0.0, 1.0])
    sd1 = np.array([0.0, 0.0, axial])
    sd2 = np.array([transverse, 0.0, 0.0])
    return JacobiVectors(s1, s2, sd1, sd2)


class TestAlignCollinearFrame:
    """The body frame body_frame_fit picks at collinear shapes."""

    def test_documented_frame(self):
        j = collinear_jacobi()
        # bending sd2 - (r2/r1) sd1 = (1,0,0) sets u2; L = (0,1,0) is along u3
        R, _ = body_frame_fit(j)
        assert np.allclose(R[:, 0], [0, 0, 1], atol=1e-14)  # u1 = e3
        assert np.allclose(R[:, 1], [1, 0, 0], atol=1e-14)  # u2 = e1
        assert np.allclose(R[:, 2], [0, 1, 0], atol=1e-14)  # u3 = e2

    def test_transverse_j_components_vanish(self):
        for _ in range(20):
            Q = random_rotation(RNG)
            j0 = collinear_jacobi(transverse=RNG.uniform(0.5, 2.0))
            j = JacobiVectors(Q @ j0.s1, Q @ j0.s2, Q @ j0.sdot1, Q @ j0.sdot2)
            R, _ = body_frame_fit(j)
            J = R.T @ spatial_angular_momentum(j)
            assert abs(J[0]) < 1e-12 and abs(J[1]) < 1e-12
            assert J[2] > 0

    def test_fitted_frames_converge_to_aligned_frame(self):
        # free motion through a collinear configuration at t = 0; sdot1
        # tilts the molecular line so frames move
        j0 = JacobiVectors(
            [0.0, 0.0, 2.0],
            [0.0, 0.0, 1.0],
            [0.15, 0.0, 0.3],
            [1.0, 0.0, 0.0],
        )
        R0, _ = body_frame_fit(j0)
        half_turn = np.diag([1.0, -1.0, -1.0])
        deviations = []
        deltas = [1e-2, 1e-3, 1e-4]
        for delta in deltas:
            worst = 0.0
            for t in (-delta, delta):
                j = JacobiVectors(
                    j0.s1 + t * j0.sdot1, j0.s2 + t * j0.sdot2, j0.sdot1, j0.sdot2
                )
                R, _ = body_frame_fit(j)
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
            j = JacobiVectors(Q @ j0.s1, Q @ j0.s2, Q @ j0.sdot1, Q @ j0.sdot2)
            state = cartesian_from_jacobi(masses, j)
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
            q = ShapeCoordinates(1.0, 1.0, phi)
            w = BodyVelocityState(omega, qdot)
            b1, b2 = body_jacobi_vectors(q)
            v1, v2 = body_velocities(q, w)
            state = cartesian_from_jacobi(masses, JacobiVectors(b1, b2, v1, v2))
            ev = evaluate_reduced(masses, state, FREE)
            assert ev.branch == branch
            assert ev.H == pytest.approx(kinetic_energy_body(q, w), rel=1e-12)

    def test_collinear_rotation_invariance(self):
        masses = MassTriple(1.0, 1.5, 0.8)
        j0 = collinear_jacobi(transverse=1.3, axial=-0.4)
        H_ref = None
        for _ in range(10):
            Q = random_rotation(RNG)
            j = JacobiVectors(Q @ j0.s1, Q @ j0.s2, Q @ j0.sdot1, Q @ j0.sdot2)
            ev = evaluate_reduced(masses, cartesian_from_jacobi(masses, j), FREE)
            if H_ref is None:
                H_ref = ev.H
            assert ev.H == pytest.approx(H_ref, rel=1e-10, abs=1e-10)

    def test_conditioning_warning_in_band(self):
        # sin(phi) inside the conditioning band but above the collinear
        # threshold: the noncollinear rule applies and H stays exact
        masses = MassTriple(1.0, 1.0, 1.0)
        q = ShapeCoordinates(1.0, 1.0, 1e-4)
        w = BodyVelocityState(np.array([0.0, 0.0, 0.3]), np.array([0.1, 0.2, 0.4]))
        b1, b2 = body_jacobi_vectors(q)
        v1, v2 = body_velocities(q, w)
        state = cartesian_from_jacobi(masses, JacobiVectors(b1, b2, v1, v2))
        ev = evaluate_reduced(masses, state, FREE)
        assert ev.branch == "noncollinear"
        assert COLLINEAR_THRESHOLD < ev.sin_phi < BAND_THRESHOLD
        assert ev.H == pytest.approx(kinetic_energy_body(q, w), rel=1e-12)


class TestCollinearLimit:
    def test_limit_is_quadratic_in_phi(self):
        w = BodyVelocityState(np.array([0.9, 0.0, 0.4]), np.array([0.2, -0.3, 0.6]))

        def H(phi):
            q = ShapeCoordinates(1.3, 0.8, phi)
            return reduced_hamiltonian(q, shape_momenta(q, w), singular_term(q, w), 0.0)

        H0 = H(0.0)
        phis = [10.0 ** (-k) for k in range(1, 7)]
        diffs = [abs(H(phi) - H0) for phi in phis]
        assert all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))
        slope = np.polyfit(np.log(phis), np.log(diffs), 1)[0]
        assert 1.8 <= slope <= 2.2


COLLINEAR_KINDS = ("collinear_planar", "collinear_3d", "zero_L")
PHI_BY_KIND = {
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
def rotated_states(draw, masses=MASS_TRIPLES):
    """Zero-momentum Cartesian state of a given shape kind, randomly
    rotated.  Collinear kinds have s2 exactly parallel to s1 after the
    rotation; zero_L ones also have L = 0 (as the figure-eight start);
    near_meeting ones have body 2 over body 1, at a distance of order
    r2 sin(phi) from it."""
    masses = draw(masses)
    kind = draw(st.sampled_from(sorted(PHI_BY_KIND)))
    phi = draw(PHI_BY_KIND[kind])
    if kind in ("sub_threshold", "near_collinear") and draw(st.booleans()):
        phi = pi - phi
    r1, r2 = draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))
    if kind == "near_meeting":
        # body 1 sits m3/(m1 + m3) |x1 - x3| from the 1-3 center of mass
        mu = reduced_masses(masses)
        r2 = sqrt(mu.mu2 / mu.mu1) * masses.m3 / (masses.m1 + masses.m3) * r1 / cos(phi)
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
        s2 = Q @ np.array([r2 * cos(phi), r2 * sin(phi), 0.0])
    state = cartesian_from_jacobi(masses, JacobiVectors(s1, s2, Q @ sd1, Q @ sd2))
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
        out = evaluate_reduced_batch(masses, x, v, potential, threshold)
        for i, state in enumerate(states):
            j = jacobi_from_cartesian(masses, state)
            E = total_energy(masses, state, potential)
            L = spatial_angular_momentum(j)
            assert _close(out.E_total[i], E)
            assert _close(out.L[i], L)
            # row independence: the one-state evaluation of the same state
            try:
                ev = evaluate_reduced(masses, state, potential, threshold)
            except DegenerateShape:
                assert out.branch[i] == "degenerate"
                nan = [out.phi[i], out.sin_phi[i], out.H_reduced[i], *out.J[i], *out.p[i]]
                assert np.all(np.isnan(nan))
                continue
            assert out.branch[i] == ev.branch
            assert _close(out.H_reduced[i], ev.H)
            assert _close(out.J[i], ev.momenta.J)
            assert _close(out.p[i], ev.momenta.p)
            for name in ("r1", "r2", "phi"):
                assert _close(getattr(out, name)[i], getattr(ev.q, name))
            assert _close(out.sin_phi[i], ev.sin_phi)

            # independent oracles; the non-degenerate states have their
            # center of mass at rest, so H equals the Cartesian energy
            noncollinear = out.branch[i] == "noncollinear"
            assert _close(out.H_reduced[i], E)
            R, q = body_frame_fit(j, threshold)
            if noncollinear or out.sin_phi[i] <= 1e-14:
                assert _close(out.J[i], R.T @ L)
            if out.sin_phi[i] > 1e-3 and noncollinear:
                w = velocities_from_momenta(q, BodyMomenta(out.J[i], out.p[i]))
                v1, v2 = body_velocities(q, w)
                assert _close(v1, R.T @ j.sdot1)
                assert _close(v2, R.T @ j.sdot2)
                oracle = shape_momenta(q, w)
                assert _close(out.J[i], oracle.J)
                assert _close(out.p[i], oracle.p)


def _same_evaluation(a, b):
    """Every field of two ReducedEvaluations equal, bit for bit."""
    return (
        (a.H, a.branch, a.singular_term, a.sin_phi) == (b.H, b.branch, b.singular_term, b.sin_phi)
        and (a.q.r1, a.q.r2, a.q.phi) == (b.q.r1, b.q.r2, b.q.phi)
        and np.array_equal(a.momenta.J, b.momenta.J)
        and np.array_equal(a.momenta.p, b.momenta.p)
    )


class TestOneRowPath:
    @settings(max_examples=300, deadline=None)
    @given(
        rotated_states(),
        st.sampled_from(BATCH_POTENTIALS),
    )
    def test_one_map_equals_the_jacobi_route(self, case, potential):
        # evaluate_reduced maps positions and velocities in one call; the
        # route through a validated JacobiVectors gives the same bits
        kind, masses, state = case
        ev = evaluate_reduced(masses, state, potential)
        ref = evaluate_reduced_jacobi(masses, jacobi_from_cartesian(masses, state), potential)
        assert _same_evaluation(ev, ref), kind

    def test_builds_no_jacobi_vectors(self, monkeypatch):
        masses = MassTriple(1.0, 2.0, 0.6)
        state = CartesianState(*RNG.normal(size=(6, 3)))
        ref = evaluate_reduced(masses, state, FREE)

        def refuse(self):
            raise AssertionError("JacobiVectors built")

        monkeypatch.setattr(JacobiVectors, "__post_init__", refuse)
        assert _same_evaluation(evaluate_reduced(masses, state, FREE), ref)

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
        with pytest.raises(NumericalBlowup, match="Jacobi vectors"):
            evaluate_reduced(masses, far, gravity)
        with pytest.raises(NumericalBlowup, match="H_reduced"):
            evaluate_reduced(masses, fast, gravity)
