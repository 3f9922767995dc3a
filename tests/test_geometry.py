import re
from math import pi, sqrt

import numpy as np
import pytest

from trireduce.checks import random_rotation
from trireduce.errors import NumericalBlowup
from trireduce.geometry import (
    CartesianState,
    MassTriple,
    _length,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    check_vector,
    cross,
    frame_matrices,
    jacobi_map,
    measure_shape,
    reduced_masses,
    shape_to_distances,
)
from trireduce.hamiltonian import cartesian_from_momenta, evaluate_reduced, evaluate_reduced_batch
from trireduce.potential import builtin_potential

RNG = np.random.default_rng(7)
FREE = builtin_potential("free")


class TestReducedMasses:
    def test_equal_unit_masses(self):
        mu1, mu2 = reduced_masses(MassTriple(1, 1, 1))
        assert mu1 == pytest.approx(0.5, abs=1e-15)
        assert mu2 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_equal_masses_two(self):
        mu1, mu2 = reduced_masses(MassTriple(2, 2, 2))
        assert mu1 == pytest.approx(1.0, abs=1e-15)
        assert mu2 == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_homogeneous_in_masses(self):
        base = reduced_masses(MassTriple(1, 1, 1))
        for k in (0.5, 3.0, 7.25):
            scaled = reduced_masses(MassTriple(k, k, k))
            assert scaled[0] == pytest.approx(k * base[0], rel=1e-14)
            assert scaled[1] == pytest.approx(k * base[1], rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^m2 must be finite and > 0, got -1$"):
            MassTriple(1, -1, 1)
        with pytest.raises(ValueError):
            MassTriple(0, 1, 1)

    @pytest.mark.parametrize("value", [True, "2", None, float("nan")])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_rejects_what_is_not_a_finite_number(self, field, value):
        # a bool, a string or None names the field, as the range checks do
        masses = [1.0, 1.0, 1.0]
        masses[field] = value
        with pytest.raises(ValueError, match=f"^m{field + 1}: expected a finite number, got "):
            MassTriple(*masses)

    @pytest.mark.parametrize(
        "masses, product",
        [
            ((1e-170,) * 3, "m1*m3 = 0.0"),
            ((1e-160,) * 3, "m1*m3 = 1e-320"),
            ((1e155,) * 3, "m1*m3 = inf"),
            ((1.0, 1e300, 1e10), "m2*(m1 + m3) = inf"),
        ],
    )
    def test_rejects_masses_whose_reduced_masses_leave_the_normal_range(self, masses, product):
        # m1 m3 or m2 (m1 + m3) of 0, subnormal or inf makes mu1 or mu2 0,
        # inexact or inf although each mass is a finite positive float
        with pytest.raises(ValueError, match=f"^{re.escape(product)} is outside the normal float range$"):
            MassTriple(*masses)

    @pytest.mark.parametrize("mass", [1e-150, 1e150])
    def test_accepts_masses_with_normal_reduced_masses(self, mass):
        mu1, mu2 = reduced_masses(MassTriple(mass, mass, mass))
        assert (mu1, mu2) == (mass * mass / (2 * mass), mass * (2 * mass) / (3 * mass))

    def test_accepts_numpy_scalars(self):
        # a float32 is tested against the float range with no cast of that
        # range to float32, which would overflow (a RuntimeWarning is an error here)
        masses = MassTriple(np.float32(1.5), np.int64(2), np.float64(0.5))
        assert masses.total == 4.0


CARTESIAN_FIELDS = ("x1", "x2", "x3", "v1", "v2", "v3")
MASSES = MassTriple(1.0, 1.0, 1.0)


class TestVectorFields:
    """check_vector, the rule of CartesianState's fields and of the J and p
    that cartesian_from_momenta takes from outside."""

    # x2 is the bad field of a CartesianState; float() would take every
    # component of the first three values
    @pytest.mark.parametrize(
        "value",
        [
            ["1", "2", "0"],
            [True, False, True],
            [True, 0, 1],
            np.array([True, False, True]),
            np.array(["1", "2", "0"]),
            [0.0, float("nan"), 1.0],
            np.array([0.0, 1.0, float("inf")]),
            [1.0, 2.0],
            np.zeros(4),
            [10**400, 0, 0],
        ],
        ids=[
            "str", "bool", "mixed", "bool-array", "str-array", "nan", "inf", "short", "long",
            "int-beyond-float",
        ],
    )
    @pytest.mark.parametrize("target", ["CartesianState", "J", "p"])
    def test_rejects_what_is_not_a_finite_3_vector(self, target, value):
        name = "x2" if target == "CartesianState" else target
        with pytest.raises(ValueError, match=f"^{name} must be a finite 3-vector$"):
            if target == "CartesianState":
                CartesianState(*(value if f == "x2" else np.zeros(3) for f in CARTESIAN_FIELDS))
            else:
                momenta = {"J": np.zeros(3), "p": np.zeros(3), target: value}
                cartesian_from_momenta(MASSES, 1.0, 1.0, 1.0, **momenta)

    @pytest.mark.parametrize("target", ["CartesianState", "check_vector"])
    def test_numbers_are_stored_as_float_arrays(self, target):
        # lists of numbers and integer or float32 arrays are converted; a
        # float array is copied (see test_state_owns_its_vectors)
        kept = np.array([0.5, -1.0, 2.0])
        given = [kept, [1, 2.5, np.float64(3.0)], np.arange(3), np.ones(3, np.float32)]
        given = [given[k % len(given)] for k in range(len(CARTESIAN_FIELDS))]
        if target == "CartesianState":
            stored = list(vars(CartesianState(*given)).values())
        else:
            stored = [check_vector(name, v) for name, v in zip(CARTESIAN_FIELDS, given)]
        assert stored[0] is not kept
        for value, vector in zip(given, stored):
            assert vector.dtype == np.float64 and vector.shape == (3,)
            assert np.array_equal(vector, np.asarray(value, dtype=float))

    def test_state_owns_its_vectors(self):
        # a validated, frozen state shares no memory with what built it: a
        # caller's later write to its array (or to a row of its (3, 3)
        # positions) leaves the state finite, and one array given for two
        # fields makes two vectors
        arr, z = np.array([1.0, 2.0, 3.0]), np.zeros(3)
        positions = np.eye(3)
        state = CartesianState(arr, *positions[1:], z, z, z)
        arr[0], positions[1, 1], z[2] = np.nan, np.inf, np.nan
        assert state.x1.tolist() == [1.0, 2.0, 3.0] and state.x2.tolist() == [0.0, 1.0, 0.0]
        assert all(np.all(np.isfinite(v)) for v in vars(state).values())
        for name, v in zip(CARTESIAN_FIELDS, vars(state).values()):
            assert v.flags.owndata, name
        assert not np.shares_memory(state.v1, state.v2)

    def test_state_vectors_are_read_only(self):
        # a write into a validated state's vector raises, so a NaN cannot
        # reach evaluate_reduced as a misnamed overflow; the state is unchanged
        state = CartesianState(*np.eye(3), *np.zeros((3, 3)))
        for name, v in zip(CARTESIAN_FIELDS, vars(state).values()):
            with pytest.raises(ValueError, match="read-only"):
                v[0] = np.nan
            assert not v.flags.writeable, name
        assert np.isfinite(evaluate_reduced(MASSES, state, builtin_potential("harmonic")).H)
        assert not check_vector("J", [1.0, 2.0, 3.0]).flags.writeable


class TestVectorHelpers:
    """measure_shape's lengths and cross product round as np.linalg.norm
    and np.cross do, on rows and on single 3-vectors, so the measurements
    keep numpy's bits."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e8, 1e150])
    def test_bits_equal_numpy(self, scale):
        rng = np.random.default_rng(11)
        a, b = scale * rng.normal(size=(2, 4000, 3))
        a[:3] = 0.0
        b[3:6] = 0.0
        pairs = [(a, b)] + [(a[k], b[k]) for k in range(8)]  # zero vectors included
        for s1, s2 in pairs:
            # at 1e150 the squares of the normal overflow from row 6 on, so
            # its area is inf there: measure_shape names the first such row,
            # and its lengths and cross product, which raise nothing, keep
            # numpy's bits on every row
            with np.errstate(over="ignore" if scale == 1e150 else "warn"):
                area = np.linalg.norm(np.cross(s1, s2), axis=-1)
                r1, r2, normal = _length(s1.T, np.sqrt), _length(s2.T, np.sqrt), cross(s1.T, s2.T)
                assert np.array_equal(_length(normal, np.sqrt), area)
                overflow = np.flatnonzero(~np.isfinite(np.reshape(area, -1)))
                if overflow.size:
                    with pytest.raises(NumericalBlowup, match=f"^sin_phi overflow at row {overflow[0]}$"):
                        measure_shape(s1, s2)
                else:
                    r1, r2, normal, measured, _, _ = measure_shape(s1, s2)
                    assert np.array_equal(measured, area)
            if s1.ndim == 2:  # the rows overflow at 1e150 only
                assert bool(overflow.size) == (scale == 1e150)
            assert np.array_equal(r1, np.linalg.norm(s1, axis=-1))
            assert np.array_equal(r2, np.linalg.norm(s2, axis=-1))
            assert np.array_equal(np.stack(normal, -1), np.cross(s1, s2))

    @pytest.mark.parametrize(
        "form, row", [("floats", 0), ("3-vectors", 0), ("rows", 0), ("rows", 2), ("rows", 4)]
    )
    def test_overflowing_area_is_named(self, form, row):
        # |s1 x s2| = 1e400 overflows though s1 and s2 are finite, where phi
        # would read pi/2: measure_shape names the row (row 0 for one pair),
        # and so does body_frames, which measures through it
        rng = np.random.default_rng(39)
        s1, s2 = rng.normal(size=(2, 5, 3))
        s1[row], s2[row] = [1e200, 1.0, 0.0], [0.5, 1e200, 0.0]
        rates = np.zeros((5, 3))
        if form == "floats":
            s1, s2, rates = s1[row].tolist(), s2[row].tolist(), [0.0] * 3
        elif form == "3-vectors":
            s1, s2, rates = s1[row], s2[row], rates[row]
        with np.errstate(over="ignore"):  # the columns warn in _length first
            with pytest.raises(NumericalBlowup, match=f"^sin_phi overflow at row {row}$"):
                measure_shape(s1, s2)
            with pytest.raises(NumericalBlowup, match=f"^sin_phi overflow at row {row}$"):
                body_frames(s1, s2, rates, rates)

    @pytest.mark.parametrize("name", ["r1", "r2"])
    @pytest.mark.parametrize(
        "form, row", [("floats", 0), ("3-vectors", 0), ("rows", 0), ("rows", 2), ("rows", 4)]
    )
    def test_overflowing_length_is_named(self, form, row, name):
        # a length of 1e160 is inf (its square overflows) where |s1 x s2| =
        # 1e10 is not: measure_shape names the length and its row (row 0
        # for one pair), and so does body_frames; the other rows are finite
        rng = np.random.default_rng(40)
        s1, s2 = rng.normal(size=(2, 5, 3))
        long, short = [1e160, 0.0, 0.0], [0.0, 1e-150, 0.0]
        s1[row], s2[row] = (long, short) if name == "r1" else (short, long)
        s1, s2, rates = _pair_form(form, row, s1, s2)
        with np.errstate(over="ignore"):  # the columns warn in _length first
            with pytest.raises(NumericalBlowup, match=f"^{name} overflow at row {row}$"):
                measure_shape(s1, s2)
            with pytest.raises(NumericalBlowup, match=f"^{name} overflow at row {row}$"):
                body_frames(s1, s2, rates, rates)

    @pytest.mark.parametrize("form", ["floats", "3-vectors", "rows"])
    def test_sin_phi_is_named_before_the_lengths(self, form):
        # at 1e160 the area and both lengths are not finite, and sin_phi is
        # named; on rows, at its row though r1 overflows on an earlier one
        rng = np.random.default_rng(40)
        s1, s2 = rng.normal(size=(2, 5, 3))
        s1[1], s2[1] = [1e160, 0.0, 0.0], [0.0, 1e-150, 0.0]
        s1[3], s2[3] = s1[3] * 1e160, s2[3] * 1e160
        a, b = s1[3].tolist(), s2[3].tolist()
        assert not np.isfinite([_length(v, sqrt) for v in (cross(a, b), a, b)]).any()
        s1, s2, rates = _pair_form(form, 3, s1, s2)
        row = 3 if form == "rows" else 0
        with np.errstate(over="ignore", invalid="ignore"):  # the columns warn first
            with pytest.raises(NumericalBlowup, match=f"^sin_phi overflow at row {row}$"):
                measure_shape(s1, s2)
            with pytest.raises(NumericalBlowup, match=f"^sin_phi overflow at row {row}$"):
                body_frames(s1, s2, rates, rates)


def _pair_form(form, row, s1, s2):
    """(N, 3) Jacobi rows s1 and s2 with zero rates in the form that
    measure_shape and body_frames are given: the rows, row's 3-vectors or
    row's lists of three floats."""
    rates = np.zeros_like(s1)
    if form == "floats":
        return s1[row].tolist(), s2[row].tolist(), [0.0] * 3
    if form == "3-vectors":
        return s1[row], s2[row], rates[row]
    return s1, s2, rates


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


def _jacobi(m, state):
    """(s1, s2, sd1, sd2) of a CartesianState, by jacobi_map."""
    return (*jacobi_map(m, *state.positions), *jacobi_map(m, *state.velocities))


def _frame(s1, s2, sd1, sd2):
    """body_frames of one state given as four 3-vectors: (R, r1, r2, phi),
    R = axes[0].T, so R s_body = s_space, and degenerate."""
    rows = (np.array([v], float) for v in (s1, s2, sd1, sd2))
    axes, r1, r2, phi, _, _, degenerate = body_frames(*rows)
    return frame_matrices(axes)[0].T, r1[0], r2[0], phi[0], degenerate


def _measured_phi(s1, s2):
    """measure_shape's phi of one pair of 3-vectors."""
    return measure_shape(np.array([s1], float), np.array([s2], float))[-1][0]


class TestJacobiMap:
    def test_documented_example(self):
        m = MassTriple(1, 1, 1)
        s1, s2 = jacobi_map(m, *_state([1, 0, 0], [0, 1, 0], [-1, 0, 0]).positions)
        assert np.allclose(s1, [sqrt(2), 0, 0], atol=1e-15)
        assert np.allclose(s2, [0, sqrt(2.0 / 3.0), 0], atol=1e-15)

    def test_translation_invariance(self):
        m = MassTriple(1.0, 2.0, 0.5)
        shift = np.array([3.1, -2.2, 0.7])
        s = _state([1, 0, 0], [0, 1, 0], [-1, 0.5, 0.2])
        shifted = _state(s.x1 + shift, s.x2 + shift, s.x3 + shift)
        j0 = jacobi_map(m, *s.positions)
        j1 = jacobi_map(m, *shifted.positions)
        assert np.allclose(j0[0], j1[0], atol=1e-14)
        assert np.allclose(j0[1], j1[1], atol=1e-14)

    def test_coincident_particles_map_to_zero(self):
        m = MassTriple(1, 2, 3)
        s1, s2 = jacobi_map(m, *_state([1, 1, 1], [1, 1, 1], [1, 1, 1]).positions)
        assert np.allclose(s1, 0) and np.allclose(s2, 0)

    def test_round_trip(self):
        m = MassTriple(1.3, 0.7, 2.1)
        j = [RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)]
        back = _jacobi(m, cartesian_from_jacobi(m, *j))
        for a, b in zip(j, back):
            assert np.allclose(a, b, atol=1e-14)

    def test_inverse_zero(self):
        m = MassTriple(1, 1, 1)
        z = np.zeros(3)
        s = cartesian_from_jacobi(m, z, z, z, z)
        assert np.allclose(s.positions, 0) and np.allclose(s.velocities, 0)

    def test_inverse_center_of_mass_at_origin(self):
        for _ in range(20):
            m = MassTriple(*RNG.uniform(0.5, 3.0, size=3))
            j = [
                RNG.normal(size=3),
                RNG.normal(size=3),
                RNG.normal(size=3),
                RNG.normal(size=3),
            ]
            s = cartesian_from_jacobi(m, *j)
            com = m.as_array() @ s.positions / m.total
            mom = m.as_array() @ s.velocities
            assert np.allclose(com, 0, atol=1e-14)
            assert np.allclose(mom, 0, atol=1e-14)

    def test_inverse_rejects_a_vector_not_finite(self):
        # the Cartesian state it returns is validated
        z = np.zeros(3)
        with pytest.raises(ValueError, match="^x1 must be a finite 3-vector$"):
            cartesian_from_jacobi(MassTriple(1, 1, 1), np.array([np.nan, 0, 0]), z, z, z)


def _batch_L(m, s1, s2, sd1, sd2):
    """The L column of evaluate_reduced_batch on the one state of these
    Jacobi vectors."""
    state = cartesian_from_jacobi(m, s1, s2, sd1, sd2)
    return evaluate_reduced_batch(m, state.positions[None], state.velocities[None], FREE).L[0]


class TestAngularMomentum:
    """L of evaluate_reduced_batch, s1 x s1dot + s2 x s2dot."""

    def test_parallel_velocities_give_zero(self):
        j = np.array([[1, 2, 3], [4, 5, 6], [2, 4, 6], [-4, -5, -6]], float)
        L = _batch_L(MassTriple(1, 1, 1), *j)
        assert np.allclose(L, 0, atol=1e-14)

    def test_unit_cross_product(self):
        # r2 = 0: the row is degenerate, and L is still reported
        z = np.zeros(3)
        L = _batch_L(MassTriple(1, 1, 1), np.array([1.0, 0, 0]), z, np.array([0, 1.0, 0]), z)
        assert np.allclose(L, [0, 0, 1])

    def test_matches_cartesian_assembly(self):
        for _ in range(50):
            m = MassTriple(*RNG.uniform(0.5, 3.0, size=3))
            pos = RNG.normal(size=(3, 3))
            vel = RNG.normal(size=(3, 3))
            L = evaluate_reduced_batch(m, pos[None], vel[None], FREE).L[0]
            marr = m.as_array()
            com = marr @ pos / m.total
            vcom = marr @ vel / m.total
            L_direct = sum(
                marr[i] * np.cross(pos[i] - com, vel[i] - vcom) for i in range(3)
            )
            assert np.allclose(L, L_direct, atol=1e-12)


class TestBodyFrameFit:
    """body_frames on one state."""

    def test_axis_aligned(self):
        z = np.zeros(3)
        R, r1, r2, phi, _ = _frame([2, 0, 0], [0, 1, 0], z, z)
        assert np.allclose(R, np.eye(3), atol=1e-15)
        assert (r1, r2) == (2.0, 1.0)
        assert phi == pytest.approx(pi / 2, abs=1e-15)

    def test_antiparallel_limit(self):
        z = np.zeros(3)
        for eps in (1e-3, 1e-5):
            phi = _frame([1, 0, 0], [-1, eps, 0], z, z)[3]
            assert phi == pytest.approx(pi, abs=2 * eps)

    def test_reconstruction(self):
        for _ in range(100):
            j = [RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)]
            R, r1, r2, phi, _ = _frame(*j)
            b1, b2 = body_jacobi_vectors(r1, r2, phi)
            assert np.allclose(R @ b1, j[0], atol=1e-12)
            assert np.allclose(R @ b2, j[1], atol=1e-12)

    def test_equivariance(self):
        for _ in range(100):
            j = [RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)]
            Q = random_rotation(RNG)
            R, *q = _frame(*j)[:4]
            Rq, *qq = _frame(*(Q @ v for v in j))[:4]
            assert abs(q[0] - qq[0]) < 1e-12
            assert abs(q[1] - qq[1]) < 1e-12
            assert abs(q[2] - qq[2]) < 1e-12
            assert np.max(np.abs(Rq - Q @ R)) < 1e-12

    def test_degenerate_and_collinear(self):
        z = np.zeros(3)
        assert _frame(z, [1, 0, 0], z, z)[-1].tolist() == [True]
        assert _frame([1, 0, 0], z, z, z)[-1].tolist() == [True]
        # below the collinear threshold phi is the measured angle; with no
        # bending motion u2 is a fixed perpendicular of u1
        for s2 in ([2, 1e-12, 0], [-2, 1e-12, 0]):
            R, _, _, fitted_phi, _ = _frame([1, 0, 0], s2, z, z)
            assert fitted_phi == _measured_phi([1, 0, 0], s2)
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
        axes, r1, r2, phi, sin_phi, planar, degenerate = body_frames(s1, s2, sd1, sd2)
        assert degenerate.tolist() == [False, True, True, True]
        assert r1.tolist() == [1.0, 0.0, sqrt(5.0), 0.0]
        assert r2.tolist() == [2.0, 1.0, 0.0, 0.0]
        assert phi.tolist() == [pi / 2, 0.0, 0.0, 0.0]
        assert np.all(np.isfinite(axes)) and np.all(np.isfinite(sin_phi))
        axes = frame_matrices(axes)
        assert np.all(np.abs(axes @ axes.transpose(0, 2, 1) - np.eye(3)) < 1e-15)
        assert body_frames(s1[:1], s2[:1], sd1[:1], sd2[:1])[-1] is None

    def test_collinear_u2_along_bending(self):
        for _ in range(100):
            s1 = RNG.normal(size=3)
            k = RNG.uniform(-2.0, 2.0)
            sd1, sd2 = RNG.normal(size=3), RNG.normal(size=3)
            R, _, _, phi, _ = _frame(s1, k * s1, sd1, sd2)
            assert phi == _measured_phi(s1, k * s1)
            u1 = s1 / np.linalg.norm(s1)
            bend = sd2 - k * sd1  # sdot2 - sigma (r2/r1) sdot1
            bend -= np.dot(bend, u1) * u1
            assert np.allclose(R[:, 1], bend / np.linalg.norm(bend), atol=1e-12)
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-14


class TestShapeToDistances:
    def test_equilateral_style_example(self):
        m = MassTriple(1, 1, 1)
        d12, d13, d23 = shape_to_distances(m, sqrt(2), sqrt(2.0 / 3.0), pi / 2)
        assert d12 == pytest.approx(sqrt(2), rel=1e-14)
        assert d13 == pytest.approx(2.0, rel=1e-14)
        assert d23 == pytest.approx(sqrt(2), rel=1e-14)

    def test_midpoint_symmetry(self):
        m = MassTriple(1, 1, 1)
        d12, d13, d23 = shape_to_distances(m, sqrt(2), 0.0, 0.0)
        assert d12 == pytest.approx(d13 / 2, rel=1e-12)
        assert d23 == pytest.approx(d13 / 2, rel=1e-12)

    def test_matches_cartesian_distances(self):
        for _ in range(30):
            m = MassTriple(*RNG.uniform(0.5, 3.0, size=3))
            pos = RNG.normal(size=(3, 3))
            s = CartesianState(*pos, *np.zeros((3, 3)))
            _, r1, r2, phi, _ = _frame(*_jacobi(m, s))
            d12, d13, d23 = shape_to_distances(m, r1, r2, phi)
            assert d12 == pytest.approx(np.linalg.norm(pos[0] - pos[1]), rel=1e-12)
            assert d13 == pytest.approx(np.linalg.norm(pos[0] - pos[2]), rel=1e-12)
            assert d23 == pytest.approx(np.linalg.norm(pos[1] - pos[2]), rel=1e-12)
