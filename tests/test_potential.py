from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trireduce.checks import random_rotation
from trireduce.errors import DomainError, PotentialSyntaxError, UnknownIdentifier
from trireduce.geometry import MassTriple, ShapeCoordinates, shape_to_distances
from trireduce.potential import (
    Bin,
    Call,
    Neg,
    Num,
    PotentialSpec,
    VARIABLES,
    Var,
    builtin_potential,
    eval_potential_batch,
    forces_cartesian,
    parse_expression,
    parse_potential,
    potential_at_positions,
    print_expression,
)

RNG = np.random.default_rng(31)
MASSES = MassTriple(1.0, 1.0, 1.0)

# batches of rows of r1, r2, phi, d12, d13, d23 for the row-independence
# property: plain values, and values that meet every domain check (zeros,
# negatives, an argument whose exp overflows, infinities) beside plain ones
_BATCH_RNG = np.random.default_rng(7)
BATCHES = (
    _BATCH_RNG.uniform(0.1, 3.0, size=(12, 6)),
    _BATCH_RNG.choice(
        [0.0, -0.0, 0.5, 1.0, 1.7, 3.0, -1.0, -2.5, 800.0, np.inf, -np.inf], size=(12, 6)
    ),
)

# configurations for the forces of random trees: generic, collinear at
# phi = 0 and at pi, r2 = 0, and bodies 1 and 2 coinciding
FORCE_CONFIGS = [
    np.array(p, dtype=float)
    for p in (
        [[0.3, -0.2, 0.9], [1.1, 0.1, -0.4], [-0.6, 0.8, 0.2]],
        [[1.0, 0.0, 0.0], [2.5, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0], [-2.5, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 0.3, 0.0]],
    )
]

# random expression trees over every variable, operator and function
EXPRESSIONS = st.recursive(
    st.one_of(
        st.sampled_from([Var(v) for v in ("r1", "r2", "phi", "d12", "d13", "d23")]),
        st.floats(0, 100, allow_nan=False).map(lambda x: Num(float(x))),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), inner, inner).map(lambda t: Bin(*t)),
        inner.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "sqrt", "exp", "log", "abs"]), inner).map(
            lambda t: Call(*t)
        ),
    ),
    max_leaves=12,
)


def ctx_with(**kwargs):
    """Columns r1, r2, phi, d12, d13, d23 of a one-row batch, 1.0 by default."""
    defaults = dict(r1=1.0, r2=1.0, phi=1.0, d12=1.0, d13=1.0, d23=1.0)
    defaults.update(kwargs)
    return [np.array([defaults[v]]) for v in VARIABLES]


def shape_row(masses, q):
    """Columns of the one-row batch at the shape q, with its pair distances."""
    d12, d13, d23 = shape_to_distances(masses, q.r1, q.r2, q.phi)
    return [np.array([v]) for v in (q.r1, q.r2, q.phi, d12, d13, d23)]


def eval_row(spec, row, masses=MASSES):
    return eval_potential_batch(spec, masses, *row)[0]


class TestParser:
    def test_sum_of_squares(self):
        ast = parse_expression("r1^2 + r2^2")
        assert ast == Bin("+", Bin("^", Var("r1"), Num(2.0)), Bin("^", Var("r2"), Num(2.0)))

    def test_gravitational_form(self):
        ast = parse_expression("-1/d12 - 1/d13 - 1/d23")
        expected = Bin(
            "-",
            Bin("-", Bin("/", Neg(Num(1.0)), Var("d12")), Bin("/", Num(1.0), Var("d13"))),
            Bin("/", Num(1.0), Var("d23")),
        )
        assert ast == expected

    def test_truncated_input_position(self):
        with pytest.raises(PotentialSyntaxError) as err:
            parse_expression("r1 +")
        assert err.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse_expression("r1 + bogus")
        assert err.value.name == "bogus"
        assert err.value.position == 6

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse_expression("tan(phi)")

    def test_unbalanced_parens(self):
        with pytest.raises(PotentialSyntaxError):
            parse_expression("(r1 + r2")

    def test_trailing_garbage(self):
        with pytest.raises(PotentialSyntaxError):
            parse_expression("r1 r2")

    def test_power_right_associative(self):
        assert parse_expression("2^3^2") == Bin(
            "^", Num(2.0), Bin("^", Num(3.0), Num(2.0))
        )

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_expression("-r1^2") == Neg(Bin("^", Var("r1"), Num(2.0)))

    def test_constants(self):
        assert parse_expression("pi") == Num(pi)

    def test_scientific_notation(self):
        assert parse_expression("2.5e-3") == Num(2.5e-3)

    @settings(max_examples=100, deadline=None)
    @given(EXPRESSIONS)
    def test_print_parse_round_trip(self, ast):
        printed = print_expression(ast)
        assert parse_expression(printed) == ast


class TestEval:
    def test_free_is_zero(self):
        assert eval_row(builtin_potential("free"), ctx_with()) == 0.0

    def test_square(self):
        spec = parse_potential("r1^2")
        assert eval_row(spec, ctx_with(r1=3.0)) == 9.0

    def test_gravity_example(self):
        spec = builtin_potential("gravity", G=1.0)
        ctx = ctx_with(d12=sqrt(2), d13=2.0, d23=sqrt(2))
        expected = -(1 / sqrt(2) + 0.5 + 1 / sqrt(2))
        assert eval_row(spec, ctx) == pytest.approx(expected, rel=1e-14)

    def test_division_by_zero(self):
        spec = parse_potential("1/(r1 - 1)")
        with pytest.raises(DomainError):
            eval_row(spec, ctx_with(r1=1.0))

    def test_log_domain(self):
        spec = parse_potential("log(r1 - 2)")
        with pytest.raises(DomainError):
            eval_row(spec, ctx_with(r1=1.0))

    def test_sqrt_domain(self):
        spec = parse_potential("sqrt(r1 - 2)")
        with pytest.raises(DomainError):
            eval_row(spec, ctx_with(r1=1.0))

    def test_power_domain_on_every_path(self):
        # a negative base to a fractional power: a plain row, a row built
        # from a shape, and a two-row batch all raise
        spec = parse_potential("(d12 - 10)^0.5")
        with pytest.raises(DomainError):
            eval_row(spec, ctx_with(d12=1.0))
        q = ShapeCoordinates(1.4, 0.9, 1.2)
        with pytest.raises(DomainError):
            eval_row(spec, shape_row(MASSES, q))
        ones = np.ones(2)
        with pytest.raises(DomainError):
            eval_potential_batch(spec, MASSES, ones, ones, ones, ones, ones, ones)

    @pytest.mark.parametrize(
        "text, node, value",
        [
            ("sqrt(r1 - 2)", "sqrt", -1.0),
            ("log(r1 - 1)", "log", 0.0),
            ("exp(r1 * 1000)", "exp", 1000.0),
            ("sin(r1 * 1e308 * 10)", "sin", float("inf")),
            ("cos(-r1 * 1e308 * 10)", "cos", float("-inf")),
            ("1 / (r1 - 1)", "/", 0.0),
            ("(r1 - 2) ^ 0.5", "^", (-1.0, 0.5)),
            ("(r1 - 1) ^ -1", "^", (0.0, -1.0)),
            ("(r1 * 10) ^ 400", "^", (10.0, 400.0)),
            ("exp(r1 * 1e308 * 10) - r1", "expression", float("inf")),
        ],
    )
    def test_domain_error_names_node_and_operands(self, text, node, value):
        with pytest.raises(DomainError) as err:
            eval_row(parse_potential(text), ctx_with(r1=1.0))
        assert (err.value.node, err.value.value) == (node, value)

    def test_non_finite_operands_outside_the_checks(self):
        # an infinity or NaN reaching exp, '^' or sqrt is not a domain error
        # there; only the final value is checked
        for text in ("exp(r1 * 1e308 * 10)", "(r1 * 1e308 * 10) ^ 2", "sqrt(r1 * 1e308 * 10)"):
            with pytest.raises(DomainError) as err:
                eval_row(parse_potential(text), ctx_with(r1=1.0))
            assert err.value.node == "expression"
        assert eval_row(parse_potential("exp(-r1 * 1e308 * 10) + (r1 - 2) ^ 2"), ctx_with()) == 1.0

    def test_constant_expression_and_empty_batch(self):
        # a constant has one value per row; no row has no value and no error
        constant, failing = parse_potential("2 ^ 3"), parse_potential("log(0) + r1")
        for n in (3, 1, 0):
            value = eval_potential_batch(constant, MASSES, *[np.ones(n)] * 6)
            assert value.shape == (n,) and np.all(value == 8.0)
        assert eval_potential_batch(failing, MASSES, *[np.ones(0)] * 6).shape == (0,)
        with pytest.raises(DomainError) as err:
            eval_potential_batch(failing, MASSES, *[np.ones(2)] * 6)
        assert (err.value.node, err.value.value) == ("log", 0.0)

    def test_builtin_scalars_and_empty_batch(self):
        # the pair distances may be floats, (N,) arrays or zero rows
        for spec in (builtin_potential("gravity", G=1.0), builtin_potential("harmonic", k=2.0)):
            d = (1.5, 2.0, 0.5)
            value = eval_potential_batch(spec, MASSES, 1.0, 1.0, 1.0, *d)
            rows = eval_potential_batch(spec, MASSES, *[np.array([a, a]) for a in (1.0, 1.0, 1.0, *d)])
            assert np.shape(value) == () and np.array_equal(rows, [value, value])
            assert eval_potential_batch(spec, MASSES, *[np.ones(0)] * 6).shape == (0,)

    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS)
    def test_rows_are_independent(self, ast):
        # each row of a batch is what that row gives alone, bit for bit; the
        # batch raises exactly when some row raises alone, and then names
        # the node and the operands that row names
        spec = PotentialSpec(ast=ast)
        for batch in BATCHES:
            columns = batch.T
            alone = []
            for i in range(len(batch)):
                try:
                    alone.append(eval_potential_batch(spec, MASSES, *columns[:, i : i + 1]))
                except DomainError as exc:
                    alone.append(str(exc))
            raised = [a for a in alone if isinstance(a, str)]
            try:
                value = eval_potential_batch(spec, MASSES, *columns)
            except DomainError as exc:
                assert str(exc) in raised
            else:
                assert not raised
                assert value.tobytes() == np.concatenate(alone).tobytes()
            assert eval_potential_batch(spec, MASSES, *columns[:, :0]).shape == (0,)

    def test_rotation_invariance_by_construction(self):
        # the context depends only on the shape, so rotated Cartesian
        # realizations evaluate identically
        spec = parse_potential("sin(phi) * d12 + r1 / d23")
        masses = MassTriple(1.0, 2.0, 0.5)
        q = ShapeCoordinates(1.4, 0.9, 1.2)
        base = eval_row(spec, shape_row(masses, q), masses)
        from trireduce.geometry import JacobiVectors, body_jacobi_vectors, cartesian_from_jacobi

        b1, b2 = body_jacobi_vectors(q)
        for _ in range(10):
            Q = random_rotation(RNG)
            z = np.zeros(3)
            state = cartesian_from_jacobi(masses, JacobiVectors(Q @ b1, Q @ b2, z, z))
            V = potential_at_positions(spec, masses, state.positions[None])[0]
            assert V == pytest.approx(base, rel=1e-12)


class TestForces:
    def _spread_positions(self):
        while True:
            pos = RNG.uniform(-1.5, 1.5, size=(3, 3))
            dists = [np.linalg.norm(pos[i] - pos[j]) for i, j in [(0, 1), (0, 2), (1, 2)]]
            if min(dists) > 0.6:
                return pos

    def test_free_forces_vanish(self):
        pos = self._spread_positions()
        assert np.allclose(forces_cartesian(builtin_potential("free"), MASSES, pos), 0)
        assert np.array_equal(forces_cartesian(parse_potential("2 ^ 3"), MASSES, pos), np.zeros((3, 3)))

    def test_harmonic_equilibrium(self):
        # equilateral triangle at rest length: all forces vanish
        pos = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, sqrt(3) / 2, 0.0]]
        )
        F = forces_cartesian(builtin_potential("harmonic", k=2.0, rest_length=1.0), MASSES, pos)
        assert np.allclose(F, 0, atol=1e-12)

    @pytest.mark.parametrize("name", ["gravity", "harmonic", "lennard_jones"])
    def test_newton_third_law_and_zero_torque(self, name):
        masses = MassTriple(1.0, 2.0, 3.0)
        spec = builtin_potential(name)
        for _ in range(20):
            pos = self._spread_positions()
            F = forces_cartesian(spec, masses, pos)
            assert np.max(np.abs(F.sum(axis=0))) < 1e-10
            com = masses.as_array() @ pos / masses.total
            torque = np.sum(np.cross(pos - com, F), axis=0)
            assert np.max(np.abs(torque)) < 1e-10

    def test_gravity_matches_finite_differences(self):
        masses = MassTriple(1.0, 2.0, 3.0)
        spec = builtin_potential("gravity", G=1.3)
        pos = self._spread_positions()
        F = forces_cartesian(spec, masses, pos)
        step = 1e-6
        for i in range(3):
            for k in range(3):
                plus, minus = pos.copy(), pos.copy()
                plus[i, k] += step
                minus[i, k] -= step
                vp, vm = potential_at_positions(spec, masses, np.array([plus, minus]))
                fd = -(vp - vm) / (2 * step)
                assert F[i, k] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_gravity_follows_the_masses_it_is_given(self):
        # one spec keeps G m_i m_k of the last masses; every call must
        # still use the masses it is given
        spec = builtin_potential("gravity", G=1.3)
        pos = self._spread_positions()
        triples = [MassTriple(1.0, 2.0, 3.0), MassTriple(0.5, 1.0, 4.0), MassTriple(1.0, 2.0, 3.0)]
        for masses in triples + triples[::-1]:
            fresh = builtin_potential("gravity", G=1.3)
            assert np.array_equal(forces_cartesian(spec, masses, pos), forces_cartesian(fresh, masses, pos))
            assert np.array_equal(potential_at_positions(spec, masses, pos[None]),
                                  potential_at_positions(fresh, masses, pos[None]))

    def test_expression_forces_match_fourth_order_stencil(self):
        # a phi-dependent expression, so the batched probes also check the
        # chain through phi = atan2(|s1 x s2|, s1 . s2)
        masses = MassTriple(1.0, 2.0, 3.0)
        spec = parse_potential("sin(phi)*d12 + r1/d23 + 0.3*cos(phi)^2*r2")
        step = 1e-4
        offsets = np.array([2.0, 1.0, -1.0, -2.0]) * step
        weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12.0 * step)
        for _ in range(10):
            pos = self._spread_positions()
            F = forces_cartesian(spec, masses, pos)
            for i in range(3):
                for k in range(3):
                    probes = np.repeat(pos[None], 4, axis=0)
                    probes[:, i, k] += offsets
                    fd = -weights @ potential_at_positions(spec, masses, probes)
                    assert abs(F[i, k] - fd) <= 1e-6 * max(abs(fd), 1.0)
            com = masses.as_array() @ pos / masses.total
            torque = np.sum(np.cross(pos - com, F), axis=0)
            assert np.max(np.abs(F.sum(axis=0))) <= 1e-8
            assert np.max(np.abs(torque)) <= 1e-8

    def test_every_operation_has_its_derivative(self):
        # the pullback of each operator and function, a variable exponent
        # and a repeated variable, against the fourth-order stencil
        masses = MassTriple(1.0, 2.0, 3.0)
        texts = [
            "exp(-d12) * log(d13) - sqrt(d23) + abs(r1 - 2 * r2) / d12",
            "-(r1 ^ r2) + 2 ^ d23 - cos(phi) * sin(phi) / (d13 + phi)",
        ]
        step = 1e-4
        offsets = np.array([2.0, 1.0, -1.0, -2.0]) * step
        weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12.0 * step)
        for text in texts:
            spec = parse_potential(text)
            for _ in range(5):
                pos = self._spread_positions()
                F = forces_cartesian(spec, masses, pos)
                for i in range(3):
                    for k in range(3):
                        probes = np.repeat(pos[None], 4, axis=0)
                        probes[:, i, k] += offsets
                        fd = -weights @ potential_at_positions(spec, masses, probes)
                        assert abs(F[i, k] - fd) <= 1e-6 * max(abs(fd), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(EXPRESSIONS)
    def test_forces_are_finite_or_raise(self, ast):
        # no NaN or infinite force reaches the integrator, at generic,
        # collinear and coincident configurations alike
        spec = PotentialSpec(ast=ast)
        for pos in FORCE_CONFIGS:
            try:
                F = forces_cartesian(spec, MASSES, pos)
            except DomainError:
                continue
            assert F.shape == (3, 3) and np.isfinite(F).all()

    def test_expression_forces_match_equivalent_builtin(self):
        # each built-in family written as a tree, its parameters and masses
        # folded in; harmonic with zero rest length has the shape-level form
        # k/2 (d12^2 + d13^2 + d23^2)
        lennard_jones = " + ".join(f"4*((1/{d})^12 - (1/{d})^6)" for d in ("d12", "d13", "d23"))
        twins = [
            ("0.5 * (d12^2 + d13^2 + d23^2)", builtin_potential("harmonic", k=1.0, rest_length=0.0),
             MASSES),
            ("-2.6/d12 - 3.9/d13 - 7.8/d23", builtin_potential("gravity", G=1.3),
             MassTriple(1.0, 2.0, 3.0)),
            ("0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2",
             builtin_potential("harmonic", rest_length=1.0), MASSES),
            (lennard_jones, builtin_potential("lennard_jones"), MASSES),
        ]
        for text, spec_builtin, masses in twins:
            spec_expr = parse_potential(text)
            for _ in range(10):
                pos = self._spread_positions()
                F_expr = forces_cartesian(spec_expr, masses, pos)
                F_builtin = forces_cartesian(spec_builtin, masses, pos)
                assert np.allclose(F_expr, F_builtin, atol=1e-6)
                assert np.max(np.abs(F_expr - F_builtin)) <= 1e-12 * np.max(np.abs(F_builtin))

    def test_phi_force_undefined_raises(self):
        # r2 = 0 (body 2 at the midpoint of 1 and 3) and r1 = 0 (1 and 3
        # coincide): phi has no derivative; at an exactly collinear shape
        # neither has it where dV/dphi is not 0
        cases = [
            ("cos(phi)", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            ("cos(phi)", [[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]]),
            ("r1 * phi", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            ("sin(phi)", [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            ("phi + d12", [[1.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            # however small dV/dphi is, and whatever else V holds
            ("1e-200 * phi", [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            ("1e-200 * phi", [[1.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            ("10*(1+cos(phi)) + 1e-3*sin(phi)", [[1.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        ]
        for text, pos in cases:
            with pytest.raises(DomainError) as err:
                forces_cartesian(parse_potential(text), MASSES, np.array(pos))
            assert err.value.node == "phi"

    @pytest.mark.parametrize(
        "text",
        ["cos(phi) * r1 + 0.5 * d12^2 + cos(phi)", "10*(1+cos(phi))", "4*sin(phi)^2"],
    )
    def test_collinear_limit_force_matches_stencil(self, text):
        # dV/dphi = 0 at phi = 0 and pi: the force is the limit, finite,
        # whatever the size of V and of the phi term
        masses = MassTriple(1.0, 2.0, 3.0)
        spec = parse_potential(text)
        step = 1e-4
        offsets = np.array([2.0, 1.0, -1.0, -2.0]) * step
        weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12.0 * step)
        # body 2 beyond body 1 (phi = 0), then beyond body 3 (phi = pi)
        for x2 in (2.5, -2.5):
            pos = np.array([[1.0, 0.0, 0.0], [x2, 0.0, 0.0], [-1.0, 0.0, 0.0]])
            F = forces_cartesian(spec, masses, pos)
            for i in range(3):
                for k in range(3):
                    probes = np.repeat(pos[None], 4, axis=0)
                    probes[:, i, k] += offsets
                    fd = -weights @ potential_at_positions(spec, masses, probes)
                    assert abs(F[i, k] - fd) <= 1e-6 * max(abs(fd), 1.0)

    @pytest.mark.parametrize(
        "ast",
        [
            Var("__import__('os')"),
            Call("tan", Var("r1")),
            Bin("%", Var("r1"), Num(2.0)),
            Bin("+", Var("r1"), "r2"),
        ],
    )
    def test_tree_the_parser_cannot_make_is_rejected(self, ast):
        with pytest.raises(ValueError):
            PotentialSpec(ast=ast)

    def test_pair_force_at_zero_distance(self):
        # bodies 1 and 2 coincide: d12 has no derivative there, d12^2 has 0
        pos = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 0.3, 0.0]])
        with pytest.raises(DomainError) as err:
            forces_cartesian(parse_potential("d12 + d13"), MASSES, pos)
        assert (err.value.node, err.value.value) == ("d12", 0.0)
        F = forces_cartesian(parse_potential("d12^2 + d13^2"), MASSES, pos)
        assert np.allclose(F, -2.0 * np.array([pos[0] - pos[2], [0.0] * 3, pos[2] - pos[0]]))
        # the built-ins share that rule; gravity and Lennard-Jones diverge
        # there, in their value too
        F = forces_cartesian(builtin_potential("harmonic", k=2.0, rest_length=0.0), MASSES, pos)
        assert np.allclose(F, forces_cartesian(parse_potential("d12^2 + d13^2 + d23^2"), MASSES, pos))
        for name in ("harmonic", "gravity", "lennard_jones"):
            with pytest.raises(DomainError) as err:
                forces_cartesian(builtin_potential(name), MASSES, pos)
            assert (err.value.node, err.value.value) == ("d12", 0.0)
        for name in ("gravity", "lennard_jones"):
            with pytest.raises(DomainError) as err:
                potential_at_positions(builtin_potential(name), MASSES, pos[None])
            assert (err.value.node, err.value.value) == ("d12", 0.0)

    @pytest.mark.parametrize(
        "text, node, value",
        [
            ("sqrt(d12 - 1)", "sqrt", 0.0),
            ("(d12 - 1) ^ 0.5", "^", (0.0, 0.5)),
            ("exp(d13) * sqrt(abs(d12 - 1))", "sqrt", 0.0),
        ],
    )
    def test_derivative_not_finite_names_node(self, text, node, value):
        # d12 = 1: the value is finite, its derivative is not
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        spec = parse_potential(text)
        with pytest.raises(DomainError) as err:
            forces_cartesian(spec, MASSES, pos)
        assert (err.value.node, err.value.value) == (node, value)
