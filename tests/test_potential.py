from math import pi, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trireduce.potential
from trireduce.checks import random_rotation
from trireduce.errors import DomainError, PotentialSyntaxError, UnknownIdentifier
from trireduce.geometry import MassTriple, ShapeCoordinates, jacobi_map, measure_shape, shape_to_distances
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


def reference_pair_forces(spec, masses, x):
    """Forces of a built-in family, or of the pairwise expression
    0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2, by the formula that the
    incidence products replace: pair vectors by take and subtract, dV/dd
    from the family's formula, and the bodies' forces as one einsum over
    the pair-by-body incidence matrix of -dV/dd times the unit pair
    vectors.  For positions with no pair at distance 0."""
    first, second = np.array([(0, 1), (0, 2), (1, 2)]).T
    incidence = np.eye(3)[first] - np.eye(3)[second]
    delta = x.take(first, -2) - x.take(second, -2)
    d = np.sqrt(np.add.reduce(delta * delta, -1))
    params = spec.params
    if spec.builtin == "free":
        dVdd = np.zeros_like(d)
    elif spec.builtin == "harmonic":
        rest = [params.get("rest", {}).get(n, params.get("rest_length", 1.0)) for n in ("d12", "d13", "d23")]
        dVdd = params.get("k", 1.0) * (d - np.array(rest))
    elif spec.builtin == "gravity":
        G, m1, m2, m3 = params.get("G", 1.0), masses.m1, masses.m2, masses.m3
        dVdd = np.array([G * m1 * m2, G * m1 * m3, G * m2 * m3]) / d ** 2
    elif spec.builtin == "lennard_jones":
        s6 = (params.get("sigma", 1.0) / d) ** 6
        dVdd = 4.0 * params.get("epsilon", 1.0) * (-12.0 * s6 * s6 + 6.0 * s6) / d
    else:
        # the pullback of 0.5*(d-1)^2 multiplies exactly: 0.5 * 2.0 * (d-1)^1.0
        dVdd = d - 1.0
    return np.einsum("pb,pk->bk", incidence, -dVdd[:, None] * delta / d[:, None])


# The closure compiler that the generated walk replaced, kept as the
# reference for its bits and its errors: a closure per node, every
# operation through reference_apply, and the adjoints as functions.
REFERENCE_ADJOINTS = {
    "+": (lambda g, v, a, b: g, lambda g, v, a, b: g),
    "-": (lambda g, v, a, b: g, lambda g, v, a, b: -g),
    "*": (lambda g, v, a, b: g * b, lambda g, v, a, b: g * a),
    "/": (lambda g, v, a, b: g / b, lambda g, v, a, b: -g * v / b),
    "^": (lambda g, v, a, b: g * b * a ** (b - 1.0), lambda g, v, a, b: g * v * np.log(a)),
    "neg": (lambda g, v, a: -g,),
    "sin": (lambda g, v, a: g * np.cos(a),),
    "cos": (lambda g, v, a: -g * np.sin(a),),
    "sqrt": (lambda g, v, a: 0.5 * g / v,),
    "exp": (lambda g, v, a: g * v,),
    "log": (lambda g, v, a: g / a,),
    "abs": (lambda g, v, a: g * np.sign(a),),
}


def reference_raise_at(name, shape, bad, args):
    row = [float(np.broadcast_to(a, shape)[bad.argmax()]) for a in args]
    raise DomainError(name, tuple(row) if name == "^" else row[-1])


def reference_apply(name, shape, *args):
    value = trireduce.potential._UFUNCS[name](*args)
    domain = trireduce.potential._DOMAIN
    if name in domain and not np.isfinite(value).all():
        bad = np.broadcast_to(domain[name](*args) & ~np.isfinite(value), shape)
        if bad.any():
            reference_raise_at(name, shape, bad, args)
    return value


def reference_check_adjoint(name, shape, adjoint, args):
    bad = ~np.isfinite(np.broadcast_to(adjoint, shape))
    if bad.any():
        reference_raise_at(name, shape, bad, args)


def reference_compile(node, reads):
    """walk(columns, shape) -> (value, back), back(g, check, grads) adding
    each variable's derivative to the dict grads; a constant's value is a
    Python number and its back None."""
    if isinstance(node, Num):
        return lambda columns, shape: (node.value, None)
    if isinstance(node, Var):
        reads.add(node.name)

        def pull_var(g, check, grads):
            grads[node.name] = grads[node.name] + g if node.name in grads else g

        return lambda columns, shape: (columns[node.name], pull_var)
    if isinstance(node, (Neg, Call)):
        name = "neg" if isinstance(node, Neg) else node.fn
        operands = [reference_compile(node.arg, reads)]
    else:
        name, operands = node.op, [reference_compile(node.left, reads), reference_compile(node.right, reads)]

    def walk(columns, shape):
        args, pulls = zip(*(operand(columns, shape) for operand in operands))
        value = reference_apply(name, shape, *args)
        if all(pull is None for pull in pulls):
            return value, None

        def back(g, check, grads):
            for pull, adjoint in zip(pulls, REFERENCE_ADJOINTS[name]):
                if pull is not None:
                    g_operand = adjoint(g, value, *args)
                    if check:
                        reference_check_adjoint(name, shape, g_operand, args)
                    pull(g_operand, check, grads)

        return value, back

    return walk


def reference_run(spec, columns, shape, gradient):
    """potential._run by the reference compiler."""
    reads = set()
    walk = reference_compile(spec.ast, reads)
    if "phi" in reads:
        undefined = np.broadcast_to((columns["r1"] == 0.0) | (columns["r2"] == 0.0), shape)
        if undefined.any():
            raise DomainError("phi", float(np.broadcast_to(columns["phi"], shape)[undefined][0]))
    with np.errstate(all="ignore"):
        value, back = walk(columns, shape)
        bad = ~np.isfinite(np.broadcast_to(value, shape))
        if bad.any():
            raise DomainError("expression", float(np.broadcast_to(value, shape)[bad][0]))
        if not gradient:
            return value, None
        grads = {}
        if back is not None:
            back(np.ones(shape), False, grads)
        gradient = np.array([grads.get(name, np.zeros(shape)) for name in VARIABLES])
        if not np.isfinite(gradient).all():
            back(np.ones(shape), True, {})
            row, column = np.argwhere(~np.isfinite(gradient))[0]
            name = VARIABLES[row]
            raise DomainError(name, float(np.broadcast_to(columns[name], shape)[column]))
    return value, gradient


def outcome(call, *args):
    """What call(*args) gives: the dtype, shape and bytes of each array in
    its result, or the node of its DomainError and the repr of its value."""
    try:
        result = call(*args)
    except DomainError as exc:
        return exc.node, repr(exc.value)
    arrays = [np.asarray(r) for r in (result if isinstance(result, tuple) else [result]) if r is not None]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def assert_reference_bits(spec):
    """V and its (6, N) gradient, or the DomainError, on each batch of
    BATCHES and on each of its rows alone, and the forces, or the
    DomainError, at FORCE_CONFIGS, are the reference compiler's."""
    for batch in BATCHES:
        for rows in [batch, *batch[:, None]]:
            columns = dict(zip(VARIABLES, rows.T))
            for gradient in (False, True):
                args = (spec, columns, (len(rows),), gradient)
                assert outcome(trireduce.potential._run, *args) == outcome(reference_run, *args)
    for pos in FORCE_CONFIGS:
        with mock.patch.object(trireduce.potential, "_run", reference_run):
            expected = outcome(forces_cartesian, spec, MASSES, pos)
        assert outcome(forces_cartesian, spec, MASSES, pos) == expected


def bit_pin_positions():
    """Positions for the force-bit test: seeded random; planar with z = 0.0,
    with z = -0.0 and with zeros of both signs; exactly collinear, on an
    axis and on a diagonal; and at the harmonic's rest lengths, where
    dV/dd = 0."""
    rng = np.random.default_rng(1601)
    positions = [rng.uniform(-1.5, 1.5, size=(3, 3)) for _ in range(24)]
    for z in ([0.0] * 3, [-0.0] * 3, [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]):
        for _ in range(6):
            pos = rng.uniform(-1.5, 1.5, size=(3, 3))
            pos[:, 2] = z
            positions.append(pos)
    lines = [
        [[1.0, 0.0, 0.0], [2.5, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[1.0, -0.0, 0.0], [-2.5, 0.0, -0.0], [-1.0, -0.0, -0.0]],
        [[0.5, 1.0, -0.0], [-0.75, -1.5, 0.0], [1.25, 2.5, -0.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
        [[0.0, -0.0, -0.0], [-0.0, 1.0, -0.0], [0.0, 2.0, -0.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, sqrt(3) / 2, 0.0]],
    ]
    return positions + [np.array(pos) for pos in lines]


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

    @pytest.mark.parametrize(
        "text, position, expected", [("1.2.3 + r1", 1, "number"), ("r1 $ 2", 4, "token")]
    )
    def test_bad_token_position(self, text, position, expected):
        with pytest.raises(PotentialSyntaxError) as err:
            parse_potential(text)
        assert (err.value.position, err.value.expected) == (position, expected)

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


class TestSpec:
    def test_needs_exactly_one_kind(self):
        for kwargs in ({}, {"builtin": "free", "ast": Var("r1")}):
            with pytest.raises(ValueError, match="^exactly one of builtin/ast must be set$"):
                PotentialSpec(**kwargs)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="^unknown builtin potential 'morse'$"):
            builtin_potential("morse")


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
        from trireduce.geometry import body_jacobi_vectors, cartesian_from_jacobi

        b1, b2 = body_jacobi_vectors(q)
        for _ in range(10):
            Q = random_rotation(RNG)
            z = np.zeros(3)
            state = cartesian_from_jacobi(masses, Q @ b1, Q @ b2, z, z)
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
        # at r2 = 0 and r1 = 0 phi = atan2(0, 0) is undefined in the value too
        for text, pos in cases[:3]:
            with pytest.raises(DomainError) as err:
                potential_at_positions(parse_potential(text), MASSES, np.array([pos]))
            assert (err.value.node, err.value.value) == ("phi", 0.0)

    def test_phi_slope_with_domain_error_beyond_the_limit_raises(self):
        # dV/dphi of sqrt(phi + 5e-324) is finite at phi = 0, but at the float
        # beyond the limit V's derivative leaves sqrt's domain: the slope is
        # not taken as changing sign there, so phi has no derivative
        pos = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DomainError) as err:
            forces_cartesian(parse_potential("sqrt(phi + 5e-324)"), MASSES, pos)
        assert (err.value.node, err.value.value) == ("phi", 0.0)

    def test_derivative_overflowing_only_in_its_sum_names_the_variable(self):
        # each term's derivative by r1 is finite, their sum is not: no
        # operation passes an infinite adjoint down, so the variable is named
        masses = MassTriple(2.0, 1.0, 2.0)  # mu1 = 1, so r1 = |x1 - x3| = 0.1
        pos = np.array([[0.1, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        spec = parse_potential("1e308*sin(r1) + 1e308*sin(r1)")
        assert np.isfinite(potential_at_positions(spec, masses, pos[None])[0])
        with pytest.raises(DomainError) as err:
            forces_cartesian(spec, masses, pos)
        assert (err.value.node, err.value.value) == ("r1", 0.1)

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
            # trees that would be code if their text reached the generated source
            Var("r1'] + columns['r2"),
            Bin("*", Num(2.0), Var('r1"]\nimport os\nx = columns["r1')),
            Call("sin(r1)); import os; (", Var("r1")),
            Bin("+ 0 +", Var("r1"), Num(2.0)),
            Bin("+", Var("r1"), Num("1); import os; (1")),
            Var(type("Name", (str,), {"__repr__": lambda self: "__import__('os')"})("r1")),
        ],
    )
    def test_tree_the_parser_cannot_make_is_rejected(self, ast, monkeypatch):
        # the emitter raises before it builds any source
        built = []
        monkeypatch.setattr(trireduce.potential, "compile", lambda *args: built.append(args), raising=False)
        with pytest.raises(ValueError):
            PotentialSpec(ast=ast)
        assert built == []

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
        "spec, masses",
        [
            (builtin_potential("gravity", G=1.3), MassTriple(1.0, 1.5, 2.0)),
            (builtin_potential("gravity"), MASSES),
            (builtin_potential("harmonic", k=0.7, rest_length=1.2, rest={"d13": 0.9}),
             MassTriple(1.0, 1.5, 2.0)),
            (builtin_potential("harmonic", k=1.0, rest_length=1.0), MASSES),
            (builtin_potential("lennard_jones", epsilon=0.8, sigma=1.1), MASSES),
            (builtin_potential("free"), MASSES),
            (parse_potential("0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2"), MASSES),
        ],
        ids=["gravity", "gravity_unit", "harmonic", "harmonic_rest", "lennard_jones", "free",
             "expr_sparse"],
    )
    def test_pair_forces_keep_the_reference_bits(self, spec, masses):
        # byte for byte, so the sign of every 0 is held too: the CSV prints -0
        positions = bit_pin_positions()
        for pos in positions:
            F = forces_cartesian(spec, masses, pos)
            assert F.tobytes() == reference_pair_forces(spec, masses, pos).tobytes(), pos
        if spec.builtin is not None:
            # the pair kernels take a stack of states with the same bits
            delta = trireduce.potential._INCIDENCE @ np.array(positions)
            d = np.sqrt(np.add.reduce(delta * delta, -1))
            slopes = trireduce.potential._pair_slopes(spec, masses, d)
            F = trireduce.potential._pair_forces(slopes, delta, d)
            rows = [forces_cartesian(spec, masses, pos) for pos in positions]
            assert F.tobytes() == np.array(rows).tobytes()

    def test_pair_potentials_skip_the_shape(self, monkeypatch):
        # V of a potential that reads only pair distances has the bits of
        # eval_potential_batch at the measured shape, which it never measures
        masses = MassTriple(1.0, 1.5, 2.0)
        pos = np.array([self._spread_positions() for _ in range(5)])
        d = np.sqrt(np.add.reduce((pos[:, [0, 0, 1]] - pos[:, [1, 2, 2]]) ** 2, -1))
        r1, r2, _, _, _, phi = measure_shape(*jacobi_map(masses, pos[:, 0], pos[:, 1], pos[:, 2]))
        specs = [builtin_potential(name) for name in ("free", "gravity", "harmonic", "lennard_jones")]
        specs += [parse_potential("0.5*(d12-1)^2 + 1/d23"), parse_potential("2 ^ 3")]
        expected = [eval_potential_batch(spec, masses, r1, r2, phi, *d.T) for spec in specs]
        calls = []

        def measure(*s):
            calls.append(None)
            return measure_shape(*s)

        monkeypatch.setattr(trireduce.potential, "measure_shape", measure)
        for spec, V in zip(specs, expected):
            assert potential_at_positions(spec, masses, pos).tobytes() == V.tobytes()
        assert calls == []
        potential_at_positions(parse_potential("r1 + d12"), masses, pos)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "spec",
        [builtin_potential("gravity"),
         parse_potential("0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2"),
         parse_potential("sin(phi)*d12 + r1/d23 + 0.3*cos(phi)^2*r2")],
        ids=["gravity", "expr_sparse", "phi"],
    )
    def test_a_given_shape_is_not_measured_again(self, monkeypatch, spec):
        # V at the caller's measured shape has the bits of V that measures it,
        # and with the shape given, the positions are neither mapped nor measured
        masses = MassTriple(1.0, 1.5, 2.0)
        x = np.array([self._spread_positions() for _ in range(7)])
        r1, r2, _, _, _, phi = measure_shape(*jacobi_map(masses, x[:, 0], x[:, 1], x[:, 2]))
        expected = potential_at_positions(spec, masses, x)
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)

            return counted

        module = trireduce.potential
        for name in ("jacobi_map", "measure_shape"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert potential_at_positions(spec, masses, x, (r1, r2, phi)).tobytes() == expected.tobytes()
        assert calls == []

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


class TestGeneratedWalk:
    @settings(max_examples=200, deadline=None)
    @given(EXPRESSIONS)
    def test_walk_keeps_the_reference_bits(self, ast):
        assert_reference_bits(PotentialSpec(ast=ast))

    @pytest.mark.parametrize("value", [np.inf, np.nan, -0.0, 5e-324, 1e308])
    def test_constants_keep_the_reference_bits(self, value):
        # a constant is held as a 0-d array, never written into the source
        c = Num(value)
        trees = [
            c, Neg(c), Bin("*", c, Var("r1")), Bin("+", Var("d12"), c), Bin("-", c, Var("d13")),
            Bin("/", Var("d23"), c), Bin("/", c, Var("r2")), Bin("^", Var("d12"), c),
            Bin("^", c, Var("phi")), Call("exp", Bin("*", c, Var("d13"))), Call("log", Bin("+", c, c)),
        ]
        for ast in trees:
            assert_reference_bits(PotentialSpec(ast=ast))

    def test_compiled_once(self, monkeypatch):
        # a spec compiles its walk when it is built and never after; the
        # checking walk, once, on the first derivative that is not finite
        built = []

        def counting(*args):
            built.append(args)
            return compile(*args)

        monkeypatch.setattr(trireduce.potential, "compile", counting, raising=False)
        spec = parse_potential("sqrt(d12 - 1) + 0.5*(d13 - 1)^2 + r1*cos(phi)")
        assert len(built) == 1
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        for _ in range(1000):
            forces_cartesian(spec, MASSES, pos)
        eval_potential_batch(spec, MASSES, *[np.linspace(1.5, 2.5, 1001)] * 6)
        assert len(built) == 1
        pos[1, 0] = 1.0  # d12 = 1: sqrt has no derivative there
        for _ in range(3):
            with pytest.raises(DomainError) as err:
                forces_cartesian(spec, MASSES, pos)
            assert (err.value.node, err.value.value) == ("sqrt", 0.0)
        assert len(built) == 2
