import ast as python_ast
import gc
import re
import weakref
from dataclasses import fields
from math import pi, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trireduce.potential
from trireduce.checks import GOLDEN_EXPRESSIONS, random_rotation
from trireduce.errors import DomainError, NumericalBlowup, PotentialSyntaxError, UnknownIdentifier
from trireduce.geometry import (
    COLUMNS,
    FLOATS,
    CartesianState,
    MassTriple,
    jacobi_map,
    measure_shape,
    shape_to_distances,
)
from trireduce.hamiltonian import evaluate_reduced, evaluate_reduced_batch
from trireduce.potential import (
    BUILTIN_NAMES,
    BUILTIN_PARAMS,
    PAIRS,
    Bin,
    Call,
    Neg,
    Num,
    PotentialSpec,
    VARIABLES,
    Var,
    builtin_potential,
    eval_potential_batch,
    force_field,
    forces_cartesian,
    parse_expression,
    parse_potential,
    potential_at_positions,
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

# random expression text with every token kind: numerals in repr and integer
# form, the variables, pi, e, stacked unary minus, the binary operators and
# the calls, with random parentheses
TEXTS = st.recursive(
    st.one_of(
        st.floats(0, 1e300).map(repr),
        st.integers(0, 10 ** 20).map(str),
        st.sampled_from([*VARIABLES, "pi", "e"]),
    ),
    lambda inner: st.one_of(
        st.tuples(st.integers(1, 3), inner).map(lambda t: "-" * t[0] + t[1]),
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
        st.tuples(st.sampled_from(["sin", "cos", "sqrt", "exp", "log", "abs"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        inner.map(lambda text: f"({text})"),
    ),
    max_leaves=12,
)


def python_tree(node):
    """The tree of a node of Python's own parse of an expression, with ^
    written as **: Python's ** has ^'s grammar (right-associative, tighter
    than a unary minus on its left, a unary exponent)."""
    if isinstance(node, python_ast.Constant):
        return Num(float(node.value))
    if isinstance(node, python_ast.Name):
        return Var(node.id) if node.id in VARIABLES else Num({"pi": pi, "e": np.e}[node.id])
    if isinstance(node, python_ast.UnaryOp) and isinstance(node.op, python_ast.USub):
        return Neg(python_tree(node.operand))
    if isinstance(node, python_ast.Call):
        (arg,) = node.args
        return Call(node.func.id, python_tree(arg))
    ops = {python_ast.Add: "+", python_ast.Sub: "-", python_ast.Mult: "*",
           python_ast.Div: "/", python_ast.Pow: "^"}
    return Bin(ops[type(node.op)], python_tree(node.left), python_tree(node.right))


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


def reference_pair_energies(spec, masses, x):
    """V of a built-in family at the positions x, one (3, 3) state or an
    (N, 3, 3) batch, by the array formula that the pair terms replace: the
    three pairs at once on (..., 3) distances, with 1.0 standing in for a d
    of 0 and the term set to inf there for gravity and Lennard-Jones, and
    DomainError at the first row with a term that is not finite, naming its
    first such pair with that pair's distance."""
    first, second = np.array([(0, 1), (0, 2), (1, 2)]).T
    with np.errstate(all="ignore"):
        delta = x.take(first, -2) - x.take(second, -2)
        d = np.sqrt(np.add.reduce(delta * delta, -1))
        params = spec.params
        if spec.builtin == "free":
            energy = np.zeros_like(d)
        elif spec.builtin == "harmonic":
            rest = [params.get("rest", {}).get(n, params.get("rest_length", 1.0)) for n in PAIRS]
            energy = 0.5 * params.get("k", 1.0) * (d - np.array(rest, dtype=float)) ** 2
        else:
            off = np.where(d == 0.0, 1.0, d)
            if spec.builtin == "gravity":
                G, m1, m2, m3 = params.get("G", 1.0), masses.m1, masses.m2, masses.m3
                energy = -np.array([G * m1 * m2, G * m1 * m3, G * m2 * m3]) / off
            else:
                s6 = (params.get("sigma", 1.0) / off) ** 6
                energy = 4.0 * params.get("epsilon", 1.0) * (s6 * s6 - s6)
            energy = np.where(d == 0.0, np.inf, energy)
    bad = ~np.isfinite(energy)
    if bad.any():
        raise DomainError(list(PAIRS)[bad.nonzero()[-1][0]], float(d[bad][0]))
    return (energy[..., 0] + energy[..., 1]) + energy[..., 2]


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


# the reference's own numpy kernel of each operation, and where each leaves
# its domain, given its operands
REFERENCE_UFUNCS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power, "neg": np.negative,
    "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.absolute,
}
REFERENCE_DOMAIN = {
    "/": lambda a, b: b == 0.0,
    "^": lambda a, b: np.isfinite(a) & np.isfinite(b),
    "sin": np.isinf,
    "cos": np.isinf,
    "sqrt": lambda x: x < 0.0,
    "exp": np.isfinite,
    "log": lambda x: x <= 0.0,
}


def reference_apply(name, shape, *args):
    value = REFERENCE_UFUNCS[name](*args)
    if name in REFERENCE_DOMAIN and not np.isfinite(value).all():
        bad = np.broadcast_to(REFERENCE_DOMAIN[name](*args) & ~np.isfinite(value), shape)
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


def state_on_columns(run):
    """potential._run_state by `run` on (1,) columns alone: the column walk's
    row, for a reference of one state's floats."""

    def run_state(spec, values, gradient):
        value, derivatives = run(spec, {n: np.array([v]) for n, v in values.items()}, (1,), gradient)
        return float(np.ravel(value)[0]), derivatives[:, 0].tolist() if gradient else None

    return run_state


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
    BATCHES and on each of its rows alone, and the forces and one state's V
    (on the float walk), or the DomainError, at FORCE_CONFIGS, are the
    reference compiler's."""
    for batch in BATCHES:
        for rows in [batch, *batch[:, None]]:
            columns = dict(zip(VARIABLES, rows.T))
            for gradient in (False, True):
                args = (spec, columns, (len(rows),), gradient)
                assert outcome(trireduce.potential._run, *args) == outcome(reference_run, *args)
    for pos in FORCE_CONFIGS:
        for call in (forces_cartesian, potential_at_positions):
            with mock.patch.object(trireduce.potential, "_run_state", state_on_columns(reference_run)):
                expected = outcome(call, spec, MASSES, pos)
            assert outcome(call, spec, MASSES, pos) == expected


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


def hard_positions():
    """States where a pair term leaves the float range or diverges: bodies
    2 and 3 coincident, all three coincident, bodies 1 and 2 1e-160 apart,
    and states at scale 1e150 and at 1e155, where the squared distances
    overflow to inf."""
    rng = np.random.default_rng(3101)
    coincident = rng.uniform(-1.5, 1.5, size=(3, 3))
    coincident[2] = coincident[1]
    close = rng.uniform(-1.5, 1.5, size=(3, 3))
    close[:2] = [[0.0, 0.0, 0.0], [1e-160, 0.0, 0.0]]
    return [
        coincident,
        np.full((3, 3), 0.25),
        close,
        rng.uniform(-1.5, 1.5, size=(3, 3)) * 1e150,
        np.array([[0.0, 0.0, 0.0], [2.0, 0.5, 0.0], [-0.5, 1.5, 1.0]]) * 1e155,
    ]


def ctx_with(**kwargs):
    """Columns r1, r2, phi, d12, d13, d23 of a one-row batch, 1.0 by default."""
    defaults = dict(r1=1.0, r2=1.0, phi=1.0, d12=1.0, d13=1.0, d23=1.0)
    defaults.update(kwargs)
    return [np.array([defaults[v]]) for v in VARIABLES]


def shape_row(masses, q):
    """Columns of the one-row batch at the shape q = (r1, r2, phi), with its
    pair distances."""
    return [np.array([v]) for v in (*q, *shape_to_distances(masses, *q))]


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
        "text, position, expected",
        [("1.2.3 + r1", 1, "number"), ("r1 $ 2", 4, "token"), ("1e999 * r1", 1, "number")],
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

    def test_literal_inside_the_float_range(self):
        # 1e999 overflows to inf and is rejected; 1e308 is a float
        assert parse_expression("1e308 * r1") == Bin("*", Num(1e308), Var("r1"))

    @settings(max_examples=300, deadline=None)
    @given(TEXTS)
    @example("-r1^2")
    @example("2^-3^2")
    @example("r1^2^3")
    @example("r1 - r2 - phi")
    @example("r1 / r2 / 2")
    @example("--d12")
    @example("r1 + r2 * phi - d12 / 2")
    def test_parser_agrees_with_python_grammar(self, text):
        # an oracle independent of the parser: Python's parse of the same text
        expected = python_tree(python_ast.parse(text.replace("^", "**"), mode="eval").body)
        assert parse_expression(text) == expected

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 10 ** 400], ids=["inf", "nan", "10**400"])
    def test_printer_refuses_the_constants_the_emitter_refuses(self, value):
        # no text spells such a constant ('inf * d12' names an unknown
        # identifier, 401 digits overflow), and the emitter refuses it
        with pytest.raises(ValueError, match=r"^not an expression node: Num\(value="):
            PotentialSpec(ast=Bin("*", Num(value), Var("d12")))

    @pytest.mark.parametrize(
        "ast",
        [Num(-1.5), Num(-0.0), Bin("*", Num(-2.0), Var("r1"))],
        ids=["negative", "negative-zero", "negative-factor"],
    )
    def test_printer_refuses_a_constant_with_its_sign_bit_set(self, ast):
        # the parser reads '-1.5' as Neg(Num(1.5)), so no text parses to
        # such a tree; the emitter still compiles it
        value = eval_potential_batch(PotentialSpec(ast=ast), MASSES, *np.full((6, 1), 3.0))
        assert value.tolist() == [-6.0 if isinstance(ast, Bin) else ast.value]

    @pytest.mark.parametrize(
        "text, position, expected",
        [
            ("(" * 250 + "d12" + ")" * 250, 161, "at most 160 levels of nesting"),
            ("-" * 200 + "d12", 161, "at most 160 levels of nesting"),
            ("sin(" * 161 + "d12" + ")" * 161, 641, "at most 160 levels of nesting"),
            ("^".join(["d12"] * 170), 641, "at most 160 levels of nesting"),
            (" + ".join(["d12"] * 900), 3005, "at most 500 operations deep"),
            # the product is 299 deep, so the 202nd '+' (at 1801 + 201 * 6) makes 501
            ("(" + " * ".join(["d12"] * 300) + ") + " + " + ".join(["d13"] * 300), 3007, "at most 500 operations deep"),
        ],
        ids=["parentheses", "negations", "calls", "powers", "flat-sum", "nested-chains"],
    )
    def test_too_deep_is_a_syntax_error(self, text, position, expected):
        # the parser and _emit recurse once or more per level, so input they
        # could not take is refused where it gets too deep, before either recurses past it
        with pytest.raises(PotentialSyntaxError) as err:
            parse_potential(text)
        assert (err.value.position, err.value.expected) == (position, expected)

    def test_deep_expressions_within_the_limits_compile(self):
        # 159 parentheses, a 501-term sum (500 operations deep) and 159
        # nested calls evaluate with the bits of the same numpy calls
        d = np.array([0.75, 1.5, -2.0])
        columns = dict(zip(VARIABLES, [d] * 6))
        nested = parse_potential("(" * 159 + "d12" + ")" * 159)
        value, gradient = trireduce.potential._run(nested, columns, d.shape, True)
        assert value.tobytes() == d.tobytes() and gradient[3].tolist() == [1.0] * 3
        total = d
        for _ in range(500):
            total = total + d
        flat = parse_potential(" + ".join(["d12"] * 501))
        value, gradient = trireduce.potential._run(flat, columns, d.shape, True)
        assert value.tobytes() == total.tobytes() and gradient[3].tolist() == [501.0] * 3
        calls = parse_potential("abs(" * 159 + "d12" + ")" * 159)
        value, _ = trireduce.potential._run(calls, columns, d.shape, False)
        assert value.tobytes() == np.abs(d).tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            " + ".join(["r1"] * 501),
            "-" * 159 + "d12",
            "sin(" * 159 + "d12" + ")" * 159,
            "^".join(["d12"] * 160),
            "cos(" * 100 + " * ".join(["d12"] * 400) + ")" * 100,
        ],
        ids=["flat-sum", "negations", "calls", "powers", "nested-chains"],
    )
    def test_deepest_trees_have_repr_eq_and_hash(self, text):
        # the deepest trees the parser takes: a 501-term sum raised
        # RecursionError in repr and ==, which took frames per level
        spec, again = parse_potential(text), parse_potential(text)
        assert spec == again and spec.ast == again.ast
        assert repr(spec) == repr(again) and repr(spec.ast) in repr(spec)
        leaves = re.findall(r"Var\(name='(\w+)'\)", repr(spec.ast))
        assert leaves == re.findall(r"[a-z]\w*\d", text)
        # another variable at the first leaf or at the last, one of them the deepest
        found = list(re.finditer(r"r1|d12", text))
        for match in (found[0], found[-1]):
            swapped = {"r1": "r2", "d12": "d13"}[match[0]]
            other = parse_potential(text[: match.start()] + swapped + text[match.end() :])
            assert other.ast != spec.ast and other != spec and repr(other.ast) != repr(spec.ast)

    @settings(max_examples=200, deadline=None)
    @given(EXPRESSIONS)
    def test_repr_eq_and_hash_are_the_dataclasses(self, ast):
        # the text of the dataclass repr and structural ==
        nodes = (Num, Var, Neg, Bin, Call)

        def rebuilt(node):
            if not isinstance(node, nodes):
                return node
            return type(node)(*[rebuilt(getattr(node, f.name)) for f in fields(node)])

        def dataclass_repr(node):
            if not isinstance(node, nodes):
                return repr(node)
            items = ", ".join(f"{f.name}={dataclass_repr(getattr(node, f.name))}" for f in fields(node))
            return f"{type(node).__qualname__}({items})"

        copy = rebuilt(ast)
        assert copy is not ast and copy == ast
        assert repr(ast) == dataclass_repr(ast)
        assert Neg(ast) != ast and Neg(ast) == Neg(copy) and ast != "r1"

    @pytest.mark.parametrize("depth", [500, 501, 1200])
    def test_hand_built_trees_obey_the_depth_limit(self, depth):
        # a tree built without the parser is held to its limit, counted as
        # the parser counts it; past it PotentialSpec raises ValueError
        # before _emit recurses (1200 was a RecursionError)
        node = Var("d12")
        for _ in range(depth - 1):
            node = Neg(node)
        node = Bin("*", Num(2.0), node)
        if depth > 500:
            with pytest.raises(ValueError, match="^tree deeper than 500 operations$"):
                PotentialSpec(ast=node)
            return
        d = np.array([0.75, 1.5, -2.0])
        value, gradient = trireduce.potential._run(
            PotentialSpec(ast=node), dict(zip(VARIABLES, [d] * 6)), d.shape, True
        )
        assert value.tolist() == (-2.0 * d).tolist() and gradient[3].tolist() == [-2.0] * 3

    def test_shared_subtree_is_refused_at_once(self, monkeypatch):
        # n = n + n, 400 times, is 401 nodes and 400 deep, within the depth
        # limit, but 2^400 paths from the root: refused before any source
        # is built, where _emit would walk every path (depth 20 took 29 s)
        leaf = Var("d12")
        # a shared leaf is not a shared operation: it compiles
        spec = PotentialSpec(ast=Bin("*", leaf, Bin("+", leaf, Num(1.0))))
        assert eval_potential_batch(spec, MASSES, *np.full((6, 1), 3.0)).tolist() == [12.0]
        built = []
        monkeypatch.setattr(trireduce.potential, "compile", lambda *args: built.append(args), raising=False)
        node = leaf
        for _ in range(400):
            node = Bin("+", node, node)
        once = Bin("+", leaf, Num(1.0))
        for ast in (node, Call("sin", Bin("*", once, Neg(once)))):
            with pytest.raises(ValueError, match="^tree shares a subtree$"):
                PotentialSpec(ast=ast)
        assert built == []


class TestSpec:
    def test_needs_exactly_one_kind(self):
        for kwargs in ({}, {"builtin": "free", "ast": Var("r1")}):
            with pytest.raises(ValueError, match="^exactly one of builtin/ast must be set$"):
                PotentialSpec(**kwargs)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="^unknown builtin potential 'morse'$"):
            builtin_potential("morse")

    def test_parameter_called_name_is_unknown(self):
        # the family's name is positional-only, so a parameter `name` is one
        # more parameter the family does not read, not a TypeError
        with pytest.raises(ValueError, match=r"^params\.name: gravity reads \['G'\]$"):
            builtin_potential("gravity", name=1.0)


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
        q = (1.4, 0.9, 1.2)
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
        q = (1.4, 0.9, 1.2)
        base = eval_row(spec, shape_row(masses, q), masses)
        from trireduce.geometry import body_jacobi_vectors, cartesian_from_jacobi

        b1, b2 = body_jacobi_vectors(*q)
        for _ in range(10):
            Q = random_rotation(RNG)
            z = np.zeros(3)
            state = cartesian_from_jacobi(masses, Q @ b1, Q @ b2, z, z)
            V = potential_at_positions(spec, masses, state.positions)
            assert V == pytest.approx(base, rel=1e-12)


# every built-in, some with int or other parameters, a pair-only expression
# and one that reads the shape
ONE_STATE_SPECS = {
    **{name: builtin_potential(name) for name in BUILTIN_NAMES},
    "harmonic_rest": builtin_potential("harmonic", k=0.7, rest_length=1.2, rest={"d13": 0.9}),
    "harmonic_int": builtin_potential("harmonic", k=2, rest={"d23": 1}),
    "gravity_int": builtin_potential("gravity", G=3),
    "lennard_jones_wide": builtin_potential("lennard_jones", epsilon=0.8, sigma=1.1),
    "pairs": parse_potential("0.5*(d12-1)^2 + 1/d23 + d13^2.5"),
    "shape": parse_potential("sin(phi)*d12 + r1/d23 + 0.3*cos(phi)^2*r2^1.5"),
}


# built-in families and a pairwise expression with the masses they are
# pinned under, for the bits of their forces and (built-ins) of V
BIT_PIN_SPECS = {
    "gravity": (builtin_potential("gravity", G=1.3), MassTriple(1.0, 1.5, 2.0)),
    "gravity_unit": (builtin_potential("gravity"), MASSES),
    "harmonic": (builtin_potential("harmonic", k=0.7, rest_length=1.2, rest={"d13": 0.9}),
                 MassTriple(1.0, 1.5, 2.0)),
    "harmonic_rest": (builtin_potential("harmonic", k=1.0, rest_length=1.0), MASSES),
    "lennard_jones": (builtin_potential("lennard_jones", epsilon=0.8, sigma=1.1), MASSES),
    "free": (builtin_potential("free"), MASSES),
    "expr_sparse": (parse_potential("0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2"), MASSES),
}
BUILTIN_BIT_PIN_SPECS = {key: value for key, value in BIT_PIN_SPECS.items() if value[0].builtin}


class TestOneState:
    """potential_at_positions forms one (3, 3) state's pair distances on
    floats with math.sqrt and an (N, 3, 3) batch's on (N,) columns with
    np.sqrt, by the one pair map: the state has the bits of its row."""

    @staticmethod
    def _outcome(call):
        try:
            return np.asarray(call()).tobytes()
        except DomainError as exc:
            return str(exc)

    @pytest.mark.parametrize("masses", [MASSES, MassTriple(1.0, 1.5, 2.0)], ids=["equal", "unequal"])
    @pytest.mark.parametrize("spec", ONE_STATE_SPECS.values(), ids=ONE_STATE_SPECS.keys())
    def test_state_has_the_bits_of_its_row(self, spec, masses):
        rng = np.random.default_rng(3001)
        x = rng.uniform(-1.5, 1.5, size=(10, 3, 3)) * 10.0 ** rng.uniform(-3, 3, size=(10, 1, 1))
        x[1] = [[1.0, 0.0, 0.0], [2.5, 0.0, 0.0], [-1.0, 0.0, 0.0]]  # collinear
        x[2, :, 2] = -0.0
        V = potential_at_positions(spec, masses, x)
        for k, row in enumerate(x):
            assert np.asarray(potential_at_positions(spec, masses, row)).tobytes() == V[k].tobytes()
            # with the shape given, as the reduction entry points give it
            r1, r2, _, _, _, phi = measure_shape(*jacobi_map(masses, *row))
            given = potential_at_positions(spec, masses, row, (r1, r2, phi))
            assert np.asarray(given).tobytes() == V[k].tobytes()

    @pytest.mark.parametrize("pair, bodies", [("d12", (0, 1)), ("d13", (0, 2)), ("d23", (1, 2))])
    @pytest.mark.parametrize("spec", ONE_STATE_SPECS.values(), ids=ONE_STATE_SPECS.keys())
    def test_pair_at_zero_raises_as_its_row(self, spec, pair, bodies):
        # a row with two coincident bodies: the state alone raises the batch's
        # DomainError, naming the same pair for a built-in, or gives its bits
        x = np.random.default_rng(3002).uniform(-1.5, 1.5, size=(4, 3, 3))
        x[2, bodies[1]] = x[2, bodies[0]]
        batch = self._outcome(lambda: potential_at_positions(spec, MASSES, x))
        alone = self._outcome(lambda: potential_at_positions(spec, MASSES, x[2]))
        if isinstance(batch, str):
            assert alone == batch
        else:
            assert alone == np.frombuffer(batch)[2].tobytes()
        if spec.builtin in ("gravity", "lennard_jones"):
            assert alone == str(DomainError(pair, 0.0))

    @pytest.mark.parametrize("spec", ONE_STATE_SPECS.values(), ids=ONE_STATE_SPECS.keys())
    def test_evaluate_reduced_is_its_one_row_batch(self, spec):
        rng = np.random.default_rng(3003)
        masses = MassTriple(1.0, 1.5, 2.0)
        for x, v in rng.uniform(-1.5, 1.5, size=(8, 2, 3, 3)):
            H = evaluate_reduced(masses, CartesianState(*x, *v), spec).H
            batch = evaluate_reduced_batch(masses, x[None], v[None], spec)
            assert np.float64(H).tobytes() == batch.H_reduced[0].tobytes()


class TestPairTerms:
    """Each built-in family's pair energies and slopes are written once, for
    one state's floats and a batch's columns alike."""

    @pytest.mark.parametrize(
        "spec, masses", BUILTIN_BIT_PIN_SPECS.values(), ids=BUILTIN_BIT_PIN_SPECS.keys()
    )
    def test_potential_keeps_the_reference_bits(self, spec, masses):
        # byte for byte, or the same DomainError: each state alone, each
        # hard row as a row of a batch, and the batch of the bit-pin states
        rows = bit_pin_positions()
        for pos in rows + hard_positions():
            expected = outcome(reference_pair_energies, spec, masses, pos)
            assert outcome(potential_at_positions, spec, masses, pos) == expected, pos
            x = np.array([rows[0], pos, rows[1]])
            expected = outcome(reference_pair_energies, spec, masses, x)
            assert outcome(potential_at_positions, spec, masses, x) == expected, pos
        x = np.array(rows)
        expected = outcome(reference_pair_energies, spec, masses, x)
        assert outcome(potential_at_positions, spec, masses, x) == expected

    def test_hard_rows(self):
        # a singular family names its first pair at 0 and one whose term
        # overflows; where the distances overflow to inf, gravity's and
        # Lennard-Jones's terms tend to 0 and the harmonic's is not finite
        tiny = sqrt(1e-160 * 1e-160)  # the distance of 1e-160, its square being subnormal
        expected = {
            "gravity": [("d23", 0.0), ("d12", 0.0), None, None, -0.0],
            "lennard_jones": [("d23", 0.0), ("d12", 0.0), ("d12", tiny), None, 0.0],
            "harmonic": [None, None, None, None, ("d12", np.inf)],
            "free": [0.0, 0.0, 0.0, 0.0, 0.0],
        }
        for name, outcomes in expected.items():
            spec = builtin_potential(name)
            for pos, want in zip(hard_positions(), outcomes):
                for x in (pos, pos[None]):
                    try:
                        V = potential_at_positions(spec, MASSES, x)
                    except DomainError as exc:
                        assert (exc.node, exc.value) == want, (name, pos)
                    else:
                        assert not isinstance(want, tuple), (name, pos)
                        assert np.all(np.isfinite(V))
                        if want is not None:
                            assert np.asarray(V).ravel().tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_a_float_has_the_bits_of_its_row(self, name):
        # energies and slopes of three floats are those of their row in
        # three columns, for distances from 1e-3 to 1e3 and 1e-160
        rng = np.random.default_rng(3102)
        d = 10.0 ** rng.uniform(-3, 3, size=(3, 200))
        d[:, :2] = [[1.0, 1e-160], [0.5, 2.0], [2.0, 1.5]]
        spec = builtin_potential(name, **{"harmonic": {"k": 2, "rest": {"d13": 0.5}}}.get(name, {}))
        with np.errstate(all="ignore"):
            for terms in trireduce.potential._pair_terms(spec, MassTriple(1.0, 1.5, 2.0)):
                columns = np.broadcast_to(np.reshape(terms(list(d)), (3, -1)), d.shape)
                rows = [terms(row.tolist()) for row in d.T]
                assert all(type(v) is float for row in rows for v in row)
                assert np.array(rows).T.tobytes() == columns.tobytes()

    def test_gravity_with_numpy_masses_stays_on_floats(self):
        # G m_i m_k is bound as a float, with its bits: masses drawn by numpy
        # do not turn one state's pair energies into numpy scalars
        rng = np.random.default_rng(3501)
        masses = rng.uniform(0.5, 2.0, size=3)
        x = rng.uniform(-1.5, 1.5, size=9).tolist()
        spec = builtin_potential("gravity", G=0.7)
        V = potential_at_positions(spec, MassTriple(*masses), x)
        assert type(masses[0]) is np.float64 and type(V) is float
        assert V.hex() == potential_at_positions(spec, MassTriple(*masses.tolist()), x).hex()


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
        # one spec serves every masses; each call uses the masses it is given
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

    @pytest.mark.parametrize("text", ["phi * 1e300", "phi / 2.2250738585072014e-308"])
    def test_an_overflowing_shape_force_is_named(self, text):
        # bodies 1 and 2 coincide, so |s1 x s2| = 2.8e-17: dV/dphi = 1e300
        # or 4.5e307 makes _shape_forces' c11 inf and c12 -inf, and g = c11
        # s1 + c12 s2 NaN; phi is named in place of nine NaN forces
        with pytest.raises(DomainError, match="^domain error in 'phi' at value "):
            forces_cartesian(parse_potential(text), MASSES, FORCE_CONFIGS[4])

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
            # constants the tokenizer rejects
            Num(float("inf")),
            Num(float("nan")),
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

    def test_bound_field_at_zero_distance(self):
        # each d = 0 case through a field bound once: bodies 1 and 3 coincide
        pos = np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.0, 0.0]])
        x = pos.ravel().tolist()
        for name in ("gravity", "lennard_jones"):
            with pytest.raises(DomainError) as err:
                force_field(builtin_potential(name), MASSES)(x)
            assert (err.value.node, err.value.value) == ("d13", 0.0)
        for spec in (builtin_potential("free"), builtin_potential("harmonic", k=2.0, rest_length=0.0)):
            limit = forces_cartesian(spec, MASSES, pos)
            assert np.all(np.isfinite(limit))
            assert force_field(spec, MASSES)(x) == limit.ravel().tolist()
        assert force_field(builtin_potential("free"), MASSES)(x) == [0.0] * 9
        F = force_field(builtin_potential("harmonic", k=2.0, rest_length=0.0), MASSES)(x)
        assert np.allclose(F, forces_cartesian(parse_potential("d12^2 + d13^2 + d23^2"), MASSES, pos).ravel())

    @pytest.mark.parametrize("pair, bodies", [("d12", (0, 1)), ("d13", (0, 2)), ("d23", (1, 2))])
    def test_field_names_the_pair_at_zero_distance(self, pair, bodies):
        # two bodies at one point: a slope that is not 0 there raises
        # DomainError naming the pair, from the bound field and the one-shot
        # call alike; a slope of 0 gives the limit force, the other pairs'
        pos = np.array([[0.3, -0.2, 0.9], [1.1, 0.1, -0.4], [-0.6, 0.8, 0.2]])
        pos[bodies[1]] = pos[bodies[0]]
        x = pos.ravel().tolist()
        sparse = "0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2"
        for spec in [builtin_potential(name) for name in ("gravity", "lennard_jones", "harmonic")] + [
            parse_potential(sparse), parse_potential("d12 + d13 + d23 + 0*r1")
        ]:
            for call in (lambda: force_field(spec, MASSES)(x), lambda: forces_cartesian(spec, MASSES, pos)):
                with pytest.raises(DomainError) as err:
                    call()
                assert (err.value.node, err.value.value) == (pair, 0.0)
        k = 2.0
        for spec in (builtin_potential("harmonic", k=k, rest_length=0.0), parse_potential("d12^2 + d13^2 + d23^2")):
            F = force_field(spec, MASSES)(x)
            assert np.all(np.isfinite(F))
            # V = (k/2) sum d^2 pulls each body toward the others: F_i = -k sum_j (x_i - x_j)
            limit = -k * (3.0 * pos - pos.sum(axis=0))
            assert np.allclose(np.reshape(F, (3, 3)), limit, rtol=1e-14, atol=1e-14)
        assert force_field(builtin_potential("free"), MASSES)(x) == [0.0] * 9

    def test_no_divisor_is_zero(self):
        # the least d > 0 that two bodies can have is the root of the least
        # subnormal, and its square does not round to 0: gravity's slope at
        # bodies 1 and 2 3e-162 apart is finite for a small G, and inf, named
        # (see test_slope_that_overflows_is_named), not a ZeroDivisionError,
        # for G = 1
        assert sqrt(5e-324) * sqrt(5e-324) == 5e-324
        x = [0.0, 0.0, 0.0, 3e-162, 0.0, 0.0, 0.0, 1.0, 0.0]
        F = force_field(builtin_potential("gravity", G=1e-20), MASSES)(x)
        assert np.all(np.isfinite(F)) and F[0] > 1e300 and F[3] == pytest.approx(-F[0], rel=1e-15)
        with pytest.raises(DomainError, match="'d12'"):
            force_field(builtin_potential("gravity"), MASSES)(x)
        # r1^2 |s1 x s2| underflows to 0 where phi's slope divides by it; the
        # force of V = phi grows as 1/r1, so r1 = 1e-110 reads as 1e-100 does
        spec = parse_potential("phi")
        scaled = []
        for r in (1e-100, 1e-110):
            pos = np.array([[r, 0.0, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.0]])
            F = forces_cartesian(spec, MASSES, pos)
            assert np.all(np.isfinite(F))
            scaled.append(F[0] * r)
        assert np.allclose(scaled[0], scaled[1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "name, r",
        # the slope is inf (gravity's G / d^2), -inf (Lennard-Jones's s^2
        # overflows, s = (sigma/d)^6) and NaN (its s overflows too: inf - inf)
        [("gravity", 3e-162), ("lennard_jones", 1e-30), ("lennard_jones", 1e-60)],
    )
    @pytest.mark.parametrize("pair, bodies", [("d12", (0, 1)), ("d13", (0, 2)), ("d23", (1, 2))])
    def test_slope_that_overflows_is_named(self, name, r, pair, bodies):
        # two bodies r apart, the third 1 away: a slope dV/dd that is not
        # finite raises DomainError naming the pair and its distance, where
        # inf * 0 made NaN force components, and with no numpy warning (an
        # error here); a pair that is not first in PAIRS order is named too
        pos = np.zeros((3, 3))
        pos[bodies[1], 0] = r
        pos[3 - sum(bodies), 1] = 1.0
        spec = builtin_potential(name)
        for call in (lambda: force_field(spec, MASSES)(pos.ravel().tolist()),
                     lambda: forces_cartesian(spec, MASSES, pos)):
            with pytest.raises(DomainError) as err:
                call()
            assert (err.value.node, err.value.value) == (pair, sqrt(r * r))

    def test_bound_parameters_are_never_written(self):
        # forces and V under three masses leave a spec's parameters, the
        # rest lengths' own dict too, and the families' defaults as they were
        def snapshot(params):
            return {key: (type(v), repr(v)) for key, v in params.items()}

        defaults = {name: snapshot(params) for name, params in BUILTIN_PARAMS.items()}

        triples = [MassTriple(1.0, 2.0, 3.0), MassTriple(0.5, 1.0, 4.0), MASSES]
        pos = self._spread_positions()
        specs = [builtin_potential(name) for name in BUILTIN_NAMES]
        specs += [builtin_potential("gravity", G=1.3),
                  builtin_potential("harmonic", k=0.7, rest={"d13": 0.9})]
        for spec in specs:
            before = snapshot(spec.params)
            for masses in triples:
                forces_cartesian(spec, masses, pos)
                force_field(spec, masses)(pos.ravel().tolist())
                potential_at_positions(spec, masses, pos[None])
                potential_at_positions(spec, masses, pos)
            assert snapshot(spec.params) == before, spec.builtin
        assert {name: snapshot(params) for name, params in BUILTIN_PARAMS.items()} == defaults

    @pytest.mark.parametrize("spec, masses", BIT_PIN_SPECS.values(), ids=BIT_PIN_SPECS.keys())
    def test_pair_forces_keep_the_reference_bits(self, spec, masses):
        # byte for byte, so the sign of every 0 is held too: the CSV prints -0
        # and the bound field has the bits of the one-shot call
        field = force_field(spec, masses)
        for pos in bit_pin_positions():
            F = forces_cartesian(spec, masses, pos)
            assert F.tobytes() == reference_pair_forces(spec, masses, pos).tobytes(), pos
            assert np.array(field(pos.ravel().tolist())).tobytes() == F.tobytes(), pos

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


# expressions for the pin of one state's float walk: every operator and
# function, the constant exponents -1, 0, 0.5, 1, 1.5, 2 and 3, variable
# exponents (2, -1 and 0.5 at d13 = 2, where a column exponent takes numpy's
# pow and a scalar one its fast paths), pair-only and shape-reading; the last
# takes sqrt and log at and below 0 and exp past overflow
FLOAT_WALK_EXPRESSIONS = {
    "expr_sparse": "0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2",
    "functions": "exp(-d12) + log(d13)*sqrt(d23) + 1/d12^3 + d13^1.5 + sin(d23)*cos(d12)",
    "exponents": "d12^-1 + d13^0 + d23^0.5 + (d12 - d13)^1 + d13^1.5 + (d23 - 1)^2 + (d12 - 1)^3",
    "variable_exponents": "d12^d13 + d23^(d13 - 3) + (d12 + 1)^(d13 - 1.5) - -abs(d23 - d12)",
    "shape": "sin(phi)*d12 + r1/d23 + 0.3*cos(phi)^2*r2^1.5 + exp(r1 - r2)*log(r2)",
    "shape_only": "0.5*(r1-1)^2 + 0.5*(r2-1)^2 + 0.2*cos(phi)",
    "domains": "sqrt(d12 - 1) + log(d13 - 1) + exp(1000*(d23 - 1)) + sqrt(r2)",
}


def float_walk_positions():
    """Seeded states at scales 0.1 to 10; collinear states with d13 = 2
    exactly; the bit-pin states, exactly collinear ones among them (with
    pair distances of exactly 1, where sqrt(d - 1) and log(d - 1) meet 0);
    and the hard states: coincident bodies, a pair 1e-160 apart and the
    scales 1e150 and 1e155."""
    rng = np.random.default_rng(3301)
    scales = 10.0 ** rng.uniform(-1, 1, size=(150, 1, 1))
    positions = list(rng.uniform(-1.5, 1.5, size=(150, 3, 3)) * scales)
    positions += [np.array([[0.0, 0.0, 0.0], [t, 0.0, 0.0], [2.0, 0.0, 0.0]])
                  for t in rng.uniform(0.05, 1.95, size=30)]
    return positions + bit_pin_positions() + hard_positions()


class TestFloatWalk:
    """An expression's walk is compiled once and bound twice: to numpy on
    (N,) columns and to Python floats for one state (geometry.COLUMNS and
    geometry.FLOATS).  One state's forces and V walk on floats,
    with the bits of the (1,) column walk's row or its error."""

    @staticmethod
    def _result(call, *args):
        try:
            result = call(*args)
        except Exception as exc:  # the type and message of any error
            return type(exc).__name__, str(exc)
        return np.asarray(result).tobytes()

    @pytest.mark.parametrize("text", FLOAT_WALK_EXPRESSIONS.values(), ids=FLOAT_WALK_EXPRESSIONS.keys())
    def test_state_has_the_bits_of_the_column_walk(self, text):
        spec = parse_potential(text)
        masses = MassTriple(1.0, 1.5, 2.0)
        field = force_field(spec, masses)
        states = float_walk_positions()

        def results():
            return [(self._result(field, x.ravel().tolist()),
                     self._result(potential_at_positions, spec, masses, x)) for x in states]

        got = results()
        with mock.patch.object(trireduce.potential, "_run_state", state_on_columns(trireduce.potential._run)):
            expected = results()
        for x, (forces, V), want in zip(states, got, expected):
            assert (forces, V) == want, x
            if isinstance(V, bytes):
                # a float, with the bits of its row in a batch: at a column
                # exponent of exactly 2, 0.5 or -1 too (d13 = 2), where a 0-d
                # exponent would take numpy's fast path
                assert type(potential_at_positions(spec, masses, x)) is float
                assert V == potential_at_positions(spec, masses, x[None]).tobytes(), x

    @pytest.mark.parametrize(
        "text", [text for key, text in FLOAT_WALK_EXPRESSIONS.items() if key != "domains"],
        ids=[key for key in FLOAT_WALK_EXPRESSIONS if key != "domains"],
    )
    def test_plain_states_take_no_array_walk(self, text, monkeypatch):
        # inside every domain, forces and V of one state never reach numpy's walk
        spec = parse_potential(text)
        masses = MassTriple(1.0, 1.5, 2.0)
        field = force_field(spec, masses)

        def refuse(*args):
            raise AssertionError("the state took the column walk")

        monkeypatch.setattr(trireduce.potential, "_run", refuse)
        for x in np.random.default_rng(3302).uniform(-1.5, 1.5, size=(50, 3, 3)):
            field(x.ravel().tolist())
            potential_at_positions(spec, masses, x)

    def test_numpy_set_to_raise_takes_the_column_walk(self, monkeypatch):
        # under np.errstate(all="raise") exp's underflow raises
        # FloatingPointError in the float walk; the state takes the column
        # walk, as at a division by 0, and keeps its bits
        spec = parse_potential("exp(-1000*d12) + d13")
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        field = force_field(spec, MASSES)
        expected = field(x.ravel().tolist()), potential_at_positions(spec, MASSES, x)
        run, calls = trireduce.potential._run, []

        def counted(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(trireduce.potential, "_run", counted)
        with np.errstate(all="raise"):
            assert (field(x.ravel().tolist()), potential_at_positions(spec, MASSES, x)) == expected
        assert len(calls) == 2

    def test_sin_phi_overflow_is_named(self):
        # at positions near 1e150 |s1 x s2| overflows though the Jacobi
        # vectors do not: the field and V raise evaluate_reduced's error
        # there, where they took phi = pi/2, and the row names the state in
        # a batch; a potential that reads no shape variable measures nothing
        masses = MassTriple(1.0, 1.5, 2.0)
        spec = parse_potential("0.5*(r1-1)^2 + 0.2*cos(phi)")
        x = np.random.default_rng(1).uniform(-1.5, 1.5, size=(3, 3)) * 1e150
        calls = [
            (lambda: force_field(spec, masses)(x.ravel().tolist()), 0),
            (lambda: forces_cartesian(spec, masses, x), 0),
            (lambda: potential_at_positions(spec, masses, x), 0),
            (lambda: potential_at_positions(spec, masses, x.ravel().tolist()), 0),
            (lambda: potential_at_positions(spec, masses, x[None]), 0),
            (lambda: potential_at_positions(spec, masses, np.array([x / 1e150, x])), 1),
            (lambda: evaluate_reduced(masses, CartesianState(*x, *np.zeros((3, 3))), spec), 0),
        ]
        for call, row in calls:
            with pytest.raises(NumericalBlowup, match=f"^sin_phi overflow at row {row}$"):
                call()
        assert np.isfinite(potential_at_positions(parse_potential("d12 - d13"), masses, x))
        assert np.isfinite(potential_at_positions(builtin_potential("gravity"), masses, x))

    def test_jacobi_vector_overflow_is_named(self):
        # at positions +-1e308 s1 overflows: the field and V of an expression
        # that reads only r2 raise measure_shape's one error, for one state
        # and at its row in a batch
        spec = parse_potential("r2")
        x = np.array([[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [-1e308, 0.0, 0.0]])
        batch = np.array([np.eye(3), x])
        calls = [
            (lambda: forces_cartesian(spec, MASSES, x), 0),
            (lambda: potential_at_positions(spec, MASSES, x), 0),
            (lambda: potential_at_positions(spec, MASSES, batch), 1),
        ]
        with np.errstate(over="ignore"):  # the columns overflow in jacobi_map first
            rows = jacobi_map(MASSES, *np.moveaxis(batch, -2, 0))
        calls += [
            (lambda: measure_shape(*jacobi_map(MASSES, *x.tolist())), 0),
            (lambda: measure_shape(*rows), 1),
        ]
        for call, row in calls:
            with np.errstate(all="ignore"):  # the columns warn in measure_shape first
                with pytest.raises(NumericalBlowup, match=f"^Jacobi vector overflow at row {row}$"):
                    call()

    @pytest.mark.parametrize(
        "text, values",
        [
            ("sin(1e308*d12)", {"d12": 2.0}),
            ("cos(1e308*d12)", {"d12": 2.0}),
            ("exp(d12)", {"d12": 709.9}),
            ("d12^d13", {"d12": 2.0, "d13": 1030.0}),
        ],
        ids=["sin-of-inf", "cos-of-inf", "exp-overflow", "power-overflow"],
    )
    def test_float_domain_edge_takes_the_column_walk(self, text, values):
        # each float guard at its edge: sin and cos of an argument that
        # overflows to inf, exp(709.9) past the float range and 2^1030, with
        # |b ln a| = 713.9; numpy would warn on the float, which tier-1 turns
        # into an error, so the state takes the (1,) column walk's outcome
        spec = parse_potential(text)
        on_columns = state_on_columns(trireduce.potential._run)
        for gradient in (False, True):
            expected = outcome(on_columns, spec, values, gradient)
            assert outcome(trireduce.potential._run_state, spec, values, gradient) == expected

    @pytest.mark.parametrize("text", ["1/(d12*d12)^2 + d13", "exp(-(d12*d12)^2) + d13"],
                             ids=["divisor", "exp-argument"])
    def test_float_probe_names_an_overflow_that_V_hides(self, text):
        # at d12 = 1e100 the square of d12*d12 = 1e200 overflows by the fast
        # path a*a, under a divisor or an exp, so V is finite; one state's
        # float probe is not, and the state names the '^' as its row does
        spec = parse_potential(text)
        pos = np.array([[0.0, 0.0, 0.0], [1e100, 0.0, 0.0], [0.0, 1.0, 0.0]])
        calls = [
            lambda: potential_at_positions(spec, MASSES, pos),
            lambda: forces_cartesian(spec, MASSES, pos),
            lambda: potential_at_positions(spec, MASSES, pos[None]),
        ]
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert (err.value.node, err.value.value) == ("^", (1e200, 2.0))

    @pytest.mark.parametrize(
        "text, values, errors",
        [
            ("log(d12) + d13", {"d12": 1e-320, "d13": 1.0}, [None, ("log", "1e-320")]),
            ("1e308*sin(d12) + 1e308*sin(d12)", {"d12": 0.1}, [None, ("d12", "0.1")]),
            ("1/(d12*d12)^2 + d13", {"d12": 1e100, "d13": 1.0}, [("^", "(1e+200, 2.0)")] * 2),
            ("exp(-(d12*d12)^2) + d13", {"d12": 1e100, "d13": 1.0}, [("^", "(1e+200, 2.0)")] * 2),
        ],
        ids=["log-derivative", "derivative-sum", "divisor", "exp-argument"],
    )
    def test_state_error_is_named_on_its_floats(self, text, values, errors, monkeypatch):
        # log's adjoint 1/1e-320 overflows, two finite terms of d12's
        # derivative overflow in their sum, and a square overflows under a
        # divisor or an exp: the float walk names each from its own values,
        # as the (1,) column walk does, and never takes the columns
        spec = parse_potential(text)
        on_columns = state_on_columns(trireduce.potential._run)
        expected = [outcome(on_columns, spec, values, gradient) for gradient in (False, True)]

        def refuse(*args):
            raise AssertionError("the state took the column walk")

        monkeypatch.setattr(trireduce.potential, "_run", refuse)
        got = [outcome(trireduce.potential._run_state, spec, values, gradient) for gradient in (False, True)]
        assert got == expected
        for result, error in zip(got, errors):
            assert result == error if error else isinstance(result, list)

    def test_one_source_two_bindings(self):
        # the bindings have the same names, and the walk calls only those,
        # its hook, locals and its constants, so a name that one binding
        # lacks fails here, not at the first state that reaches it
        assert vars(FLOATS).keys() == vars(COLUMNS).keys()
        names = vars(COLUMNS).keys() | {"finite", "name_error", "locals"}
        for text in [*GOLDEN_EXPRESSIONS, *FLOAT_WALK_EXPRESSIONS.values()]:
            spec = parse_potential(text)
            called = set(spec.walk.__code__.co_names)
            constants = {name for name in called if re.fullmatch(r"k\d+(m1)?", name)}
            assert called - constants <= names, text
            assert all(np.ndim(spec.walk.__globals__[name]) == 0 for name in constants), text
        spec = parse_potential("d12^d13 + 0.5*(d23 - 1)^2 + sin(r1)")
        assert spec.float_walk.__code__ is spec.walk.__code__
        assert {"power", "power_rows"} <= set(spec.walk.__code__.co_names)
        assert type(spec.float_walk.__globals__["k0"]) is float
        value, derivatives = spec.float_walk({"r1": 0.5, "d12": 1.5, "d13": 2.0, "d23": 3.0}, (), True)
        assert type(value) is float and all(type(g) is float for g in derivatives)


class TestGeneratedWalk:
    @settings(max_examples=200, deadline=None)
    @given(EXPRESSIONS)
    def test_walk_keeps_the_reference_bits(self, ast):
        assert_reference_bits(PotentialSpec(ast=ast))

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308])
    def test_constants_keep_the_reference_bits(self, value):
        # a constant is held as a 0-d array, never written into the source;
        # one that is not finite is rejected (test_tree_the_parser_cannot_make_is_rejected)
        c = Num(value)
        trees = [
            c, Neg(c), Bin("*", c, Var("r1")), Bin("+", Var("d12"), c), Bin("-", c, Var("d13")),
            Bin("/", Var("d23"), c), Bin("/", c, Var("r2")), Bin("^", Var("d12"), c),
            Bin("^", c, Var("phi")), Call("exp", Bin("*", c, Var("d13"))), Call("log", Bin("+", c, c)),
        ]
        for ast in trees:
            assert_reference_bits(PotentialSpec(ast=ast))

    @pytest.mark.parametrize("text", ["d12 ^ 2.5", "(d12 - 0.5) ^ 3", "2 ^ d13 + d23 ^ 1e308"])
    def test_constant_exponent_is_folded_once(self, text):
        # the '^' adjoint reads b - 1.0 of a constant exponent b from a name
        # bound when the walk is built, the np.float64 that the walk used to
        # compute on each pullback, so '**' keeps its numpy path
        spec = parse_potential(text)
        names = spec.walk.__globals__
        folded = [name for name in spec.walk.__code__.co_names if name.endswith("m1")]
        assert len(folded) == 1
        b = names[folded[0].removesuffix("m1")]
        assert type(names[folded[0]]) is np.float64 and type(b - 1.0) is np.float64
        assert names[folded[0]].tobytes() == (b - 1.0).tobytes()
        assert_reference_bits(spec)

    @pytest.mark.parametrize(
        "text, row, node, value",
        [
            ("1/(1/(d12-1))", {"d12": 1.0}, "/", 0.0),
            ("exp(-exp(1000*d12))", {}, "exp", 1000.0),
            ("2^(log(d12-1))", {"d12": 1.0}, "log", 0.0),
            ("log(d12-1)^(d13-d13)", {"d12": 1.0}, "log", 0.0),
            ("log(d12-1)^-2", {"d12": 1.0}, "log", 0.0),
            ("(1/(d12-1))^0", {"d12": 1.0}, "/", 0.0),
            ("exp(-1/(d12-d12))", {}, "/", 0.0),
        ],
        ids=["divisor", "exp-argument", "exponent", "base-variable-exponent",
             "base-negative-exponent", "base-zero-exponent", "constant-divisor"],
    )
    def test_probe_names_an_error_that_V_hides(self, text, row, node, value):
        # an operation outside V's reach that leaves its domain while V
        # stays finite (by the reference compiler with its checks taken
        # out): the walk's probe names it
        spec = parse_potential(text)
        columns = dict(zip(VARIABLES, ctx_with(**row)))
        with np.errstate(all="ignore"), mock.patch.dict(REFERENCE_DOMAIN, clear=True):
            hidden, _ = reference_compile(spec.ast, set())(columns, (1,))
        assert np.isfinite(hidden).all()
        with pytest.raises(DomainError) as err:
            trireduce.potential._run(spec, columns, (1,), False)
        assert (err.value.node, err.value.value) == (node, value)
        assert_reference_bits(spec)

    def test_overflowing_probe_raises_nothing(self, monkeypatch):
        # 3 * exp(709) overflows in the probe's sum, no operation leaves its
        # domain and V is finite: the walk's hook finds nothing to name
        hook, calls = trireduce.potential._name_error, []

        def counted(*args):
            calls.append(args)
            return hook(*args)

        monkeypatch.setattr(trireduce.potential, "_name_error", counted)
        spec = parse_potential("1/exp(709) + 1/exp(709) + 1/exp(709) + d12")
        columns = dict(zip(VARIABLES, ctx_with()))
        value, gradient = trireduce.potential._run(spec, columns, (1,), True)
        assert len(calls) == 1
        assert np.isfinite(value).all() and gradient[3].tolist() == [1.0]
        assert_reference_bits(spec)

    def test_walk_does_only_the_arithmetic(self):
        # the walk tests nothing per operation and seeds no array of ones:
        # it tests its probe and its derivatives with finite, and names an
        # error by its hook
        spec = parse_potential("0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2")
        names = set(spec.walk.__code__.co_names)
        assert names.isdisjoint({"check_value", "check_adjoint", "all_finite", "ones"})
        assert {"finite", "name_error"} <= names
        assert_reference_bits(spec)

    def test_compiled_once(self, monkeypatch):
        # a spec compiles its walk when it is built and never after, also
        # where a derivative is not finite or an operation leaves its domain
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
        assert len(built) == 1
        spec = parse_potential("sqrt(d12 - 1) + 1/(1/(d13 - 2))")
        row = [np.array([3.0])] * 3 + [np.array([1.5]), np.array([2.0]), np.array([3.0])]
        assert len(built) == 2
        for _ in range(3):
            with pytest.raises(DomainError) as err:
                eval_potential_batch(spec, MASSES, *row)
            assert (err.value.node, err.value.value) == ("/", 0.0)
        assert len(built) == 2
        pos[1, 0] = 0.5  # d12 = 0.5: sqrt leaves its domain
        for _ in range(3):
            with pytest.raises(DomainError) as err:
                forces_cartesian(spec, MASSES, pos)
            assert (err.value.node, err.value.value) == ("sqrt", -0.5)
        assert len(built) == 2

    def test_dead_spec_is_freed_by_reference_counting(self):
        # each walk is bound out of its namespace, so no cycle holds it: a
        # spec that is no longer referenced frees both walks at once
        gc.disable()
        try:
            spec = parse_potential("sqrt(d12 - 1) + 0.5*(d13 - 1)^2 + r1*cos(phi)")
            walks = [weakref.ref(spec.walk), weakref.ref(spec.float_walk)]
            del spec
            assert [walk() for walk in walks] == [None, None]
        finally:
            gc.enable()

    def test_building_a_spec_leaves_no_cycle(self):
        # the compiler's recursive helpers are deleted once the source is
        # built, so a spec built and dropped leaves nothing to the collector
        gc.collect()
        gc.disable()
        try:
            for text in (
                "0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2",
                "sqrt(d12 - 1) + 0.5*(d13 - 1)^2 + r1*cos(phi)",
                "exp(-r1)*sin(phi)^2/r2 + log(d23) - 2^phi",
            ):
                for _ in range(10):
                    parse_potential(text)
            assert gc.collect() == 0
        finally:
            gc.enable()
