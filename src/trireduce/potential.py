"""Rotation- and translation-invariant potentials.

Built-in pairwise families (gravity, harmonic, Lennard-Jones, free) plus a
small expression language over the shape variables r1, r2, phi and the
interparticle distances d12, d13, d23, invariant by construction.  Each
family's pair energies and slopes are written once, for one state's floats
and a batch's columns; an expression is compiled, once, to one generated
straight-line function that returns its value and its reverse-mode pullback,
bound to geometry's COLUMNS for a batch and FLOATS for one state, which
keeps the bits of its row (see geometry.arithmetic).  Forces are exact
gradients for both.  One pair map gives V and the forces their distances;
an expression's slopes by r1, r2 and phi reach the bodies as float sums
over the Jacobi map's coefficients.
"""

from dataclasses import dataclass, field, fields
from functools import partial
from math import isfinite, isnan, nextafter, sqrt
from numbers import Real
from sys import float_info

import numpy as np

from .errors import DomainError, PotentialSyntaxError, UnknownIdentifier
from .geometry import (
    COLUMNS,
    FLOATS,
    MassTriple,
    check_number,
    jacobi_map,
    measure_shape,
)

VARIABLES = ("r1", "r2", "phi", "d12", "d13", "d23")
CONSTANTS = {"pi": np.pi, "e": np.e}
FUNCTIONS = ("sin", "cos", "sqrt", "exp", "log", "abs")

# pair index -> particle indices (0-based) of the distance variables
PAIRS = {"d12": (0, 1), "d13": (0, 2), "d23": (1, 2)}


# --------------------------------------------------------------------------
# AST


class _Node:
    """A tree node whose == and dataclass repr take no frame per level."""

    def _preorder(self):
        """The nodes in pre-order, each as its type and fields, _Node for a child."""
        nodes, stack = [], [self]
        while stack:
            node = stack.pop()
            values = [getattr(node, f.name) for f in fields(node)]
            nodes.append((type(node), *(_Node if isinstance(v, _Node) else v for v in values)))
            stack += [v for v in reversed(values) if isinstance(v, _Node)]
        return nodes

    def __eq__(self, other):
        return isinstance(other, _Node) and self._preorder() == other._preorder()

    def __repr__(self):
        done = []  # in reverse pre-order, a node's children are done, its first on top
        for kind, *values in reversed(self._preorder()):
            items = [f"{f.name}={done.pop() if v is _Node else repr(v)}"
                     for f, v in zip(fields(kind), values)]
            done.append(f"{kind.__qualname__}({', '.join(items)})")
        return done[0]


@dataclass(frozen=True, repr=False, eq=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, repr=False, eq=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, repr=False, eq=False)
class Neg(_Node):
    arg: object


@dataclass(frozen=True, repr=False, eq=False)
class Bin(_Node):
    op: str
    left: object
    right: object


@dataclass(frozen=True, repr=False, eq=False)
class Call(_Node):
    fn: str
    arg: object


def _tokenize(text):
    """Split an expression string into (kind, value, position) tokens,
    ending with an "end" token; positions are 1-based character offsets
    into the input."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^(),":
            tokens.append((ch, ch, i + 1))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
                check_number("literal", value)  # 1e999 reads as inf
            except ValueError:
                raise PotentialSyntaxError(i + 1, "number")
            tokens.append(("num", value, i + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i + 1))
            i = j
        else:
            raise PotentialSyntaxError(i + 1, "token")
    tokens.append(("end", None, n + 1))
    return tokens


# The deepest input and the deepest tree that the parser takes.  Each level
# of nesting (parentheses, a call, unary minus or an exponent) costs the
# parser up to five frames and each operation on a path from the root costs
# _emit one, against Python's default limit of 1000 frames.
MAX_NESTING = 160
MAX_DEPTH = 500


class _Parser:
    """Recursive-descent parser; precedence ^ > unary - > * / > + -,
    with ^ right-associative.  Each rule returns its node with its depth,
    the number of operations on its longest path to a leaf."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PotentialSyntaxError(tok[2], kind)
        return tok

    def apply(self, pos, make, *operands):
        """make(*nodes) of the (node, depth) operands, with its depth;
        raises PotentialSyntaxError at pos past MAX_DEPTH."""
        depth = 1 + max(depth for _, depth in operands)
        if depth > MAX_DEPTH:
            raise PotentialSyntaxError(pos, f"at most {MAX_DEPTH} operations deep")
        return make(*(node for node, _ in operands)), depth

    def parse(self):
        node, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PotentialSyntaxError(tok[2], "end of input")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            node = self.apply(pos, partial(Bin, op), node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            node = self.apply(pos, partial(Bin, op), node, self.unary())
        return node

    def unary(self):
        # every recursion of the parser passes here
        kind, _, pos = self.peek()
        if self.nesting == MAX_NESTING:
            raise PotentialSyntaxError(pos, f"at most {MAX_NESTING} levels of nesting")
        self.nesting += 1
        if kind == "-":
            self.advance()
            node = self.apply(pos, Neg, self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            pos = self.advance()[2]
            return self.apply(pos, partial(Bin, "^"), base, self.unary())
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value), 0
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(value, pos)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return self.apply(pos, partial(Call, value), arg)
            if value in VARIABLES:
                return Var(value), 0
            if value in CONSTANTS:
                return Num(CONSTANTS[value]), 0
            raise UnknownIdentifier(value, pos)
        raise PotentialSyntaxError(pos, "number, identifier or '('")


def parse_expression(text):
    """Parse an expression string to its AST."""
    return _Parser(text).parse()


def _constant(node):
    """Whether node is a constant that the emitter takes: a Num of a real
    within the float range, so not inf, nan or a huge int."""
    return (isinstance(node, Num) and isinstance(node.value, Real)
            and abs(node.value) <= float_info.max)


# Where an operation leaves its domain, given its operands; such a row also
# has a non-finite value.  Finite operands of '^' with a non-finite value are
# a negative base to a non-integer power, 0 to a negative power or overflow.
_DOMAIN = {
    "/": lambda a, b: b == 0.0,
    "^": lambda a, b: np.isfinite(a) & np.isfinite(b),
    "sin": np.isinf,
    "cos": np.isinf,
    "sqrt": lambda x: x < 0.0,
    "exp": np.isfinite,
    "log": lambda x: x <= 0.0,
}


def _check(name, shape, bad, args):
    """Raise DomainError(name, value) at the first row of the mask `bad`, if
    any, with the argument of a function, the divisor of '/' or the pair
    (base, exponent) of '^' at that row as the value."""
    bad = np.broadcast_to(bad, shape)
    if bad.any():
        row = [float(np.broadcast_to(a, shape).flat[bad.argmax()]) for a in args]
        raise DomainError(name, tuple(row) if name == "^" else row[-1])


def _name_error(checks, back_checks, constants, shape, local):
    """The walk's hook (see _emit), called with its own values `local`
    where its probe, or after its pullback the sum of its derivatives, is
    not finite: _check each (name, domain, value, args) of `checks`, then,
    once the walk holds its derivatives, of `back_checks`, each name looked
    up in `local` or `constants`.  A row is bad where `value` is not finite
    and, unless `domain` is None, the operation left its domain there.
    Where only a sum overflowed, it raises nothing."""
    values = {**constants, **local}
    for name, domain, value, args in checks + back_checks if "derivatives" in local else checks:
        args = [values[arg] for arg in args]
        bad = ~np.isfinite(values[value])
        _check(name, shape, bad if domain is None else domain(*args) & bad, args)


# The adjoint of each operand of an operation, as source over the adjoint g
# of its value v and its operands a and b, and b_less_1 for b - 1.0: one per
# operand, (left, right) for a binary operator.
_ADJOINTS = {
    "+": ("{g}", "{g}"),
    "-": ("{g}", "-{g}"),
    "*": ("{g} * {b}", "{g} * {a}"),
    "/": ("{g} / {b}", "-{g} * {v} / {b}"),
    "^": ("{g} * {b} * {power}", "{g} * {v} * log({a})"),
    "neg": ("-{g}",),
    "sin": ("{g} * cos({a})",),
    "cos": ("-{g} * sin({a})",),
    "sqrt": ("0.5 * {g} / {v}",),
    "exp": ("{g} * {v}",),
    "log": ("{g} / {a}",),
    "abs": ("{g} * sign({a})",),
}


def _check_tree(ast):
    """Raise ValueError where an operation node occurs twice in the tree,
    which the parser never makes and _emit would walk once per path to it
    (2^n paths through n nested shared sums), or where the tree is more
    than MAX_DEPTH operations deep, counted as _Parser.apply counts them (a
    leaf counts 0).  One level at a time, so that no depth costs a frame,
    and each operation node is visited once before the first repeat."""
    level, depth, seen = [ast], 0, set()
    while level:
        operands = []
        for node in level:
            if isinstance(node, (Neg, Call, Bin)):
                if id(node) in seen:
                    raise ValueError("tree shares a subtree")
                seen.add(id(node))
                operands += [node.left, node.right] if isinstance(node, Bin) else [node.arg]
        depth += bool(operands)
        if depth > MAX_DEPTH:
            raise ValueError(f"tree deeper than {MAX_DEPTH} operations")
        level = operands


def _emit(ast):
    """Compile a tree to its walk, one generated straight-line function,
    and return it bound twice, to geometry.COLUMNS and to geometry.FLOATS,
    each with its constants, and the variables the tree reads.  Raises
    ValueError on a tree that shares an operation node or is deeper than
    MAX_DEPTH (see _check_tree), or on a node that the parser does not
    make, before any source is built: the source holds only its own names,
    the tables' strings and a name for each constant, bound to it as a
    read-only 0-d array, or a float.

    walk(columns, shape, gradient) takes each variable's (N,) column and
    returns (V, derivatives) on the rows, one numpy call per operation in
    post-order (+ - * / and negation written as operators); the float walk
    takes one state's floats, with shape (), and returns floats.  A
    constant subtree is evaluated on each walk, never folded, so 1/0 is
    still seen; only the b - 1.0 of the '^' adjoint at a constant exponent
    b is bound once, as the np.float64 that the 0-d b gives.  '^' calls
    power_rows where its exponent reads a variable, a column on arrays.
    With `gradient` set, the derivatives are those by VARIABLES, a (6, N)
    array or a list of six floats, else None: the pullback takes each
    operand's adjoint by _ADJOINTS in pre-order, from 1.0 at the root, and
    sums each variable's terms in the order it meets them.  It writes no
    factor 1.0 * and no power a ^ 1.0, which are exact.

    The walk tests two sums once each, with its binding's finite: after the
    forward pass the probe, V plus the value of every operation in _DOMAIN,
    and after the pullback the variables' derivatives.  Where one is not
    finite it calls its hook, _name_error bound once to its checks, on its
    own values: each operation in _DOMAIN in post-order (see _check), V
    under the name "expression" and, after the pullback, each adjoint that
    reads a variable in pre-order, then each variable in the order of
    VARIABLES, where its derivative is not finite.  Where a probe is
    finite, so is each of those values, so none left its domain.  Run the
    array walk under np.errstate, since the checks are masks.
    """
    _check_tree(ast)
    lines, back, constants, read, grads, checks, back_checks = [], [], {}, {}, {}, [], []

    def forward(node):
        """Append the lines of node's value.  Return its name and, if it
        reads a variable, its pull: (op, name, operands as (name, pull)),
        or a variable's row of the gradient."""
        if _constant(node):
            name = f"k{len(constants)}"
            constants[name] = np.array(node.value, dtype=float)
            constants[name].flags.writeable = False
            return name, None
        if isinstance(node, Var) and type(node.name) is str and node.name in VARIABLES:
            row = VARIABLES.index(node.name)
            if row not in read:
                read[row] = f"t{len(lines)}"
                lines.append(f"{read[row]} = columns[{VARIABLES[row]!r}]")
            return read[row], row
        if isinstance(node, Neg):
            op, operands = "neg", [node.arg]
        elif isinstance(node, Call) and type(node.fn) is str and node.fn in FUNCTIONS:
            op, operands = node.fn, [node.arg]
        elif isinstance(node, Bin) and type(node.op) is str and node.op in ("+", "-", "*", "/", "^"):
            op, operands = node.op, [node.left, node.right]
        else:
            raise ValueError(f"not an expression node: {node!r}")
        # map, not a comprehension, so that each level of the tree costs one frame
        operands = list(map(forward, operands))
        names = [name for name, _ in operands]
        args = ", ".join(names)
        if op == "neg":
            text = f"-{args}"
        elif op in ("+", "-", "*", "/"):
            text = f" {op} ".join(names)
        elif op == "^":
            text = f"{'power' if operands[1][1] is None else 'power_rows'}({args})"
        else:
            text = f"{op}({args})"
        name = f"t{len(lines)}"
        lines.append(f"{name} = {text}")
        if op in _DOMAIN:
            checks.append((op, _DOMAIN[op], name, names))
        return name, None if all(pull is None for _, pull in operands) else (op, name, operands)

    def pullback(pull, g):
        """Append the lines that pass the adjoint named g down the pull.  An
        adjoint that is g itself or a name, and a variable's first term, are
        passed on by name."""
        if isinstance(pull, int):
            if pull in grads:
                back.append(f"g{len(back)} = {grads[pull]} + {g}")
                g = f"g{len(back) - 1}"
            grads[pull] = g
            return
        op, v, operands = pull
        names = [name for name, _ in operands]
        a, b = names[0], names[-1]
        # a ** (b - 1.0), a column exponent's by power_rows
        power = f"{'power' if operands[-1][1] is None else 'power_rows'}({a}, ({b} - 1.0))"
        if op == "^" and b in constants:
            constants[f"{b}m1"] = constants[b] - 1.0
            power = a if constants[f"{b}m1"] == 1.0 else f"power({a}, {b}m1)"
        for adjoint, (_, operand) in zip(_ADJOINTS[op], operands):
            if operand is not None:
                g_operand = adjoint.format(g=g, v=v, a=a, b=b, power=power)
                if g == "1.0":
                    g_operand = g_operand.removeprefix("1.0 * ")
                if g_operand != g and not g_operand.isidentifier():
                    back.append(f"g{len(back)} = {g_operand}")
                    g_operand = f"g{len(back) - 1}"
                if g_operand != "1.0":
                    back_checks.append((op, None, g_operand, names))
                pullback(operand, g_operand)

    value, pull = forward(ast)
    probe = [value, *(name for _, _, name, _ in checks)]
    lines.append(f"if not finite({' + '.join(probe)}): name_error(shape, locals())")
    checks.append(("expression", None, value, [value]))
    if pull is not None:
        pullback(pull, "1.0")
    back.append("derivatives = zeros((6, *shape))")
    back += [f"derivatives[{row}] = {grad}" for row, grad in grads.items()]
    back_checks += [(VARIABLES[row], None, grads[row], [read[row]]) for row in sorted(grads)
                    if grads[row] != "1.0"]
    if back_checks:
        back.append(f"if not finite({' + '.join(grads.values())}): name_error(shape, locals())")
    source = "\n    ".join(
        ["def walk(columns, shape, gradient):", *lines, "if not gradient:",
         f"    return {value}, None", *back, f"return {value}, derivatives"]
    )
    del forward, pullback  # each holds itself through its cell, a cycle per spec
    code = compile(source, "<expression>", "exec")
    name_error = partial(_name_error, checks, back_checks, constants)
    walks = []
    for binding in ({**vars(COLUMNS), **constants},
                    {**vars(FLOATS), **{name: float(c) for name, c in constants.items()}}):
        namespace = {**binding, "name_error": name_error}
        exec(code, namespace)
        # bound out of its namespace, so that no cycle keeps a dead spec's walk
        walks.append(namespace.pop("walk"))
    return *walks, frozenset(VARIABLES[row] for row in read)


def _run(spec, columns, shape, gradient):
    """V of an expression on the rows, as an array or (for a constant) a
    0-d array or np.float64, and, if `gradient` is set, its derivatives by
    VARIABLES as a (6, N) array, 0 for a variable it does not read.

    Raises DomainError under the name "phi" at r1 = 0 or r2 = 0 if the
    expression reads phi, which is undefined there; where an operation
    leaves its domain, under the name "expression" where V is not finite,
    and where a derivative is not finite, naming the operation that first
    passes one down, or else the variable whose derivative overflows in
    the sum of its terms: the walk (see _emit) names them itself, from its
    own values, under np.errstate.
    """
    if "phi" in spec.reads:
        undefined = np.broadcast_to((columns["r1"] == 0.0) | (columns["r2"] == 0.0), shape)
        if undefined.any():
            raise DomainError("phi", float(np.broadcast_to(columns["phi"], shape)[undefined][0]))
    with np.errstate(all="ignore"):
        return spec.walk(columns, shape, gradient)


def _run_state(spec, values, gradient):
    """_run of one state, each variable the expression reads given in
    `values` as a float: V as a float and, if `gradient` is set, its
    derivatives by VARIABLES as a list of six floats, with the bits of the
    state's row on (1,) columns, or its DomainError, which the float walk
    names from its own values as the row would.  Only where phi is
    undefined, or where the float walk raises ArithmeticError (a division
    by 0) or ValueError (see geometry.FLOATS), does _run take the state on
    (1,) columns."""
    try:
        if "phi" not in spec.reads or (values["r1"] != 0.0 and values["r2"] != 0.0):
            return spec.float_walk(values, (), gradient)
    except (ArithmeticError, ValueError):
        pass
    value, derivatives = _run(spec, {n: np.array([v]) for n, v in values.items()}, (1,), gradient)
    return float(np.ravel(value)[0]), derivatives[:, 0].tolist() if gradient else None


# --------------------------------------------------------------------------
# Potential specifications

# parameters each built-in family reads, with their defaults; "rest" maps
# pairs to rest lengths, rest_length for a pair it leaves out
BUILTIN_PARAMS = {
    "free": {},
    "gravity": {"G": 1.0},
    "harmonic": {"k": 1.0, "rest_length": 1.0, "rest": {}},
    "lennard_jones": {"epsilon": 1.0, "sigma": 1.0},
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMS)


@dataclass(frozen=True)
class PotentialSpec:
    """Either a built-in pairwise family (name + parameters) or a parsed
    expression over shape variables.  An expression is compiled once, when
    the spec is built; nothing else is compiled or cached on the spec."""

    builtin: str = None
    params: dict = field(default_factory=dict)
    ast: object = None
    source: str = None
    # an expression's compiled walk on arrays and on one state's floats (see
    # _emit), and the variables it reads
    walk: object = field(default=None, init=False, repr=False, compare=False)
    float_walk: object = field(default=None, init=False, repr=False, compare=False)
    reads: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.builtin is None) == (self.ast is None):
            raise ValueError("exactly one of builtin/ast must be set")
        if self.ast is not None:
            for name, value in zip(("walk", "float_walk", "reads"), _emit(self.ast)):
                object.__setattr__(self, name, value)
        if self.builtin is not None and self.builtin not in BUILTIN_NAMES:
            raise ValueError(f"unknown builtin potential '{self.builtin}'")
        reads = BUILTIN_PARAMS.get(self.builtin, {})
        for key, value in self.params.items():
            if key not in reads:
                raise ValueError(f"params.{key}: {self.builtin} reads {list(reads) or 'none'}")
            if key != "rest":
                check_number(f"params.{key}", value)
            elif not isinstance(value, dict) or not set(value) <= set(PAIRS):
                raise ValueError(f"params.rest: expected an object with keys among {tuple(PAIRS)}")
            else:
                for pair, length in value.items():
                    check_number(f"params.rest.{pair}", length)


def builtin_potential(name, /, **params) -> PotentialSpec:
    return PotentialSpec(builtin=name, params=params)


def parse_potential(text) -> PotentialSpec:
    """Parse an expression potential; raises PotentialSyntaxError or
    UnknownIdentifier on bad input."""
    return PotentialSpec(ast=parse_expression(text), source=text)


def _pair_terms(spec: PotentialSpec, masses: MassTriple):
    """A built-in family's (energies, slopes) with its parameters and the
    masses bound: the three pair energies and their dV/dd at distances d =
    (d12, d13, d23), three floats or three (N,) columns, as three of the
    same kind (free's 0.0 broadcasts).  Only + - * / and np.power, so a
    float has the bits of its row in a column (Python's ** rounds otherwise
    on some bases).  Gravity and Lennard-Jones divide by d, so a float
    raises ZeroDivisionError at d = 0; a d > 0 of _pair_vectors is at least
    2.2e-162, the root of the least subnormal, and its square is > 0."""
    p = {**BUILTIN_PARAMS[spec.builtin], **spec.params}
    if spec.builtin == "free":
        return (lambda d: [0.0, 0.0, 0.0],) * 2
    if spec.builtin == "harmonic":
        k = float(p["k"])
        l12, l13, l23 = (float(p["rest"].get(n, p["rest_length"])) for n in PAIRS)

        def energies(d):
            d12, d13, d23 = d
            return [0.5 * k * ((d12 - l12) * (d12 - l12)), 0.5 * k * ((d13 - l13) * (d13 - l13)),
                    0.5 * k * ((d23 - l23) * (d23 - l23))]

        def slopes(d):
            d12, d13, d23 = d
            return [k * (d12 - l12), k * (d13 - l13), k * (d23 - l23)]

        return energies, slopes
    if spec.builtin == "gravity":
        # floats, with the bits of the products: a MassTriple of np.float64
        # would turn one state's floats into numpy scalars
        G, m1, m2, m3 = p["G"], masses.m1, masses.m2, masses.m3
        g12, g13, g23 = float(G * m1 * m2), float(G * m1 * m3), float(G * m2 * m3)

        def energies(d):
            d12, d13, d23 = d
            return [-g12 / d12, -g13 / d13, -g23 / d23]

        def slopes(d):
            d12, d13, d23 = d
            return [g12 / (d12 * d12), g13 / (d13 * d13), g23 / (d23 * d23)]

        return energies, slopes
    sigma, scale = float(p["sigma"]), 4.0 * p["epsilon"]  # lennard_jones

    def sixth_powers(d):
        with np.errstate(over="ignore"):  # an inf is named where V or its slope is taken
            s6 = np.power([sigma / r for r in d], 6)
        return s6.tolist() if s6.ndim == 1 else s6

    return (lambda d: [scale * (s * s - s) for s in sixth_powers(d)],
            lambda d: [scale * (-12.0 * s * s + 6.0 * s) / r for s, r in zip(sixth_powers(d), d)])


def eval_potential_batch(
    spec: PotentialSpec, masses: MassTriple, r1, r2, phi, d12, d13, d23
) -> np.ndarray:
    """Potential energy at N shapes, each variable given as an (N,) array,
    or at one shape given as numbers, which are taken as 0-d arrays.

    Built-in families and expressions are both evaluated on the arrays.  An
    expression raises DomainError where an operation leaves its domain
    (sqrt or log of a number below or at 0, exp overflow, sin or cos of an
    infinity, division by 0, a negative base to a non-integer power, 0 to a
    negative power, power overflow) and, under the name "expression",
    where its value is not finite.  An expression that reads phi raises it
    under the name "phi" at r1 = 0 or r2 = 0, where phi is undefined.  A
    built-in family raises it at the first row with a pair term that is not
    finite, naming its first such pair, as gravity and Lennard-Jones do at a
    distance of 0.  A variable the potential does not read may be None.
    """
    values = (r1, r2, phi, d12, d13, d23)
    columns = {n: np.asarray(a, dtype=float) for n, a in zip(VARIABLES, values) if a is not None}
    shape = np.broadcast(*columns.values()).shape
    if spec.ast is not None:
        value, _ = _run(spec, columns, shape, gradient=False)
    else:
        d = [columns[n] for n in PAIRS]
        with np.errstate(all="ignore"):
            e12, e13, e23 = terms = _pair_terms(spec, masses)[0](d)
            value = (e12 + e13) + e23
        if not COLUMNS.finite(value):
            rows = np.reshape(np.broadcast_arrays(*terms, *d), (6, -1))
            bad = ~np.isfinite(rows[:3].T)
            if bad.any():
                row, pair = divmod(bad.argmax(), 3)
                raise DomainError(tuple(PAIRS)[pair], float(rows[3 + pair, row]))
    return np.array(np.broadcast_to(value, shape))


def potential_at_positions(spec: PotentialSpec, masses: MassTriple, x, shape=None):
    """Potential energy of one configuration, given as its nine position
    floats body-major (as force_field's field takes them) or as a (3, 3)
    array with one row per body, as a number; or of N, given as an
    (N, 3, 3) array, as an (N,) array.  The one route from positions to V:
    its pair distances are the force field's (_pair_vectors), of one
    state's nine floats with math.sqrt or of a batch's nine (N,) columns
    with np.sqrt.  A built-in family sums one state's pair energies as
    floats, or takes its row where a d is 0 or V is not finite; an
    expression walks one state's floats (_run_state), as a float.  A
    potential that reads r1, r2 or phi takes them from `shape`, the (r1,
    r2, phi) of measure_shape that the caller measured: numbers for one
    configuration, (N,) arrays for N, or measures them if it is None, on
    one configuration's floats.  Raises NumericalBlowup where it measures
    them and measure_shape raises it."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        x = x.ravel().tolist()
    measure = shape is None and not spec.reads <= PAIRS.keys()
    if isinstance(x, list):
        if measure:
            r1, r2, _, _, _, phi = measure_shape(*jacobi_map(masses, x[:3], x[3:6], x[6:]))
            shape = r1, r2, phi
        _, d = _pair_vectors(x, sqrt)
        if spec.ast is not None:
            values = dict(zip(PAIRS, d))
            values.update(zip(("r1", "r2", "phi"), map(float, shape or ())))
            return _run_state(spec, values, False)[0]
        if 0.0 not in d:
            e12, e13, e23 = _pair_terms(spec, masses)[0](d)
            if isfinite(V := (e12 + e13) + e23):
                return V
    else:
        with np.errstate(all="ignore"):  # a length that overflows is inf, as a float's
            if measure:
                r1, r2, _, _, _, phi = measure_shape(*jacobi_map(masses, *np.moveaxis(x, -2, 0)))
                shape = r1, r2, phi
            _, d = _pair_vectors(x.reshape(-1, 9).T, np.sqrt)
    return eval_potential_batch(spec, masses, *(shape or (None,) * 3), *d)


def _pair_vectors(x, root):
    """The vectors x_i - x_k of the pairs d12, d13, d23 of the nine position
    components x, body-major (x, y, z of body 1, then of bodies 2 and 3),
    as nine components pair-major, and their lengths root((a a + b b) +
    c c), rounded as np.linalg.norm rounds them: floats and math.sqrt for
    one state, (N,) columns and np.sqrt for N."""
    x1, y1, z1, x2, y2, z2, x3, y3, z3 = x
    delta = a1, a2, a3, b1, b2, b3, c1, c2, c3 = (
        x1 - x2, y1 - y2, z1 - z2, x1 - x3, y1 - y3, z1 - z3, x2 - x3, y2 - y3, z2 - z3
    )
    d = [root((a1 * a1 + a2 * a2) + a3 * a3), root((b1 * b1 + b2 * b2) + b3 * b3),
         root((c1 * c1 + c2 * c2) + c3 * c3)]
    return delta, d


def _pair_forces(slopes, delta, d):
    """Forces F_i = -dV/dx_i on the bodies, nine floats body-major, from the
    slopes dV/dd of the pairs d12, d13, d23 with their _pair_vectors delta
    and d.  Each pair's w = slope * delta / d goes to its two bodies, each
    body's sum from +0.0, body 1's being (0.0 - w12) - w13, so no force
    component is -0.0.  The first pair whose slope is not finite raises
    DomainError naming it and its d, where w would be inf or NaN; a NaN d is
    of a NaN state, which the integrator's guard names.  A pair at d = 0,
    whose division raises, adds no force where its slope is 0, the limit,
    and raises DomainError naming the pair otherwise."""
    (s, t, u), (p, q, r) = slopes, d
    if not isfinite(s + t + u):  # one test: inf or NaN in a slope, or in their sum
        for name, slope, length in zip(PAIRS, slopes, d):
            if not (isfinite(slope) or isnan(length)):
                raise DomainError(name, length)
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = delta
    try:
        a1, a2, a3 = s * a1 / p, s * a2 / p, s * a3 / p
        b1, b2, b3 = t * b1 / q, t * b2 / q, t * b3 / q
        c1, c2, c3 = u * c1 / r, u * c2 / r, u * c3 / r
    except ZeroDivisionError:
        for name, slope, length in zip(PAIRS, slopes, d):
            if length == 0.0 and slope != 0.0:
                raise DomainError(name, 0.0) from None
        # delta is 0 where d is, so its w is 0
        return _pair_forces(slopes, delta, [length or 1.0 for length in d])
    return [
        0.0 - a1 - b1, 0.0 - a2 - b2, 0.0 - a3 - b3,
        0.0 + a1 - c1, 0.0 + a2 - c2, 0.0 + a3 - c3,
        0.0 + b1 + c1, 0.0 + b2 + c2, 0.0 + b3 + c3,
    ]


def _phi_slope_vanishes(spec, values, slope):
    """Whether dV/dphi, `slope` at the phi = 0 or fl(pi) of an exactly
    collinear shape with the variables `values`, is 0 to the resolution of
    phi there: it is 0, or it has the other sign at the float on the far
    side of the limit (0 or pi, which fl(pi) falls short of by 1.2e-16), so
    that it changes sign at the limit.  A domain error at that float counts
    as not 0."""
    if slope == 0.0:
        return True
    phi = values["phi"]
    beyond = nextafter(phi, -1.0 if phi == 0.0 else 4.0)
    try:
        _, gradient = _run_state(spec, {**values, "phi": beyond}, True)
    except DomainError:
        return False
    return np.sign(gradient[2]) != np.sign(slope)


def _shape_forces(A, s, shape, slopes):
    """Forces from slopes = dV/d(r1, r2, phi) at one state's Jacobi
    vectors s, lists of three floats, and their measure_shape, floats, as
    nine floats body-major.  dV/ds = g = C s for s1, s2 stacked and a
    symmetric 2 x 2 matrix C, and dV/dx = A^T g for the Jacobi map's
    coefficients A, its two rows as floats: body i's force is -(A1i g1 +
    A2i g2), summed in the order of s.  A slope of phi at |s1 x s2| = 0 must be 0 (see
    forces_cartesian); r1 or r2 at 0 raises DomainError unless its slope
    is 0, and it raises naming r1, r2 or phi where that variable's term,
    added in that order, leaves a force that is not finite."""
    r1, r2, _, area, dot, phi = shape
    dr1, dr2, dphi = slopes
    for name, r, slope in (("r1", r1, dr1), ("r2", r2, dr2)):
        if r == 0.0 and slope != 0.0:
            raise DomainError(name, 0.0)
    c11 = dr1 / r1 if dr1 else 0.0
    c22 = dr2 / r2 if dr2 else 0.0
    terms = [("r1", r1, (c11, 0.0, 0.0)), ("r2", r2, (c11, 0.0, c22))]
    c12 = 0.0
    if dphi:  # then area > 0 (see force_field)
        # dphi/ds1 = ((s1 . s2)/r1^2 s1 - s2)/|s1 x s2|, dphi/ds2 likewise,
        # dividing one factor at a time where the product underflows to 0
        c11 += dphi * dot / (r1 * r1 * area) if r1 * r1 * area else dphi * dot / r1 / r1 / area
        c22 += dphi * dot / (r2 * r2 * area) if r2 * r2 * area else dphi * dot / r2 / r2 / area
        c12 = -dphi / area
    s1, s2 = s
    def pullback(c11, c12, c22):  # -A^T C s
        g1 = [c11 * a + c12 * b for a, b in zip(s1, s2)]
        g2 = [c12 * a + c22 * b for a, b in zip(s1, s2)]
        return [-(a * u + b * w) for a, b in zip(*A) for u, w in zip(g1, g2)]
    forces = pullback(c11, c12, c22)
    if not isfinite(sum(forces)):  # the nine tested once
        for name, value, c in (*terms, ("phi", phi, (c11, c12, c22))):
            if not all(map(isfinite, pullback(*c))):
                raise DomainError(name, value)
    return forces


def force_field(spec: PotentialSpec, masses: MassTriple):
    """The forces of the potential for the masses as a function field(x)
    of one state's nine position components x, body-major floats (x, y, z
    of body 1, then of bodies 2 and 3), which returns the nine force
    components in the same order, with the values and errors of
    forces_cartesian, which calls it once.  What does not change from one
    call to the next is resolved here, once: a built-in family's slopes
    and constants, and the variables an expression reads, with the Jacobi
    map's coefficients where it reads r1, r2 or phi: the rows of A,
    (s1, s2) = A (x1, x2, x3), are the Jacobi vectors of the unit
    vectors.  Such an expression measures each state with measure_shape,
    whose NumericalBlowup it raises."""
    if spec.builtin is not None:
        _, slopes = _pair_terms(spec, masses)

        def field(x):
            delta, d = _pair_vectors(x, sqrt)
            try:
                dVdd = slopes(d)
            except ZeroDivisionError:  # gravity's or Lennard-Jones's slope at d = 0
                raise DomainError(tuple(PAIRS)[d.index(0.0)], 0.0) from None
            return _pair_forces(dVdd, delta, d)

        return field
    pairs = not spec.reads.isdisjoint(PAIRS)
    jacobi = not spec.reads <= PAIRS.keys()
    reads_phi = "phi" in spec.reads
    A = [row.tolist() for row in jacobi_map(masses, *np.eye(3))] if jacobi else None

    def field(x):
        values = {}
        if pairs:
            delta, d = _pair_vectors(x, sqrt)
            values.update(zip(PAIRS, d))
        if jacobi:
            # one state's Jacobi vectors and shape, measured on floats
            s = jacobi_map(masses, x[:3], x[3:6], x[6:])
            shape = measure_shape(*s)
            r1, r2, _, area, _, phi = shape
            values.update(r1=r1, r2=r2, phi=phi)
        _, gradient = _run_state(spec, values, True)
        forces = _pair_forces(gradient[3:], delta, d) if pairs else [0.0] * 9
        if jacobi:
            slopes = gradient[:3]
            if reads_phi and area == 0.0:
                if not _phi_slope_vanishes(spec, values, slopes[2]):  # r1, r2 > 0 (see _run)
                    raise DomainError("phi", values["phi"])
                # |dphi/ds1| = 1/r1 and |dphi/ds2| = 1/r2 in the plane of the
                # motion, so the phi term tends to 0 with dV/dphi
                slopes[2] = 0.0
            forces = [f + g for f, g in zip(forces, _shape_forces(A, s, shape, slopes))]
        return forces

    return field


def forces_cartesian(spec: PotentialSpec, masses: MassTriple, positions):
    """Forces F_i = -dV/dx_i on the three bodies, exact to rounding: the
    force_field of the potential and masses, called once.

    A built-in family takes dV/dd from its pair terms.  An expression takes
    its derivatives by the variables it reads from the pullback of its walk
    and computes only those variables, so a pairwise expression costs the
    pair vectors only.  dV/dd goes to the bodies through the pair vectors
    (_pair_forces), for both; an expression's dV/d(r1, r2, phi) goes through
    the transpose of the Jacobi map (_shape_forces).

    Raises DomainError where a derivative is undefined, naming the
    variable: at a pair distance, r1 or r2 of 0 where V's derivative by it
    is not 0; for an expression that reads phi, at r1 = 0 or r2 = 0, and at
    an exactly collinear shape where dV/dphi is not 0 to the resolution of
    phi (see _phi_slope_vanishes; where it is 0, the limit force is
    returned); where a derivative of an expression is not finite, naming the
    operation, and a shape force, naming r1, r2 or phi.  Raises NumericalBlowup
    where an expression reads r1, r2 or phi and measure_shape raises it.
    """
    x = np.asarray(positions, dtype=float).reshape(9).tolist()
    return np.reshape(force_field(spec, masses)(x), (3, 3))
