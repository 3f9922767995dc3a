"""Rotation- and translation-invariant potentials.

Built-in pairwise families (gravity, harmonic, Lennard-Jones, free) plus a
small expression language over the shape variables r1, r2, phi and the
interparticle distances d12, d13, d23.  Expression potentials are invariant
by construction because they only see the shape.  Forces are exact
gradients for both: an expression is compiled to one walk that returns its
value and its reverse-mode pullback.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real
from sys import float_info

import numpy as np

from .errors import DomainError, PotentialSyntaxError, UnknownIdentifier
from .geometry import MassTriple, jacobi_map, lengths, measure_shape

VARIABLES = ("r1", "r2", "phi", "d12", "d13", "d23")
CONSTANTS = {"pi": np.pi, "e": np.e}
FUNCTIONS = ("sin", "cos", "sqrt", "exp", "log", "abs")

# pair index -> particle indices (0-based) of the distance variables
PAIRS = {"d12": (0, 1), "d13": (0, 2), "d23": (1, 2)}


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


class _Tokenizer:
    """Splits an expression string into tokens; token positions are
    1-based character offsets into the input."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._run()

    def _run(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, ch, i + 1))
                i += 1
                continue
            if ch.isdigit() or ch == ".":
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
                except ValueError:
                    raise PotentialSyntaxError(i + 1, "number")
                self.tokens.append(("num", value, i + 1))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i + 1))
                i = j
                continue
            raise PotentialSyntaxError(i + 1, "token")
        self.tokens.append(("end", None, n + 1))


class _Parser:
    """Recursive-descent parser; precedence ^ > unary - > * / > + -,
    with ^ right-associative."""

    def __init__(self, text):
        self.text = text
        self.tokens = _Tokenizer(text).tokens
        self.idx = 0

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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PotentialSyntaxError(tok[2], "end of input")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
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
                return Call(value, arg)
            if value in VARIABLES:
                return Var(value)
            if value in CONSTANTS:
                return Num(CONSTANTS[value])
            raise UnknownIdentifier(value, pos)
        raise PotentialSyntaxError(pos, "number, identifier or '('")


def parse_expression(text):
    """Parse an expression string to its AST."""
    return _Parser(text).parse()


def print_expression(node):
    """Render an AST back to a string that parses to a structurally equal AST."""
    return _print(node, 0)


# precedence levels for printing: + - = 1, * / = 2, unary - = 3, ^ = 4
_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _print(node, parent_prec):
    if isinstance(node, Num):
        text = repr(node.value)
        if node.value < 0:
            return f"({text})"
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = _print(node.arg, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 3 else text
    prec = _BIN_PREC[node.op]
    if node.op == "^":
        # right-associative; exponent parses as unary
        left = _print(node.left, prec + 1)
        right = _print(node.right, 3)
    else:
        left = _print(node.left, prec)
        right = _print(node.right, prec + 1)
    text = f"{left} {node.op} {right}"
    return f"({text})" if parent_prec > prec else text


# numpy kernels of the operators and functions
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_UFUNCS.update((fn, getattr(np, fn)) for fn in FUNCTIONS)
_UFUNCS["neg"] = np.negative

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


def _all_finite(v):
    """np.isfinite(v).all(), at half its cost on a few rows."""
    return np.count_nonzero(np.isfinite(v)) == np.size(v)


def _raise_at(name, shape, bad, args):
    """DomainError(name, value) at the first row of the mask `bad`, with the
    argument of a function, the divisor of '/' or the pair (base, exponent)
    of '^' at that row as the value."""
    row = [float(np.broadcast_to(a, shape)[bad.argmax()]) for a in args]
    raise DomainError(name, tuple(row) if name == "^" else row[-1])


def _apply(name, shape, *args):
    """One operation on the rows.  Raises DomainError (see _raise_at) at the
    first row outside its domain."""
    value = _UFUNCS[name](*args)
    if name in _DOMAIN and not _all_finite(value):
        bad = np.broadcast_to(_DOMAIN[name](*args) & ~np.isfinite(value), shape)
        if bad.any():
            _raise_at(name, shape, bad, args)
    return value


# The adjoint of each operand of an operation from the adjoint g of its
# value v and its operands: one per operand, (left, right) for a binary
# operator.
_ADJOINTS = {
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


def _check_adjoint(name, shape, adjoint, args):
    """Raise DomainError (see _raise_at) at the first row where an adjoint
    passed down from the operation `name` is not finite."""
    bad = ~np.isfinite(np.broadcast_to(adjoint, shape))
    if bad.any():
        _raise_at(name, shape, bad, args)


def _compile(node, reads):
    """Compile a tree, once, to its walk, adding the variables it reads to
    the set `reads`.  Raises ValueError on a node that the parser does not
    make.

    walk(columns, shape) takes each variable's (N,) column and returns
    (value, back): the value on the rows, every operation going through
    _apply, and the pullback back(g, check, grads), which adds g times the
    derivative of the value by each variable read into the dict grads.
    With `check` set, back raises DomainError at the first operation that
    passes down an adjoint that is not finite.  A constant subtree's value
    is a number and its back is None: it is evaluated on each walk, never
    folded, so 1/0 still raises.  Run both under np.errstate, since the
    checks are masks.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda columns, shape: (value, None)
    if isinstance(node, Var) and node.name in VARIABLES:
        name = node.name
        reads.add(name)

        def pull_var(g, check, grads):
            grads[name] = grads[name] + g if name in grads else g

        return lambda columns, shape: (columns[name], pull_var)
    if isinstance(node, Neg):
        return _compile_call("neg", _compile(node.arg, reads))
    if isinstance(node, Call) and node.fn in FUNCTIONS:
        return _compile_call(node.fn, _compile(node.arg, reads))
    if isinstance(node, Bin) and node.op in _BIN_PREC:
        return _compile_bin(node.op, _compile(node.left, reads), _compile(node.right, reads))
    raise ValueError(f"not an expression node: {node!r}")


# Two node builders on purpose: one generic _compile_op(op, *operands) made
# the expr_sparse harmonic's forces_cartesian about a quarter slower, 39-47
# against 30-43 us (min of 9 x 5000 calls, 5 alternating process pairs).
def _compile_call(fn, arg):
    """The walk (see _compile) of a function, or of "neg", of the walk
    `arg`."""
    (adjoint,) = _ADJOINTS[fn]

    def walk(columns, shape):
        a, pull = arg(columns, shape)
        value = _apply(fn, shape, a)
        if pull is None:
            return value, None

        def back(g, check, grads):
            g = adjoint(g, value, a)
            if check:
                _check_adjoint(fn, shape, g, (a,))
            pull(g, check, grads)

        return value, back

    return walk


def _compile_bin(op, left, right):
    """The walk (see _compile) of a binary operator on the walks `left` and
    `right`."""
    adjoint_a, adjoint_b = _ADJOINTS[op]

    def walk(columns, shape):
        a, pull_a = left(columns, shape)
        b, pull_b = right(columns, shape)
        value = _apply(op, shape, a, b)
        if pull_a is None and pull_b is None:
            return value, None

        def back(g, check, grads):
            for pull, adjoint in ((pull_a, adjoint_a), (pull_b, adjoint_b)):
                if pull is not None:
                    g_operand = adjoint(g, value, a, b)
                    if check:
                        _check_adjoint(op, shape, g_operand, (a, b))
                    pull(g_operand, check, grads)

        return value, back

    return walk


def _run(spec, columns, shape, gradient):
    """V of an expression on the rows, as an array or (for a constant) a
    number, and, if `gradient` is set, its derivatives by VARIABLES as a
    (6, N) array, 0 for a variable it does not read.

    Raises DomainError under the name "phi" at r1 = 0 or r2 = 0 if the
    expression reads phi, which is undefined there; where an operation
    leaves its domain, under the name "expression" where V is not finite,
    and where a derivative is not finite, naming the operation that first
    passes one down, or else the variable whose derivative overflows in
    the sum of its terms.
    """
    if "phi" in spec.reads:
        undefined = np.broadcast_to((columns["r1"] == 0.0) | (columns["r2"] == 0.0), shape)
        if undefined.any():
            raise DomainError("phi", float(np.broadcast_to(columns["phi"], shape)[undefined][0]))
    with np.errstate(all="ignore"):
        value, back = spec.walk(columns, shape)
        if not _all_finite(value):
            bad = ~np.isfinite(np.broadcast_to(value, shape))  # no rows, no error
            if bad.any():
                raise DomainError("expression", float(np.broadcast_to(value, shape)[bad][0]))
        if not gradient:
            return value, None
        grads = {}
        if back is not None:
            back(np.ones(shape), False, grads)
        zero = np.zeros(shape)
        gradient = np.array([grads.get(name, zero) for name in VARIABLES])
        if not _all_finite(gradient):
            # a derivative that is not finite stays so down to the variables;
            # walk back again, checking each operation, to name it
            back(np.ones(shape), True, {})
            row, column = np.argwhere(~np.isfinite(gradient))[0]
            name = VARIABLES[row]
            raise DomainError(name, float(np.broadcast_to(columns[name], shape)[column]))
    return value, gradient


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


def check_number(path, value):
    """Raise ValueError unless value is a finite real number, not a bool."""
    # abs(nan) <= max is False, and an int is compared exactly, not rounded
    if isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= float_info.max:
        raise ValueError(f"{path}: expected a finite number, got {value!r}")


@dataclass(frozen=True)
class PotentialSpec:
    """Either a built-in pairwise family (name + parameters) or a parsed
    expression over shape variables."""

    builtin: str = None
    params: dict = field(default_factory=dict)
    ast: object = None
    source: str = None
    # an expression's compiled walk (see _compile) and the variables it reads
    walk: object = field(default=None, init=False, repr=False, compare=False)
    reads: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)
    # a built-in family's parameters as its pair terms read them: defaults
    # filled in, the harmonic's rest lengths of d12, d13, d23 as an array,
    # and gravity's products for the last masses (see _gravity_products)
    _bound: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.builtin is None) == (self.ast is None):
            raise ValueError("exactly one of builtin/ast must be set")
        if self.ast is not None:
            reads = set()
            object.__setattr__(self, "walk", _compile(self.ast, reads))
            object.__setattr__(self, "reads", frozenset(reads))
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
        bound = {**reads, **self.params}
        if self.builtin == "harmonic":
            rest = [bound["rest"].get(n, bound["rest_length"]) for n in PAIRS]
            bound["rest"] = np.array(rest, dtype=float)
        object.__setattr__(self, "_bound", bound)


def builtin_potential(name, **params) -> PotentialSpec:
    return PotentialSpec(builtin=name, params=params)


def parse_potential(text) -> PotentialSpec:
    """Parse an expression potential; raises PotentialSyntaxError or
    UnknownIdentifier on bad input."""
    return PotentialSpec(ast=parse_expression(text), source=text)


# pair-by-body incidence of d12, d13, d23, +1 at the first body and -1 at the
# second: _INCIDENCE @ x is x_i - x_k, and _TO_BODIES takes pair terms to the
# bodies.  Each sums two exact +-terms and a 0-weighted one, so it has the bits
# of a subtraction or a sum.  OpenBLAS's buffers add ~0.28 MB of peak RSS, once.
_INCIDENCE = np.array([np.eye(3)[i] - np.eye(3)[k] for i, k in PAIRS.values()])
_TO_BODIES = np.ascontiguousarray(-_INCIDENCE.T)


def _gravity_products(bound, masses: MassTriple):
    """G m_i m_k of the pairs d12, d13, d23, read only.  The bound parameters
    keep them for the last MassTriple object asked for, the one an
    integration asks with at every step; a larger cache would churn."""
    last = bound.get("Gmm")
    if last is None or last[0] is not masses:
        G, m1, m2, m3 = bound["G"], masses.m1, masses.m2, masses.m3
        Gmm = np.array([G * m1 * m2, G * m1 * m3, G * m2 * m3])
        Gmm.setflags(write=False)
        last = bound["Gmm"] = (masses, Gmm)
    return last[1]


def _off_zero(d):
    """The mask of d = 0 (None where no d is 0) and d with 1.0 as a stand-in
    there, where gravity and Lennard-Jones diverge: their terms are infinite."""
    at_zero = d == 0.0 if np.count_nonzero(d) < np.size(d) else None
    return at_zero, d if at_zero is None else np.where(at_zero, 1.0, d)


def _pair_energies(spec: PotentialSpec, masses: MassTriple, d):
    """Energies of the three pair terms of a built-in family, at distances
    d = (d12, d13, d23) given as a (..., 3) array; infinite at d = 0 for
    gravity and Lennard-Jones."""
    p = spec._bound
    if spec.builtin == "free":
        return np.zeros_like(d)
    if spec.builtin == "harmonic":
        return 0.5 * p["k"] * (d - p["rest"]) ** 2
    at_zero, d = _off_zero(d)
    if spec.builtin == "gravity":
        energy = -_gravity_products(p, masses) / d
    else:  # lennard_jones
        s6 = (p["sigma"] / d) ** 6
        energy = 4.0 * p["epsilon"] * (s6 * s6 - s6)
    return energy if at_zero is None else np.where(at_zero, np.inf, energy)


def _pair_slopes(spec: PotentialSpec, masses: MassTriple, d):
    """Derivatives dV/dd of the three pair terms of a built-in family, at
    distances d given as a (..., 3) array (see _pair_energies); infinite
    at d = 0 for gravity and Lennard-Jones."""
    p = spec._bound
    if spec.builtin == "free":
        return np.zeros_like(d)
    if spec.builtin == "harmonic":
        return p["k"] * (d - p["rest"])
    at_zero, d = _off_zero(d)
    if spec.builtin == "gravity":
        slope = _gravity_products(p, masses) / d ** 2
    else:  # lennard_jones
        s6 = (p["sigma"] / d) ** 6
        slope = 4.0 * p["epsilon"] * (-12.0 * s6 * s6 + 6.0 * s6) / d
    return slope if at_zero is None else np.where(at_zero, np.inf, slope)


def eval_potential_batch(
    spec: PotentialSpec, masses: MassTriple, r1, r2, phi, d12, d13, d23
) -> np.ndarray:
    """Potential energy at N shapes, each variable given as an (N,) array.

    Built-in families and expressions are both evaluated on the arrays.  An
    expression raises DomainError where an operation leaves its domain
    (sqrt or log of a number below or at 0, exp overflow, sin or cos of an
    infinity, division by 0, a negative base to a non-integer power, 0 to a
    negative power, power overflow) and, under the name "expression",
    where its value is not finite.  An expression that reads phi raises it
    under the name "phi" at r1 = 0 or r2 = 0, where phi is undefined.  A
    built-in family raises it where a pair term is not finite, naming the
    pair, as gravity and Lennard-Jones do at a distance of 0.  A variable
    the potential does not read may be None.
    """
    if spec.ast is not None:
        values = (r1, r2, phi, d12, d13, d23)
        columns = {n: np.asarray(a, dtype=float) for n, a in zip(VARIABLES, values) if a is not None}
        shape = np.broadcast(*columns.values()).shape
        value, _ = _run(spec, columns, shape, gradient=False)
        return np.array(np.broadcast_to(value, shape))
    d = np.array([d12, d13, d23])
    d = d.transpose(*range(1, d.ndim), 0)  # pairs on the last axis, for floats and arrays alike
    energy = _pair_energies(spec, masses, d)
    if not _all_finite(energy):
        bad = ~np.isfinite(energy)
        raise DomainError(list(PAIRS)[bad.nonzero()[-1][0]], float(d[bad][0]))
    return (energy[..., 0] + energy[..., 1]) + energy[..., 2]


def potential_at_positions(spec: PotentialSpec, masses: MassTriple, x) -> np.ndarray:
    """Potential energy of N configurations given as an (N, 3, 3) array of
    positions, one row per body, from their pair distances and, where the
    potential reads it, their shape (r1, r2, phi) of measure_shape."""
    r1 = r2 = phi = None
    if not spec.reads <= PAIRS.keys():
        r1, r2, _, _, _, phi = measure_shape(*jacobi_map(masses, x[:, 0], x[:, 1], x[:, 2]))
    d = lengths(_INCIDENCE @ x)
    return eval_potential_batch(spec, masses, r1, r2, phi, *d.T)


def _pair_forces(dVdd, delta, d):
    """Forces F_i = -dV/dx_i on the bodies from dV/dd of the pairs d12, d13,
    d23, given as (..., 3) slopes with their (..., 3, 3) vectors delta and
    (..., 3) lengths d.  A pair at d = 0 adds no force where dV/dd = 0, the
    limit, and raises DomainError naming the pair otherwise."""
    at_zero, d = _off_zero(d)  # delta is 0 where d is
    if at_zero is not None:
        bad = at_zero & (dVdd != 0.0)
        if bad.any():
            raise DomainError(list(PAIRS)[bad.nonzero()[-1][0]], 0.0)
    return _TO_BODIES @ (dVdd[..., None] * delta / d[..., None])


@lru_cache(maxsize=64)
def _jacobi_matrix(masses: MassTriple):
    """The (2, 3) matrix A of jacobi_map, (s1, s2) = A (x1, x2, x3), read
    only: its rows are the Jacobi vectors of the unit vectors."""
    A = np.stack(jacobi_map(masses, *np.eye(3)))
    A.flags.writeable = False
    return A


def _phi_slope_vanishes(spec, columns, slope):
    """Whether dV/dphi, `slope` at the phi = 0 or fl(pi) of an exactly
    collinear shape, is 0 to the resolution of phi there: it is 0, or it
    has the other sign at the float on the far side of the limit (0 or
    pi, which fl(pi) falls short of by 1.2e-16), so that it changes sign
    at the limit.  A domain error at that float counts as not 0."""
    if slope == 0.0:
        return True
    phi = columns["phi"][0]
    beyond = np.nextafter(phi, -1.0 if phi == 0.0 else 4.0)
    try:
        _, gradient = _run(spec, {**columns, "phi": np.array([beyond])}, (1,), gradient=True)
    except DomainError:
        return False
    return np.sign(gradient[2, 0]) != np.sign(slope)


def _shape_forces(masses, s, shape, slopes):
    """Forces from slopes = dV/d(r1, r2, phi) at the Jacobi vectors s and
    their measure_shape, one row each.  dV/ds = C s for s1, s2 stacked
    and a symmetric 2 x 2 matrix C, and dV/dx = A^T C s for the Jacobi
    matrix A.  A slope of phi at |s1 x s2| = 0 must be 0 (see
    forces_cartesian); r1 or r2 at 0 raises DomainError unless its slope
    is 0."""
    r1, r2, _, area, dot, _ = shape
    r1, r2, area, dot = (float(v[0]) for v in (r1, r2, area, dot))
    dr1, dr2, dphi = slopes
    for name, r, slope in (("r1", r1, dr1), ("r2", r2, dr2)):
        if r == 0.0 and slope != 0.0:
            raise DomainError(name, 0.0)
    c11 = dr1 / r1 if dr1 else 0.0
    c22 = dr2 / r2 if dr2 else 0.0
    c12 = 0.0
    if dphi:
        # dphi/ds1 = ((s1 . s2)/r1^2 s1 - s2)/|s1 x s2|, dphi/ds2 likewise
        c11 += dphi * dot / (r1 * r1 * area)
        c22 += dphi * dot / (r2 * r2 * area)
        c12 = -dphi / area
    s1, s2 = s
    g = np.concatenate([c11 * s1 + c12 * s2, c12 * s1 + c22 * s2])
    return -np.einsum("si,sk->ik", _jacobi_matrix(masses), g)


def forces_cartesian(spec: PotentialSpec, masses: MassTriple, positions):
    """Forces F_i = -dV/dx_i on the three bodies, exact to rounding.

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
    returned); and where a derivative of an expression is not finite,
    naming the operation.
    """
    x = np.asarray(positions, dtype=float).reshape(3, 3)
    pairs = spec.builtin is not None or not spec.reads.isdisjoint(PAIRS)
    if pairs:
        delta = _INCIDENCE @ x
        d = lengths(delta)
        if spec.builtin is not None:
            return _pair_forces(_pair_slopes(spec, masses, d), delta, d)
    columns = dict(zip(PAIRS, d[:, None])) if pairs else {}
    jacobi = not spec.reads <= PAIRS.keys()
    if jacobi:
        s = jacobi_map(masses, *x[:, None])  # one (1, 3) row each
        shape = measure_shape(*s)
        r1, r2, _, area, _, phi = shape
        columns.update(r1=r1, r2=r2, phi=phi)
    _, gradient = _run(spec, columns, (1,), gradient=True)
    forces = _pair_forces(gradient[3:, 0], delta, d) if pairs else np.zeros((3, 3))
    if jacobi:
        slopes = gradient[:3, 0].tolist()
        if "phi" in spec.reads and area[0] == 0.0:
            if not _phi_slope_vanishes(spec, columns, slopes[2]):  # r1, r2 > 0 (see _run)
                raise DomainError("phi", float(phi[0]))
            # |dphi/ds1| = 1/r1 and |dphi/ds2| = 1/r2 in the plane of the
            # motion, so the phi term tends to 0 with dV/dphi
            slopes[2] = 0.0
        forces = forces + _shape_forces(masses, s, shape, slopes)
    return forces
