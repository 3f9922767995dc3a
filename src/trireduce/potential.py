"""Rotation- and translation-invariant potentials.

Built-in pairwise families (gravity, harmonic, Lennard-Jones, free) with
analytic forces, plus a small expression language over the shape variables
r1, r2, phi and the interparticle distances d12, d13, d23.  Expression
potentials are invariant by construction because they only see the shape.
"""

from dataclasses import dataclass, field
from math import atan2, cos, exp, log, sin, sqrt

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    PotentialSyntaxError,
    UnknownIdentifier,
)
from .geometry import MassTriple, ShapeCoordinates, jacobi_map, shape_to_distances

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


_FN_IMPL = {
    "sin": sin,
    "cos": cos,
    "sqrt": sqrt,
    "exp": exp,
    "log": log,
    "abs": abs,
}


def _eval_node(node, values):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return values[node.name]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, values)
    if isinstance(node, Call):
        x = _eval_node(node.arg, values)
        if node.fn == "sqrt" and x < 0.0:
            raise DomainError("sqrt", x)
        if node.fn == "log" and x <= 0.0:
            raise DomainError("log", x)
        try:
            return _FN_IMPL[node.fn](x)
        except (OverflowError, ValueError):  # exp overflow, sin/cos of inf
            raise DomainError(node.fn, x)
    a = _eval_node(node.left, values)
    b = _eval_node(node.right, values)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if b == 0.0:
            raise DomainError("/", b)
        return a / b
    # '^'
    try:
        value = a ** b
    except (ZeroDivisionError, OverflowError, ValueError):
        raise DomainError("^", (a, b))
    if isinstance(value, complex):
        raise DomainError("^", (a, b))
    return value


# --------------------------------------------------------------------------
# Potential specifications

BUILTIN_NAMES = ("free", "gravity", "harmonic", "lennard_jones")


@dataclass(frozen=True)
class PotentialSpec:
    """Either a built-in pairwise family (name + parameters) or a parsed
    expression over shape variables."""

    builtin: str = None
    params: dict = field(default_factory=dict)
    ast: object = None
    source: str = None

    def __post_init__(self):
        if (self.builtin is None) == (self.ast is None):
            raise ValueError("exactly one of builtin/ast must be set")
        if self.builtin is not None and self.builtin not in BUILTIN_NAMES:
            raise ValueError(f"unknown builtin potential '{self.builtin}'")


def builtin_potential(name, **params) -> PotentialSpec:
    return PotentialSpec(builtin=name, params=params)


def parse_potential(text) -> PotentialSpec:
    """Parse an expression potential; raises PotentialSyntaxError or
    UnknownIdentifier on bad input."""
    return PotentialSpec(ast=parse_expression(text), source=text)


@dataclass(frozen=True)
class EvalContext:
    """Shape-level evaluation context: coordinates, distances and masses."""

    masses: MassTriple
    r1: float
    r2: float
    phi: float
    d12: float
    d13: float
    d23: float

    @classmethod
    def from_shape(cls, masses: MassTriple, q: ShapeCoordinates):
        # Python floats, so that the expression walk keeps Python's
        # arithmetic (a complex power is a DomainError, not a numpy NaN)
        d12, d13, d23 = map(float, shape_to_distances(masses, q.r1, q.r2, q.phi))
        return cls(masses, q.r1, q.r2, q.phi, d12, d13, d23)

    @classmethod
    def from_positions(cls, masses: MassTriple, positions):
        x1, x2, x3 = (np.asarray(p, dtype=float) for p in positions)
        s1, s2 = jacobi_map(masses, x1, x2, x3)
        r1 = float(np.linalg.norm(s1))
        r2 = float(np.linalg.norm(s2))
        cross = float(np.linalg.norm(np.cross(s1, s2)))
        dot = float(np.dot(s1, s2))
        phi = atan2(cross, dot)
        return cls(
            masses,
            r1,
            r2,
            phi,
            float(np.linalg.norm(x1 - x2)),
            float(np.linalg.norm(x1 - x3)),
            float(np.linalg.norm(x2 - x3)),
        )

    def values(self):
        return {
            "r1": self.r1,
            "r2": self.r2,
            "phi": self.phi,
            "d12": self.d12,
            "d13": self.d13,
            "d23": self.d23,
        }


def _pair_masses(m: MassTriple):
    arr = m.as_array()
    return {name: (arr[i], arr[j]) for name, (i, j) in PAIRS.items()}


def _require_nonzero(spec, d):
    # floats skip numpy: a numpy call per pair would cost microseconds on
    # every force evaluation
    if (d == 0.0) if isinstance(d, float) else not np.all(d):
        raise DomainError(spec.builtin, 0.0)


def _builtin_pair_energy(spec, m, name, d):
    """Energy contribution and d(energy)/d(distance) of one pair, at a
    distance d given as a float or as an array of distances."""
    params = spec.params
    if spec.builtin == "free":
        return 0.0, 0.0
    if spec.builtin == "gravity":
        G = params.get("G", 1.0)
        mi, mj = _pair_masses(m)[name]
        _require_nonzero(spec, d)
        return -G * mi * mj / d, G * mi * mj / d ** 2
    if spec.builtin == "harmonic":
        k = params.get("k", 1.0)
        rest = params.get("rest", {}).get(name, params.get("rest_length", 1.0))
        return 0.5 * k * (d - rest) ** 2, k * (d - rest)
    if spec.builtin == "lennard_jones":
        eps = params.get("epsilon", 1.0)
        sig = params.get("sigma", 1.0)
        _require_nonzero(spec, d)
        s6 = (sig / d) ** 6
        energy = 4.0 * eps * (s6 * s6 - s6)
        deriv = 4.0 * eps * (-12.0 * s6 * s6 + 6.0 * s6) / d
        return energy, deriv
    raise ConfigError("potential.builtin", f"unknown builtin '{spec.builtin}'")


def eval_potential(spec: PotentialSpec, ctx: EvalContext) -> float:
    """Potential energy at the context's shape."""
    if spec.ast is not None:
        return float(_eval_node(spec.ast, ctx.values()))
    total = 0.0
    for name in PAIRS:
        energy, _ = _builtin_pair_energy(spec, ctx.masses, name, getattr(ctx, name))
        total += energy
    return total


def eval_potential_batch(
    spec: PotentialSpec, masses: MassTriple, r1, r2, phi, d12, d13, d23
) -> np.ndarray:
    """Potential energy at N shapes, each variable given as an (N,) array.

    Built-in families are evaluated on the arrays; expressions walk the tree
    once per shape, on Python floats, with the domain checks of
    eval_potential.
    """
    if spec.ast is not None:
        columns = (np.asarray(a, dtype=float).tolist() for a in (r1, r2, phi, d12, d13, d23))
        values = [_eval_node(spec.ast, dict(zip(VARIABLES, row))) for row in zip(*columns)]
        return np.array(values, dtype=float)
    total = np.zeros(np.shape(d12))
    for name, d in zip(PAIRS, (d12, d13, d23)):
        energy, _ = _builtin_pair_energy(spec, masses, name, d)
        total += energy
    return total


def potential_at_shape(spec: PotentialSpec, masses: MassTriple, q: ShapeCoordinates):
    return eval_potential(spec, EvalContext.from_shape(masses, q))


def _potential_at_positions(spec, masses, positions):
    return eval_potential(spec, EvalContext.from_positions(masses, positions))


def forces_cartesian(spec: PotentialSpec, masses: MassTriple, positions):
    """Forces F_i = -dV/dx_i on the three bodies.

    Analytic for the built-in pairwise families; central finite differences
    (step 1e-6 of the length scale, O(step^2) error) for expressions.
    """
    pos = np.asarray(positions, dtype=float).reshape(3, 3)
    if spec.builtin is not None:
        forces = np.zeros((3, 3))
        for name, (i, k) in PAIRS.items():
            delta = pos[i] - pos[k]
            d = float(np.linalg.norm(delta))
            if d == 0.0:
                raise DomainError(spec.builtin, d)
            _, dVdd = _builtin_pair_energy(spec, masses, name, d)
            f = -dVdd * delta / d
            forces[i] += f
            forces[k] -= f
        return forces
    scale = max(
        float(np.linalg.norm(pos[i] - pos[k])) for i, k in PAIRS.values()
    )
    step = 1e-6 * (scale if scale > 0.0 else 1.0)
    forces = np.zeros((3, 3))
    for i in range(3):
        for k in range(3):
            plus = pos.copy()
            minus = pos.copy()
            plus[i, k] += step
            minus[i, k] -= step
            vp = _potential_at_positions(spec, masses, plus)
            vm = _potential_at_positions(spec, masses, minus)
            forces[i, k] = -(vp - vm) / (2.0 * step)
    return forces
