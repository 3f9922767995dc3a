"""Rotation- and translation-invariant potentials.

Built-in pairwise families (gravity, harmonic, Lennard-Jones, free) with
analytic forces, plus a small expression language over the shape variables
r1, r2, phi and the interparticle distances d12, d13, d23.  Expression
potentials are invariant by construction because they only see the shape.
"""

from dataclasses import dataclass, field
from math import cos, exp, isfinite, log, sin, sqrt

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    PotentialSyntaxError,
    UnknownIdentifier,
)
from .geometry import MassTriple, ShapeCoordinates, cross, jacobi_map, shape_to_distances

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


def _eval_finite(node, values):
    """Value of an expression at one point; DomainError unless finite."""
    value = float(_eval_node(node, values))
    if not isfinite(value):
        raise DomainError("expression", value)
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

    def values(self):
        return {
            "r1": self.r1,
            "r2": self.r2,
            "phi": self.phi,
            "d12": self.d12,
            "d13": self.d13,
            "d23": self.d23,
        }


# first and second bodies of the pairs d12, d13, d23, and the pair-by-body
# incidence matrix: +1 at the first body, -1 at the second
_FIRST, _SECOND = np.array(list(PAIRS.values())).T
_INCIDENCE = np.eye(3)[_FIRST] - np.eye(3)[_SECOND]


def _pair_vectors(x):
    """x_i - x_k of the pairs d12, d13, d23, for (..., 3, 3) positions."""
    return x.take(_FIRST, -2) - x.take(_SECOND, -2)


def _pair_terms(spec: PotentialSpec, masses: MassTriple, d):
    """Energies and derivatives dV/dd of the three pair terms of a built-in
    family, at distances d = (d12, d13, d23) given as a (..., 3) array."""
    params = spec.params
    if spec.builtin == "free":
        return np.zeros_like(d), np.zeros_like(d)
    if spec.builtin == "harmonic":
        k = params.get("k", 1.0)
        rest = [params.get("rest", {}).get(n, params.get("rest_length", 1.0)) for n in PAIRS]
        stretch = d - rest
        return 0.5 * k * stretch ** 2, k * stretch
    if not np.all(d):
        raise DomainError(spec.builtin, 0.0)
    if spec.builtin == "gravity":
        m = masses.as_array()
        Gmm = params.get("G", 1.0) * m[_FIRST] * m[_SECOND]
        return -Gmm / d, Gmm / d ** 2
    if spec.builtin == "lennard_jones":
        eps = params.get("epsilon", 1.0)
        s6 = (params.get("sigma", 1.0) / d) ** 6
        energy = 4.0 * eps * (s6 * s6 - s6)
        deriv = 4.0 * eps * (-12.0 * s6 * s6 + 6.0 * s6) / d
        return energy, deriv
    raise ConfigError("potential.builtin", f"unknown builtin '{spec.builtin}'")


def eval_potential(spec: PotentialSpec, ctx: EvalContext) -> float:
    """Potential energy at the context's shape: eval_potential_batch on one row."""
    values = ctx.values()
    return float(eval_potential_batch(spec, ctx.masses, *([values[v]] for v in VARIABLES))[0])


def eval_potential_batch(
    spec: PotentialSpec, masses: MassTriple, r1, r2, phi, d12, d13, d23
) -> np.ndarray:
    """Potential energy at N shapes, each variable given as an (N,) array.

    Built-in families are evaluated on the arrays; expressions walk the tree
    once per shape, on Python floats, with the domain checks of the tree
    walk, and raise DomainError unless the value is finite.
    """
    if spec.ast is not None:
        columns = (np.asarray(a, dtype=float).tolist() for a in (r1, r2, phi, d12, d13, d23))
        values = [_eval_finite(spec.ast, dict(zip(VARIABLES, row))) for row in zip(*columns)]
        return np.array(values, dtype=float)
    energy, _ = _pair_terms(spec, masses, np.stack([d12, d13, d23], axis=-1))
    return (energy[..., 0] + energy[..., 1]) + energy[..., 2]


def potential_at_positions(spec: PotentialSpec, masses: MassTriple, x) -> np.ndarray:
    """Potential energy of N configurations given as an (N, 3, 3) array of
    positions, one row per body: the shape (r1, r2, phi) and the pair
    distances are measured from the positions, with phi = atan2(|s1 x s2|,
    s1 . s2) of the Jacobi vectors."""
    s1, s2 = jacobi_map(masses, x[:, 0], x[:, 1], x[:, 2])
    phi = np.arctan2(np.linalg.norm(cross(s1, s2), axis=1), np.einsum("ij,ij->i", s1, s2))
    d = np.linalg.norm(_pair_vectors(x), axis=2)
    return eval_potential_batch(
        spec, masses, np.linalg.norm(s1, axis=1), np.linalg.norm(s2, axis=1), phi, *d.T
    )


# central-difference probes: +e and -e for each of the nine coordinates
_STENCIL = np.kron(np.eye(9), [[1.0], [-1.0]]).reshape(18, 3, 3)


def forces_cartesian(spec: PotentialSpec, masses: MassTriple, positions):
    """Forces F_i = -dV/dx_i on the three bodies.

    Analytic for the built-in pairwise families; central finite differences
    (step 1e-6 of the largest pair distance, O(step^2) error) for
    expressions, with the 18 probes evaluated as one batch.
    """
    pos = np.asarray(positions, dtype=float).reshape(3, 3)
    delta = _pair_vectors(pos)
    d = np.linalg.norm(delta, axis=1)
    if spec.builtin is not None:
        if not d.all():
            raise DomainError(spec.builtin, 0.0)
        _, dVdd = _pair_terms(spec, masses, d)
        # einsum rather than a matmul, whose BLAS buffers grow the process
        return np.einsum("pb,pk->bk", _INCIDENCE, -dVdd[:, None] * delta / d[:, None])
    scale = d.max()
    step = 1e-6 * (scale if scale > 0.0 else 1.0)
    V = potential_at_positions(spec, masses, pos + step * _STENCIL)
    return (-(V[0::2] - V[1::2]) / (2.0 * step)).reshape(3, 3)
