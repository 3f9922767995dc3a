"""Rotation- and translation-invariant potentials.

Built-in pairwise families (gravity, harmonic, Lennard-Jones, free) with
analytic forces, plus a small expression language over the shape variables
r1, r2, phi and the interparticle distances d12, d13, d23.  Expression
potentials are invariant by construction because they only see the shape.
"""

from dataclasses import dataclass, field
from numbers import Real
from sys import float_info

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    PotentialSyntaxError,
    UnknownIdentifier,
)
from .geometry import MassTriple, cross, jacobi_map

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


def _apply(name, shape, *args):
    """One operation on the rows.  Raises DomainError(name, value) at the first
    row outside its domain, with the argument of a function, the divisor of
    '/' or the pair (base, exponent) of '^' as the value."""
    value = _UFUNCS[name](*args)
    if name in _DOMAIN and not np.isfinite(value).all():
        bad = np.broadcast_to(_DOMAIN[name](*args) & ~np.isfinite(value), shape)
        if bad.any():
            row = [float(np.broadcast_to(a, shape)[bad.argmax()]) for a in args]
            raise DomainError(name, tuple(row) if name == "^" else row[-1])
    return value


def _eval_node(node, values, shape):
    """Value of a tree on the rows, `values` holding each variable's column;
    numbers stay scalars.  Run under np.errstate: the checks are masks."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return values[node.name]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, values, shape)
    if isinstance(node, Call):
        return _apply(node.fn, shape, _eval_node(node.arg, values, shape))
    a = _eval_node(node.left, values, shape)
    return _apply(node.op, shape, a, _eval_node(node.right, values, shape))


# --------------------------------------------------------------------------
# Potential specifications

# parameters each built-in family reads; "rest" maps pairs to rest lengths
BUILTIN_PARAMS = {
    "free": (),
    "gravity": ("G",),
    "harmonic": ("k", "rest_length", "rest"),
    "lennard_jones": ("epsilon", "sigma"),
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMS)


def _check_number(path, value):
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

    def __post_init__(self):
        if (self.builtin is None) == (self.ast is None):
            raise ValueError("exactly one of builtin/ast must be set")
        if self.builtin is not None and self.builtin not in BUILTIN_NAMES:
            raise ValueError(f"unknown builtin potential '{self.builtin}'")
        reads = BUILTIN_PARAMS.get(self.builtin, ())
        for key, value in self.params.items():
            if key not in reads:
                raise ValueError(f"params.{key}: {self.builtin} reads {list(reads) or 'none'}")
            if key != "rest":
                _check_number(f"params.{key}", value)
            elif not isinstance(value, dict) or not set(value) <= set(PAIRS):
                raise ValueError(f"params.rest: expected an object with keys among {tuple(PAIRS)}")
            else:
                for pair, length in value.items():
                    _check_number(f"params.rest.{pair}", length)


def builtin_potential(name, **params) -> PotentialSpec:
    return PotentialSpec(builtin=name, params=params)


def parse_potential(text) -> PotentialSpec:
    """Parse an expression potential; raises PotentialSyntaxError or
    UnknownIdentifier on bad input."""
    return PotentialSpec(ast=parse_expression(text), source=text)


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


def eval_potential_batch(
    spec: PotentialSpec, masses: MassTriple, r1, r2, phi, d12, d13, d23
) -> np.ndarray:
    """Potential energy at N shapes, each variable given as an (N,) array.

    Built-in families and expressions are both evaluated on the arrays.  An
    expression raises DomainError where an operation leaves its domain
    (sqrt or log of a number below or at 0, exp overflow, sin or cos of an
    infinity, division by 0, a negative base to a non-integer power, 0 to a
    negative power, power overflow) and, under the name "expression",
    where its value is not finite.
    """
    if spec.ast is not None:
        columns = [np.asarray(a, dtype=float) for a in (r1, r2, phi, d12, d13, d23)]
        shape = np.broadcast(*columns).shape
        with np.errstate(all="ignore"):
            value = _eval_node(spec.ast, dict(zip(VARIABLES, columns)), shape)
        value = np.array(np.broadcast_to(value, shape))
        if not np.isfinite(value).all():
            raise DomainError("expression", float(value[~np.isfinite(value)][0]))
        return value
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
