from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trireduce.checks import random_rotation
from trireduce.errors import DomainError, PotentialSyntaxError, UnknownIdentifier
from trireduce.geometry import MassTriple, ShapeCoordinates
from trireduce.potential import (
    Bin,
    Call,
    EvalContext,
    Neg,
    Num,
    Var,
    builtin_potential,
    eval_potential,
    eval_potential_batch,
    forces_cartesian,
    parse_expression,
    parse_potential,
    potential_at_positions,
    print_expression,
)

RNG = np.random.default_rng(31)
MASSES = MassTriple(1.0, 1.0, 1.0)


def ctx_with(**kwargs):
    defaults = dict(r1=1.0, r2=1.0, phi=1.0, d12=1.0, d13=1.0, d23=1.0)
    defaults.update(kwargs)
    return EvalContext(MASSES, **defaults)


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
    @given(st.recursive(
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
    ))
    def test_print_parse_round_trip(self, ast):
        printed = print_expression(ast)
        assert parse_expression(printed) == ast


class TestEval:
    def test_free_is_zero(self):
        assert eval_potential(builtin_potential("free"), ctx_with()) == 0.0

    def test_square(self):
        spec = parse_potential("r1^2")
        assert eval_potential(spec, ctx_with(r1=3.0)) == 9.0

    def test_gravity_example(self):
        spec = builtin_potential("gravity", G=1.0)
        ctx = ctx_with(d12=sqrt(2), d13=2.0, d23=sqrt(2))
        expected = -(1 / sqrt(2) + 0.5 + 1 / sqrt(2))
        assert eval_potential(spec, ctx) == pytest.approx(expected, rel=1e-14)

    def test_division_by_zero(self):
        spec = parse_potential("1/(r1 - 1)")
        with pytest.raises(DomainError):
            eval_potential(spec, ctx_with(r1=1.0))

    def test_log_domain(self):
        spec = parse_potential("log(r1 - 2)")
        with pytest.raises(DomainError):
            eval_potential(spec, ctx_with(r1=1.0))

    def test_sqrt_domain(self):
        spec = parse_potential("sqrt(r1 - 2)")
        with pytest.raises(DomainError):
            eval_potential(spec, ctx_with(r1=1.0))

    def test_power_domain_on_every_path(self):
        # a negative base to a fractional power: a plain context, a context
        # built from a shape, and the batch evaluation all raise
        spec = parse_potential("(d12 - 10)^0.5")
        with pytest.raises(DomainError):
            eval_potential(spec, ctx_with(d12=1.0))
        q = ShapeCoordinates(1.4, 0.9, 1.2)
        with pytest.raises(DomainError):
            eval_potential(spec, EvalContext.from_shape(MASSES, q))
        ones = np.ones(2)
        with pytest.raises(DomainError):
            eval_potential_batch(spec, MASSES, ones, ones, ones, ones, ones, ones)

    def test_rotation_invariance_by_construction(self):
        # the context depends only on the shape, so rotated Cartesian
        # realizations evaluate identically
        spec = parse_potential("sin(phi) * d12 + r1 / d23")
        masses = MassTriple(1.0, 2.0, 0.5)
        q = ShapeCoordinates(1.4, 0.9, 1.2)
        base = eval_potential(spec, EvalContext.from_shape(masses, q))
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

    def test_expression_forces_match_equivalent_builtin(self):
        # harmonic with zero rest length has the shape-level form
        # k/2 (d12^2 + d13^2 + d23^2)
        spec_expr = parse_potential("0.5 * (d12^2 + d13^2 + d23^2)")
        spec_builtin = builtin_potential("harmonic", k=1.0, rest_length=0.0)
        for _ in range(10):
            pos = self._spread_positions()
            F_expr = forces_cartesian(spec_expr, MASSES, pos)
            F_builtin = forces_cartesian(spec_builtin, MASSES, pos)
            assert np.allclose(F_expr, F_builtin, atol=1e-6)
