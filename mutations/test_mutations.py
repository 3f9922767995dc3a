"""A seeded mutation gate: each entry breaks the program the way a past
change could have, and tier-1 must catch it by a test the entry names.

Run from the repository root with

    python -m pytest -q mutations

It is not part of tier-1 (pyproject's testpaths is tests).  Each case
copies src/, tests/, pyproject.toml and README.md (which tier-1 reads) to
a temporary directory and runs pytest there in a fresh interpreter: the
case with no entry runs all of tier-1, which must pass; an entry's case
applies the entry and runs its `caught_by` tests only, so an id that no
longer names a test fails the case as "not found".
"""

import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutation:
    """Replace `old`, which occurs exactly once in `file` (relative to the
    checkout), by `new`.  `caught_by` holds test ids as pytest prints them,
    at least one of which must fail on the mutated copy."""

    name: str
    file: str
    old: str
    new: str
    reason: str
    caught_by: tuple


MUTATIONS = [
    Mutation(
        name="collinear-snap",
        file="src/trireduce/geometry.py",
        old="    if not ops.all(planar):\n",
        new=(
            "    if not ops.all(planar):\n"
            "        phi = ops.where(planar, phi, ops.where(dot >= 0.0, 0.0, np.pi))\n"
        ),
        reason="phi set to 0 or pi at or below the collinear threshold, not measured",
        caught_by=(
            "tests/test_hamiltonian.py::TestMeasuredPhi::test_phi_is_measured_in_every_entry_point",
            "tests/test_geometry.py::TestBodyFrameFit::test_degenerate_and_collinear",
            "tests/test_geometry.py::TestBodyFrameFit::test_collinear_u2_along_bending",
        ),
    ),
    Mutation(
        name="dropped-cos-phi",
        file="src/trireduce/hamiltonian.py",
        old="J2 + np.cos(phi) * T)",
        new="J2 + T)",
        reason="the cos(phi) of (J2 + cos(phi) T)^2 / r1^2 in the paper's H dropped",
        caught_by=(
            *(
                "tests/test_hamiltonian.py::TestPaperFormulaSweep::"
                f"test_formula_on_kernel_columns_equals_cm_energy[{family}]"
                for family in (
                    "generic", "near_collinear", "collinear_3d", "small_r2",
                    "close_12", "close_13", "close_23",
                )
            ),
            "tests/test_cli.py::TestCheck::test_default_run_passes",
            "tests/test_acceptance.py::test_criterion_3_energy_identity",
        ),
    ),
    Mutation(
        name="probe-is-V-only",
        file="src/trireduce/potential.py",
        old="    probe = [value, *(name for _, _, name, _ in checks)]\n",
        new="    probe = [value]\n",
        reason="the walk's probe taken as V alone, so an operation that leaves its domain under V is not named",
        caught_by=tuple(
            f"tests/test_potential.py::TestGeneratedWalk::test_probe_names_an_error_that_V_hides[{key}]"
            for key in ("divisor", "exp-argument", "exponent", "base-variable-exponent",
                        "base-negative-exponent", "base-zero-exponent", "constant-divisor")
        ),
    ),
    Mutation(
        name="negated-momenta",
        file="src/trireduce/hamiltonian.py",
        old="    return r1, r2, phi, sin_phi, planar, degenerate, J, p, T, K\n",
        new="    return r1, r2, phi, sin_phi, planar, degenerate, -J, -p, -T, K\n",
        reason="J, p and T negated in the reduction kernel, which leaves H unchanged",
        caught_by=(
            *(
                f"tests/test_hamiltonian.py::TestShapeStart::test_momenta_round_trip[{r1}]"
                for r1 in ("1.0", "0.001", "1e-05", "1e-07")
            ),
            "tests/test_hamiltonian.py::TestBatchKernel::test_rows_match_scalar_reference",
            "tests/test_cli.py::TestEvaluate::test_shape_initial_state",
        ),
    ),
    Mutation(
        name="signed-zero-force",
        file="src/trireduce/potential.py",
        old="        0.0 - a1 - b1, 0.0 - a2 - b2, 0.0 - a3 - b3,\n",
        new="        -a1 - b1, -a2 - b2, -a3 - b3,\n",
        reason="body 1's force summed without the +0.0 start, so it is -0.0 where both pair terms are 0",
        caught_by=tuple(
            f"tests/test_potential.py::TestForces::test_pair_forces_keep_the_reference_bits[{spec}]"
            for spec in ("gravity", "gravity_unit", "harmonic", "harmonic_rest", "lennard_jones",
                         "free", "expr_sparse")
        ),
    ),
    Mutation(
        name="swapped-jacobi-pullback",
        file="src/trireduce/potential.py",
        old="-(a * u + b * w)",
        new="-(a * w + b * u)",
        reason="the float pullback through the Jacobi map pairs s1's coefficient with dV/ds2",
        caught_by=(
            "tests/test_potential.py::TestForces::test_expression_forces_match_fourth_order_stencil",
            "tests/test_potential.py::TestForces::test_every_operation_has_its_derivative",
            "tests/test_acceptance.py::test_criterion_8_parser",
        ),
    ),
    Mutation(
        name="one-state-V-unchecked",
        file="src/trireduce/potential.py",
        old="if isfinite(V := (e12 + e13) + e23):\n                return V\n",
        new="return (e12 + e13) + e23\n",
        reason="one state's float V returned where a pair term is not finite, not raised as its row",
        caught_by=(
            "tests/test_potential.py::TestPairTerms::test_hard_rows",
            *(
                f"tests/test_potential.py::TestPairTerms::test_potential_keeps_the_reference_bits[{spec}]"
                for spec in ("harmonic", "harmonic_rest", "lennard_jones")
            ),
        ),
    ),
    Mutation(
        name="one-state-V-at-zero",
        file="src/trireduce/potential.py",
        old="        if 0.0 not in d:\n",
        new="        if True:\n",
        reason="one state's float V taken at a pair distance of 0, where gravity divides by 0",
        caught_by=(
            "tests/test_potential.py::TestPairTerms::test_hard_rows",
            *(
                f"tests/test_potential.py::TestOneState::test_pair_at_zero_raises_as_its_row[{spec}-{pair}]"
                for spec in ("gravity", "lennard_jones")
                for pair in ("d12-bodies0", "d13-bodies1", "d23-bodies2")
            ),
        ),
    ),
    Mutation(
        name="square-by-pow",
        file="src/trireduce/reduction.py",
        old="    return x * x\n",
        new="    return x ** 2\n",
        reason="the checked square taken as x ** 2, libm's pow on a float, unlike its row's x * x",
        caught_by=("tests/test_hamiltonian.py::TestFormulaOnArrays::test_batch_equals_its_rows",),
    ),
    Mutation(
        name="unchecked-slope",
        file="src/trireduce/potential.py",
        old="if not isfinite(s + t + u):",
        new="if False:",
        reason="a built-in's slope dV/dd that overflows left to make NaN force components",
        caught_by=tuple(
            f"tests/test_potential.py::TestForces::test_slope_that_overflows_is_named[{pair}-{name}-{r}]"
            for pair in ("d12-bodies0", "d13-bodies1", "d23-bodies2")
            for name, r in (("gravity", "3e-162"), ("lennard_jones", "1e-30"), ("lennard_jones", "1e-60"))
        ),
    ),
    Mutation(
        name="shared-vector",
        file="src/trireduce/geometry.py",
        old="    if np.iterable(value):\n",
        new='    if np.iterable(value) and not (type(value) is np.ndarray and value.dtype.char == "d"):\n',
        reason="a float64 array kept as a CartesianState's vector, so the caller's writes reach the state",
        caught_by=(
            "tests/test_geometry.py::TestVectorFields::test_state_owns_its_vectors",
            *(
                f"tests/test_geometry.py::TestVectorFields::test_numbers_are_stored_as_float_arrays[{target}]"
                for target in ("CartesianState", "check_vector")
            ),
        ),
    ),
    Mutation(
        name="unnamed-sin-phi",
        file="src/trireduce/hamiltonian.py",
        old="    if not ops.finite(sin_phi):\n",
        new="    if False:\n",
        reason="an overflowing |s1 x s2| left as sin_phi = inf, so phi reads pi/2 and H is wrong",
        caught_by=(
            "tests/test_hamiltonian.py::TestOneRowPath::test_sin_phi_overflow_is_named",
            "tests/test_cli.py::TestEvaluate::test_sin_phi_overflow_exit_3",
        ),
    ),
    Mutation(
        name="one-state-libm-atan2",
        file="src/trireduce/geometry.py",
        old="arctan2=_on_float(np.arctan2),",
        new="arctan2=__import__('math').atan2,",
        reason="one state's float phi taken by libm's atan2, unlike numpy's on its row",
        caught_by=(
            "tests/test_hamiltonian.py::TestFloatStateSweep::test_every_state_is_its_batch_row",
        ),
    ),
    Mutation(
        name="float-walk-libm-pow",
        file="src/trireduce/geometry.py",
        old="    return np.power(a, (b,)).item()\n",
        new="    return a ** b\n",
        reason="the float walk's power taken by Python's **, libm's pow, unlike numpy's on its row",
        caught_by=tuple(
            f"tests/test_potential.py::TestFloatWalk::test_state_has_the_bits_of_the_column_walk[{key}]"
            for key in ("functions", "exponents", "variable_exponents", "shape")
        ),
    ),
    Mutation(
        name="float-walk-unguarded",
        file="src/trireduce/potential.py",
        old="    except (ArithmeticError, ValueError):\n        pass\n",
        new="    except ():\n        pass\n",
        reason="the float walk's ZeroDivisionError or ValueError raised to the caller, not sent to the column walk",
        caught_by=(
            *(
                f"tests/test_potential.py::TestFloatWalk::test_state_has_the_bits_of_the_column_walk[{key}]"
                for key in ("functions", "exponents", "variable_exponents", "shape", "domains")
            ),
            "tests/test_cli.py::TestSimulate::test_expression_overflow_exit_3",
        ),
    ),
    Mutation(
        name="float-probe-untested",
        file="src/trireduce/potential.py",
        old="{**vars(FLOATS), **{name: float(c)",
        new='{**vars(FLOATS), "finite": lambda v: True, **{name: float(c)',
        reason="one state's float walk never finds its probe or its derivatives not finite, so an overflow goes unnamed",
        caught_by=(
            *(
                "tests/test_potential.py::TestFloatWalk::"
                f"test_float_probe_names_an_overflow_that_V_hides[{key}]"
                for key in ("divisor", "exp-argument")
            ),
            *(
                f"tests/test_potential.py::TestFloatWalk::test_state_error_is_named_on_its_floats[{key}]"
                for key in ("log-derivative", "derivative-sum", "divisor", "exp-argument")
            ),
        ),
    ),
    Mutation(
        name="hook-skips-adjoints",
        file="src/trireduce/potential.py",
        old='if g_operand != "1.0":',
        new="if False:",
        reason="the walk's hook names the variable whose derivative is not finite without checking the adjoints",
        caught_by=tuple(
            f"tests/test_potential.py::TestForces::test_derivative_not_finite_names_node[{key}]"
            for key in ("sqrt(d12 - 1)-sqrt-0.0", "(d12 - 1) ^ 0.5-^-value1", "exp(d13) * sqrt(abs(d12 - 1))-sqrt-0.0")
        ),
    ),
    Mutation(
        name="walk-left-in-namespace",
        file="src/trireduce/potential.py",
        old='walks.append(namespace.pop("walk"))',
        new='walks.append(namespace["walk"])',
        reason="each walk left in its namespace, a cycle that keeps a dead spec's walks until a full collection",
        caught_by=("tests/test_potential.py::TestGeneratedWalk::test_dead_spec_is_freed_by_reference_counting",),
    ),
    Mutation(
        name="float-sin-unguarded",
        file="src/trireduce/geometry.py",
        old="sin=_on_float(np.sin, isfinite),",
        new="sin=_on_float(np.sin),",
        reason="one state's float sin called on inf, where numpy warns, not sent to the column walk",
        caught_by=(
            "tests/test_potential.py::TestFloatWalk::test_float_domain_edge_takes_the_column_walk[sin-of-inf]",
        ),
    ),
    Mutation(
        name="float-exp-bound-past-overflow",
        file="src/trireduce/geometry.py",
        old="exp=_on_float(np.exp, lambda a: a < 709.0),",
        new="exp=_on_float(np.exp, lambda a: a < 710.0),",
        reason="one state's float exp called past 709.78, where numpy overflows and warns",
        caught_by=(
            "tests/test_potential.py::TestFloatWalk::test_float_domain_edge_takes_the_column_walk[exp-overflow]",
        ),
    ),
    Mutation(
        name="float-power-bound-past-overflow",
        file="src/trireduce/geometry.py",
        old="abs(b * log(abs(a))) < 700.0",
        new="abs(b * log(abs(a))) < 720.0",
        reason="one state's float power called where |b ln a| passes 709.78, where numpy overflows and warns",
        caught_by=(
            "tests/test_potential.py::TestFloatWalk::test_float_domain_edge_takes_the_column_walk[power-overflow]",
        ),
    ),
    Mutation(
        name="loose-step-guard",
        file="src/trireduce/dynamics.py",
        old="FAST_GUARD = 0.99e12",
        new="FAST_GUARD = 1e15",
        reason="the step guard's fast bound raised past OVERFLOW_GUARD, so a step beyond it passes",
        caught_by=("tests/test_dynamics.py::TestIntegrate::test_blowup_guard",),
    ),
    Mutation(
        name="guard-on-recorded-steps-only",
        file="src/trireduce/dynamics.py",
        old="        if not hypot(x1, y1, z1, x2, y2, z2, x3, y3, z3,\n",
        new="        if k % stride == 0 and not hypot(x1, y1, z1, x2, y2, z2, x3, y3, z3,\n",
        reason="the leapfrog guards only the steps it records, so a blowup is named at a later step",
        caught_by=("tests/test_dynamics.py::TestIntegrate::test_blowup_guard",),
    ),
    Mutation(
        name="leapfrog-field-error-unguarded",
        file="src/trireduce/dynamics.py",
        old=(
            "            _check_guard([x1, y1, z1, x2, y2, z2, x3, y3, z3,\n"
            "                          u1, v1, w1, u2, v2, w2, u3, v3, w3], k)\n"
            "            raise\n"
        ),
        new="            raise\n",
        reason="the leapfrog re-raises the field's error at a drifted state past the guard, naming no step",
        caught_by=tuple(
            f"tests/test_dynamics.py::TestIntegrate::test_blowup_guard_before_a_field_error[{key}-leapfrog]"
            for key in ("sin-phi-overflow", "exp-domain", "expression-inf")
        ),
    ),
    Mutation(
        name="rk4-field-error-unguarded",
        file="src/trireduce/dynamics.py",
        old="            _check_guard(y, k)\n            raise\n",
        new="            raise\n",
        reason="an rk4 stage re-raises the field's error at a state past the guard, naming no step",
        caught_by=tuple(
            f"tests/test_dynamics.py::TestIntegrate::test_blowup_guard_before_a_field_error[{key}-rk4]"
            for key in ("sin-phi-overflow", "exp-domain", "expression-inf")
        ),
    ),
    Mutation(
        name="reassociated-kick",
        file="src/trireduce/dynamics.py",
        old="        a1, b1, c1 = h * (a1 / m1), h * (b1 / m1), h * (c1 / m1)\n",
        new="        a1, b1, c1 = (h * a1) / m1, h * (b1 / m1), h * (c1 / m1)\n",
        reason="the leapfrog's kick of body 1 taken as (h f) / m, which rounds unlike h (f / m)",
        caught_by=tuple(
            f"tests/test_dynamics.py::TestIntegrate::test_steps_match_reference_bitwise[unequal_masses-{run}]"
            for run in ("leapfrog", "leapfrog-stride7")
        ),
    ),
]


def run_tier1(directory, mutation=None):
    """Copy the checkout's tier-1 inputs to directory and run tier-1 there,
    or apply mutation and run its caught_by tests: (exit code, output,
    failed test ids)."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, directory / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, directory)
    tests = []
    if mutation is not None:
        path = directory / mutation.file
        text = path.read_text()
        assert text.count(mutation.old) == 1, f"{mutation.name}: old text must occur once"
        path.write_text(text.replace(mutation.old, mutation.new))
        tests = list(mutation.caught_by)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TRIREDUCE_LOG")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=directory, env=env, capture_output=True, text=True, timeout=900,
    )
    output = done.stdout + done.stderr
    # an id runs to the first space outside its brackets, which may hold spaces
    return done.returncode, output, re.findall(r"^FAILED ([^\s\[]+(?:\[[^\]]*\])?)", output, re.MULTILINE)


def test_unmutated_copy_passes(tmp_path):
    code, output, failed = run_tier1(tmp_path)
    assert "INTERNALERROR" not in output
    assert code == 0 and failed == [], output[-3000:]


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
def test_mutation_is_caught(tmp_path, mutation):
    code, output, failed = run_tier1(tmp_path, mutation)
    assert "INTERNALERROR" not in output
    assert code == 1, output[-3000:]
    assert set(failed) & set(mutation.caught_by), f"{mutation.reason}; failed: {failed}"
