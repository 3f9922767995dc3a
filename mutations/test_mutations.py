"""A seeded mutation gate: each entry breaks the program the way a past
change could have, and tier-1 must catch it by a test the entry names.

Run from the repository root with

    python -m pytest -q mutations

It is not part of tier-1 (pyproject's testpaths is tests).  Each case
copies src/, tests/, pyproject.toml and README.md (which tier-1 reads) to
a temporary directory, applies one entry there and runs tier-1 on the copy
in a fresh interpreter; the case with no entry must pass.  A case takes
about as long as tier-1.
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
        old="    if np.count_nonzero(planar) < planar.size:\n",
        new=(
            "    if np.count_nonzero(planar) < planar.size:\n"
            "        phi = np.where(planar, phi, np.where(dot >= 0.0, 0.0, np.pi))\n"
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
        name="power-base-covered",
        file="src/trireduce/potential.py",
        old='"^": (False, False)}',
        new='"^": (True, False)}',
        reason="the base of '^' taken as passing on a value that is not finite under any exponent",
        caught_by=(
            *(
                "tests/test_potential.py::TestGeneratedWalk::"
                f"test_probe_names_an_error_that_V_hides[base-{exponent}-exponent]"
                for exponent in ("variable", "negative", "zero")
            ),
            # hypothesis properties: they catch it on some draws
            "tests/test_potential.py::TestGeneratedWalk::test_walk_keeps_the_reference_bits",
            "tests/test_potential.py::TestEval::test_rows_are_independent",
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
        old="if spec.builtin is not None and 0.0 not in d:",
        new="if spec.builtin is not None:",
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
        old="    if not (isfinite(sin_phi) if sin_phi.ndim == 0 else np.isfinite(sin_phi).all()):\n",
        new="    if False:\n",
        reason="an overflowing |s1 x s2| left as sin_phi = inf, so phi reads pi/2 and H is wrong",
        caught_by=(
            "tests/test_hamiltonian.py::TestOneRowPath::test_sin_phi_overflow_is_named",
            "tests/test_cli.py::TestEvaluate::test_sin_phi_overflow_exit_3",
        ),
    ),
    Mutation(
        name="loose-step-guard",
        file="src/trireduce/dynamics.py",
        old="if not hypot(*y) < 0.99e12:",
        new="if not hypot(*y) < 1e15:",
        reason="the step guard's fast bound raised past OVERFLOW_GUARD, so a step beyond it passes",
        caught_by=("tests/test_dynamics.py::TestIntegrate::test_blowup_guard",),
    ),
]


def run_tier1(directory, mutation=None):
    """Copy the checkout's tier-1 inputs to directory, apply mutation and
    run tier-1 there: (exit code, output, failed test ids)."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, directory / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, directory)
    if mutation is not None:
        path = directory / mutation.file
        text = path.read_text()
        assert text.count(mutation.old) == 1, f"{mutation.name}: old text must occur once"
        path.write_text(text.replace(mutation.old, mutation.new))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TRIREDUCE_LOG")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"],
        cwd=directory, env=env, capture_output=True, text=True, timeout=900,
    )
    output = done.stdout + done.stderr
    return done.returncode, output, re.findall(r"^FAILED (\S+)", output, re.MULTILINE)


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
