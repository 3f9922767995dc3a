"""Acceptance gate: one test per advertised guarantee, each printing a
single PASS/FAIL line with the measured numbers."""

import sys

import numpy as np

from trireduce import checks
from trireduce.dynamics import (
    IntegratorConfig,
    conservation_report,
    detect_collinear_passages,
    integrate,
)
from trireduce.geometry import CartesianState, MassTriple
from trireduce.potential import builtin_potential

SEED = checks.DEFAULT_SEED


def report(label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"{label}: {detail}"


def test_criterion_1_so3():
    ok, detail = checks.suite_so3(seed=SEED, n=10_000)
    report("criterion 1 (rotation matrices are in SO(3))", ok, detail)


def test_criterion_2_tensor_oracle():
    ok, detail = checks.suite_tensor_oracle(seed=SEED, n=1000)
    report("criterion 2 (closed-form tensors match brute force)", ok, detail)


def test_criterion_3_energy_identity():
    ok, detail = checks.suite_energy_identity(seed=SEED, n=1000)
    report("criterion 3 (reduced Hamiltonian equals Cartesian energy)", ok, detail)


def test_criterion_4_collinear_limit():
    ok, detail = checks.suite_collinear_limit(seed=SEED)
    report("criterion 4 (second-order approach to the collinear value)", ok, detail)


def test_criterion_5_singular_term():
    ok, detail = checks.suite_singular_term(seed=SEED, n=100)
    report("criterion 5 (singular term finite and exact)", ok, detail)


def test_criterion_6_trajectory_conservation():
    masses, potential, state = checks._harmonic_setup()
    drifts = []
    L_rel = None
    tracking = None
    # the window [0, 40] keeps all pair distances well away from zero,
    # where the harmonic force direction is nonsmooth
    for dt, steps in [(0.004, 10_000), (0.002, 20_000)]:
        cfg = IntegratorConfig(method="leapfrog", dt=dt, steps=steps, record_stride=10)
        traj = integrate(masses, state, potential, cfg)
        rep = conservation_report(traj)
        drifts.append(rep.energy_drift_rel)
        if L_rel is None:
            L_rel = rep.L_drift_inf / np.linalg.norm(traj.L[0])
            tracking = rep.tracking_error_outside_band
    ratio = drifts[0] / drifts[1]

    # constructed crossing: free motion, third particle crosses the line
    free = builtin_potential("free")
    z = np.zeros(3)
    crossing = CartesianState(
        np.array([0.0, 0.0, 1.0]),
        np.array([-0.5, 0.0, 0.3]),
        np.array([0.0, 0.0, -1.0]),
        z,
        np.array([1.0, 0.0, 0.0]),
        z,
    )
    traj = integrate(
        MassTriple(1.0, 1.0, 1.0), crossing, free, IntegratorConfig(dt=0.01, steps=100)
    )
    passages = detect_collinear_passages(traj, threshold=0.5)
    delta_rel = (
        np.max(passages.delta_H / np.abs(passages.H_at)) if len(passages) else np.inf
    )

    ok = (
        L_rel < 1e-10
        and 3.0 <= ratio <= 5.0
        and tracking < 1e-8
        and len(passages) >= 1
        and delta_rel < 1e-6
    )
    report(
        "criterion 6 (trajectory conservation and collinear passage)",
        ok,
        f"relative L drift {L_rel:.3e} (tol 1e-10), dt-halving drift ratio "
        f"{ratio:.2f} (in [3, 5]), H-vs-E tracking {tracking:.3e} (tol 1e-8), "
        f"{len(passages)} passage(s) with max |dH|/|H| {delta_rel:.3e} (tol 1e-6)",
    )


def test_criterion_7_equivariance():
    rng = np.random.default_rng(SEED)
    masses, potential, state = checks._harmonic_setup()
    cfg = IntegratorConfig(dt=0.01, steps=1000, record_stride=10)
    base = integrate(masses, state, potential, cfg)
    worst_shape, worst_H = 0.0, 0.0
    for _ in range(5):
        Q = checks.random_rotation(rng)
        rotated = CartesianState(
            Q @ state.x1, Q @ state.x2, Q @ state.x3,
            Q @ state.v1, Q @ state.v2, Q @ state.v3,
        )
        other = integrate(masses, rotated, potential, cfg)
        shape_dev = [np.abs(getattr(base, k) - getattr(other, k)) for k in ("r1", "r2", "phi")]
        worst_shape = max(worst_shape, *(float(np.max(d)) for d in shape_dev))
        worst_H = max(worst_H, float(np.max(np.abs(base.H_reduced - other.H_reduced))))
    ok = worst_shape < 1e-9 and worst_H < 1e-10
    report(
        "criterion 7 (rotation equivariance of reduced series)",
        ok,
        f"max shape deviation {worst_shape:.3e} (tol 1e-9), "
        f"max H deviation {worst_H:.3e} (tol 1e-10)",
    )


def test_criterion_8_parser():
    assert len(checks.GOLDEN_EXPRESSIONS) == 51
    ok, detail = checks.suite_parser(seed=SEED, n_configs=40)
    report("criterion 8 (potential parser and forces)", ok, detail)
