"""The four benchmark workloads: inputs made from the seed, the timed runs
and the correctness checks.

An operation is one recorded trajectory sample or one ``evaluate_reduced``
call.  It fails if it raises, if H is not finite, or if
|H - E_cm| / max(1, |E_cm|) exceeds the north-star bound.  A nonzero CLI
exit code fails every operation of that CLI run.  Run-level checks (CSV
bytes identical across repeats and between traced and untraced runs,
accuracy tolerances, determinism) decide ``correct``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import cos, pi, sin
from pathlib import Path

import numpy as np

from trireduce import cli, hamiltonian
from trireduce.geometry import CartesianState, MassTriple
from trireduce.potential import builtin_potential

from tracer import COUNTS, Tracer, span_names

NORTH_STAR = 1e-10
HERE = Path(__file__).resolve().parent

TRAJECTORY_COMMANDS = {
    "record_dense": "simulate",
    "expr_sparse": "simulate",
    "figure8_report": "collinear-report",
}
WORKLOADS = (*TRAJECTORY_COMMANDS, "evaluate_mix")

# Accuracy tolerances of the trajectory workloads, about ten times what the
# seed measures; a breach fails the run.  passages_max bounds the passages
# a run can report: the figure-eight is collinear at t = kT/6, so one period
# holds at most 7 counting both ends.  The seed finds 0, a known failure
# rather than a breach.
TOLERANCES = {
    "record_dense": {"energy_drift_rel": 1e-3, "L_drift": 1e-12},
    "expr_sparse": {"energy_drift_rel": 1e-3, "L_drift": 1e-10},
    "figure8_report": {"energy_drift_rel": 1e-5, "L_drift": 1e-12, "passages_max": 7},
}

# Fixed work of a traced run, so that per-layer counts repeat exactly:
# CLI runs for trajectories, batches for evaluate_mix.
TRACE_REPEATS = {"record_dense": 5, "expr_sparse": 5, "figure8_report": 5, "evaluate_mix": 20}

# Fresh processes timed for setup_s, spread over the run.
SETUP_PROCESSES = 11

# Time of reference_loop() on a quiet 2.1 GHz Xeon; calibrated timings are
# expressed as if the machine ran the reference loop in this time.
REFERENCE_S = 0.010

BANDS = (
    "generic",
    "near_collinear",
    "sub_threshold",
    "collinear_3d",
    "collinear_planar",
    "zero_L",
)
# States per band in one evaluate_mix batch; every batch has equal shares.
PER_BAND = 50
# Batches in the seeded evaluate_mix pool: 3000 states, 500 per band.
POOL_BATCHES = 10

PAIRS = ((0, 1), (0, 2), (1, 2))

SETUP_TRAJECTORY = """\
import sys, time
t0 = time.perf_counter()
from trireduce import cli
cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""
SETUP_EVALUATE = """\
import time
t0 = time.perf_counter()
import trireduce
trireduce.builtin_potential("gravity", G=1.0)
print(time.perf_counter() - t0)
"""


def _harmonic_pair(d, mi, mj):
    return 0.5 * (d - 1.0) ** 2


def _gravity_pair(d, mi, mj):
    return -mi * mj / d


# The benchmark's own pair energies: the oracle does not call trireduce.
ORACLE_PAIR = {
    "record_dense": _harmonic_pair,
    "expr_sparse": _harmonic_pair,
    "figure8_report": _gravity_pair,
    "evaluate_mix": _gravity_pair,
}


def energy_cm(pair, masses, x, v):
    """Centre-of-mass energy from plain Cartesian sums."""
    m = np.asarray(masses, dtype=float)
    v_rel = v - m @ v / m.sum()
    kinetic = 0.5 * float(np.sum(m[:, None] * v_rel ** 2))
    return kinetic + sum(pair(float(np.linalg.norm(x[i] - x[j])), m[i], m[j]) for i, j in PAIRS)


def relative_error(H, E):
    return abs(H - E) / max(1.0, abs(E))


def op_failed(H, E):
    """The north-star rule for one operation (H is an exception if it raised)."""
    return bool(not isinstance(H, float) or not np.isfinite(H) or relative_error(H, E) > NORTH_STAR)


class Run:
    """What one benchmark run measured and checked."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.accuracy = {}
        self.info = {}
        self.metrics = {}

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    @property
    def correct(self):
        return all(self.checks.values())


def setup_time(snippet, arg, src):
    """Seconds a fresh process takes to import trireduce and run the snippet."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", snippet, arg],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def reference_loop():
    """Seconds taken by fixed work of the kind trireduce does: small numpy
    vector operations driven from Python.  It shares no code with
    trireduce, so no change to the program moves it."""
    a = np.array([1.0, 0.2, 0.3])
    b = np.array([0.1, 1.0, 0.5])
    start = time.perf_counter()
    for _ in range(400):
        c = np.cross(a, b)
        float(np.linalg.norm(c)) + float(np.dot(a, b))
        a = a + 1e-9 * c
    return time.perf_counter() - start


def timed_loop(seconds, repeat, setup):
    """Calls repeat() until `seconds` have passed, at least twice, and
    setup() SETUP_PROCESSES times spread evenly over the run.

    Other tenants of a shared machine slow it down in bursts of seconds to
    minutes, by up to 2.6x.  Each sample is therefore divided by the mean
    time of the reference loop run just before and just after it, and
    scaled by REFERENCE_S.  Returns the medians of the calibrated repeat and
    setup samples, and the raw samples.
    """
    start = time.perf_counter()
    before = reference_loop()
    raw = {"repeat": [], "setup": [], "reference": [before]}
    calibrated = {"repeat": [], "setup": []}

    def sample(kind, fn):
        nonlocal before
        value = fn()
        after = reference_loop()
        raw[kind].append(value)
        raw["reference"].append(after)
        calibrated[kind].append(value * REFERENCE_S / (0.5 * (before + after)))
        before = after

    while len(raw["repeat"]) < 2 or time.perf_counter() - start < seconds:
        sample("repeat", repeat)
        if len(raw["setup"]) * seconds < SETUP_PROCESSES * (time.perf_counter() - start):
            sample("setup", setup)
    while len(raw["setup"]) < SETUP_PROCESSES:
        sample("setup", setup)
    return statistics.median(calibrated["repeat"]), statistics.median(calibrated["setup"]), raw


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Trajectory workloads


def load_template(workload):
    return json.loads((HERE / "configs" / f"{workload}.json").read_text(encoding="utf-8"))


class _Capture:
    """Keeps the Trajectory the CLI integrates, for the per-sample checks."""

    def __init__(self):
        self.trajectories = []
        self._original = None

    def __enter__(self):
        self._original = original = cli.integrate

        def integrate(*args, **kwargs):
            traj = original(*args, **kwargs)
            self.trajectories.append(traj)
            return traj

        cli.integrate = integrate
        return self

    def __exit__(self, *exc):
        cli.integrate = self._original


def _trajectory_accuracy(traj, E0):
    E = np.array([s.E_total for s in traj.samples])
    H = np.array([s.H_reduced for s in traj.samples])
    L = np.array([s.L for s in traj.samples])
    rel = np.abs(H - E) / np.maximum(1.0, np.abs(E))
    finite = np.isfinite(rel)
    return {
        "energy_drift_rel": float(np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-300)),
        "L_drift": float(np.max(np.abs(L - L[0]))),
        "max_rel_H_err": float(np.max(rel[finite])) if finite.any() else float("nan"),
        "samples_excluded_nonfinite": int(np.count_nonzero(~finite)),
        "E0_oracle_err": relative_error(float(E[0]), E0),
    }


def run_trajectory(run, out_dir, seconds, src):
    name = run.workload
    raw = load_template(name)
    config_path = out_dir / f"{name}.config.json"
    config_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    csv_path = out_dir / f"{name}.csv"
    argv = [TRAJECTORY_COMMANDS[name], "--config", str(config_path), "--out", str(csv_path)]
    steps = raw["integrator"]["steps"]
    expected = steps // raw["integrator"]["record_stride"] + 1
    cart = raw["initial_state"]["cartesian"]
    E0 = energy_cm(ORACLE_PAIR[name], raw["masses"], np.array(cart["positions"]), np.array(cart["velocities"]))
    digests = []
    tol = TOLERANCES[name]

    def repeat(capture):
        """One CLI run.  The first one (the untimed warm-up) counts the
        operations and checks the accuracy; every later one must reproduce
        its CSV bytes, so `attempted` and `failed` do not depend on how many
        repeats fit in the run."""
        first = run.attempted == 0
        capture.trajectories.clear()
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        run.check("cli_exit_0", code == 0)
        if code != 0:
            if first:
                run.attempted = run.failed = expected
            return wall
        data = csv_path.read_bytes()
        digests.append(hashlib.sha256(data).hexdigest())
        traj = capture.trajectories.pop()
        if first:
            # E_total is the centre-of-mass energy, as the configs have zero
            # total momentum; its first value is checked against the oracle.
            run.attempted = expected
            run.failed = sum(op_failed(s.H_reduced, s.E_total) for s in traj.samples)
            run.failed += expected - len(traj)
            acc = _trajectory_accuracy(traj, E0)
            if name == "figure8_report":
                acc["passages"] = data.count(b"\n") - 1
            run.accuracy.update(acc)
            run.info["cli_summary"] = summary.getvalue().strip()
            run.info["bytes_out"] = len(data)
            run.check("E0_matches_oracle", acc["E0_oracle_err"] <= 1e-12)
            run.check("energy_drift_within_tol", acc["energy_drift_rel"] <= tol["energy_drift_rel"])
            run.check("L_drift_within_tol", acc["L_drift"] <= tol["L_drift"])
            if "passages_max" in tol:
                run.check("passages_within_bound", 0 <= acc["passages"] <= tol["passages_max"])
            else:
                run.check("csv_rows_match_samples", data.count(b"\n") - 1 == len(traj))
        return wall

    with _Capture() as capture:
        repeat(capture)  # warm-up: checked, not timed
    if not run.trace:
        with _Capture() as capture:
            op_us, setup_s, raw = timed_loop(
                seconds,
                lambda: repeat(capture) / steps * 1e6,
                lambda: setup_time(SETUP_TRAJECTORY, str(config_path), src),
            )
        run.metric("setup_s", setup_s, "s")
        run.metric("op_us", op_us, "us")
        run.metric("peak_rss_mb", peak_rss_mb(), "MB")
        run.info["steps_per_repeat"] = steps
        run.info["raw"] = raw
    else:
        # Untraced and traced CLI runs alternate, so that drift in the
        # machine's speed does not show as tracing overhead.
        tracer = Tracer()
        untraced = traced = 0.0
        for index in range(TRACE_REPEATS[name]):
            with _Capture() as capture:
                untraced += repeat(capture)
            tracer.run_id = index
            tracer.install()  # before the capture, so it wraps the traced integrate
            try:
                with _Capture() as capture:
                    traced += repeat(capture)
            finally:
                tracer.uninstall()
            tracer.counts["cli.bytes_out"] += csv_path.stat().st_size
        _per_layer(run, tracer, traced, untraced, out_dir)
    # Covers repeats and, in a traced run, traced against untraced output.
    run.check("csv_identical", len(set(digests)) == 1)


# --------------------------------------------------------------------------
# evaluate_mix


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _cartesian(m, s):
    """Bodies' positions (or velocities) from mass-weighted Jacobi vectors,
    centre of mass at rest at the origin: s1 spans bodies 1 and 3, s2 runs
    from their centre of mass to body 2."""
    m1, m2, m3 = m
    pair, total = m1 + m3, m1 + m2 + m3
    d = s[0] / np.sqrt(m1 * m3 / pair)
    e = s[1] / np.sqrt(m2 * pair / total)
    c13 = -m2 / total * e
    return np.array([c13 + m3 / pair * d, c13 + e, c13 - m1 / pair * d])


def band_state(rng, band):
    """One randomly rotated, zero-total-momentum state of a band:
    (masses, positions, velocities)."""
    m = rng.uniform(0.5, 2.0, size=3)
    r1, r2 = rng.uniform(0.5, 2.0, size=2)
    if band in ("collinear_3d", "collinear_planar"):
        s2 = np.array([rng.choice((-1.0, 1.0)) * r2, 0.0, 0.0])
    else:
        if band == "near_collinear":
            phi = 10.0 ** rng.uniform(-8.0, -3.0)
        elif band == "sub_threshold":
            phi = 10.0 ** rng.uniform(-12.0, -8.5)
        else:
            phi = rng.uniform(0.05, pi - 0.05)
        if band in ("near_collinear", "sub_threshold") and rng.random() < 0.5:
            phi = pi - phi
        s2 = r2 * np.array([cos(phi), sin(phi), 0.0])
    s = np.array([[r1, 0.0, 0.0], s2])
    sd = rng.normal(size=(2, 3))
    if band == "collinear_planar":
        sd[:, 2] = 0.0
    if band == "zero_L":
        L = np.cross(s[0], sd[0]) + np.cross(s[1], sd[1])
        inertia = sum(np.dot(a, a) * np.eye(3) - np.outer(a, a) for a in s)
        sd = sd - np.cross(np.linalg.solve(inertia, L), s)
    R = _rotation(rng)
    return m, _cartesian(m, s @ R.T), _cartesian(m, sd @ R.T)


def make_batch(rng):
    """PER_BAND states of every band, in seeded random order:
    [(band, MassTriple, CartesianState, E_cm)]."""
    batch = []
    for band in BANDS:
        for _ in range(PER_BAND):
            m, x, v = band_state(rng, band)
            E = energy_cm(_gravity_pair, m, x, v)
            batch.append((band, MassTriple(*m), CartesianState(*x, *v), E))
    return [batch[i] for i in rng.permutation(len(batch))]


def _evaluate_batch(batch, potential):
    """Times each evaluate_reduced call; returns [(H or exception, ns)]."""
    evaluate = hamiltonian.evaluate_reduced
    results = []
    for _, masses, state, _ in batch:
        start = time.perf_counter_ns()
        try:
            H = evaluate(masses, state, potential).H
        except Exception as exc:  # a raising evaluation is a failed operation
            H = exc
        results.append((H, time.perf_counter_ns() - start))
    return results


def _timed_s(runs):
    return sum(ns for results in runs for _, ns in results) / 1e9


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return type(a) is type(b)


def run_evaluate_mix(run, out_dir, seconds, src):
    """The seed makes a fixed pool of POOL_BATCHES batches.  One untimed
    pass over the pool counts the operations; the timed (or traced) passes
    cycle over the same pool and must reproduce the first pass bit for bit,
    so `attempted` and `failed` do not depend on how many batches fit in
    the run."""
    rng = np.random.default_rng(run.seed)
    potential = builtin_potential("gravity", G=1.0)
    pool = [make_batch(rng) for _ in range(POOL_BATCHES)]
    first = [_evaluate_batch(batch, potential) for batch in pool]
    bands = {band: {"attempted": 0, "failed": 0, "raised": 0, "max_rel_err": 0.0} for band in BANDS}
    for batch, results in zip(pool, first):
        for (band, _, _, E), (H, _) in zip(batch, results):
            row = bands[band]
            row["attempted"] += 1
            if isinstance(H, Exception):
                row["raised"] += 1
            elif np.isfinite(H):
                row["max_rel_err"] = max(row["max_rel_err"], relative_error(H, E))
            row["failed"] += op_failed(H, E)

    def evaluate(index):
        index %= len(pool)
        results = _evaluate_batch(pool[index], potential)
        run.check("evaluation_deterministic", all(_same(a[0], b[0]) for a, b in zip(first[index], results)))
        return results

    if not run.trace:
        latencies_ns = []
        indices = itertools.count()

        def repeat():
            results = evaluate(next(indices))
            latencies_ns.extend(ns for _, ns in results)
            return sum(ns for _, ns in results) / len(results) / 1e3

        op_us, setup_s, raw = timed_loop(seconds, repeat, lambda: setup_time(SETUP_EVALUATE, "", src))
        run.metric("setup_s", setup_s, "s")
        run.metric("op_us", op_us, "us")
        run.metric("peak_rss_mb", peak_rss_mb(), "MB")
        lat = sorted(latencies_ns)
        run.info["eval_us_p50"] = statistics.median(lat) / 1e3
        run.info["eval_us_p99"] = statistics.quantiles(lat, n=100)[98] / 1e3
        run.info["eval_samples"] = len(lat)
        run.info["raw"] = raw
        run.info["batch_size"] = PER_BAND * len(BANDS)
    else:
        # Untraced and traced passes alternate, so that drift in the
        # machine's speed does not show as tracing overhead.
        plain, traced = [], []
        tracer = Tracer()
        for index in range(TRACE_REPEATS["evaluate_mix"]):
            plain.append(evaluate(index))
            tracer.run_id = index
            tracer.install()
            try:
                traced.append(evaluate(index))
            finally:
                tracer.uninstall()
        _per_layer(run, tracer, _timed_s(traced), _timed_s(plain), out_dir)
    run.attempted = sum(row["attempted"] for row in bands.values())
    run.failed = sum(row["failed"] for row in bands.values())
    run.accuracy["max_rel_H_err"] = max(row["max_rel_err"] for row in bands.values())
    run.info["bands"] = bands


# --------------------------------------------------------------------------
# Per-layer table


def _per_layer(run, tracer, traced_s, untraced_s, out_dir):
    table = tracer.per_span()
    self_total_ns = 0
    for name in span_names():
        calls, total_ns, self_ns = table.get(name, (0, 0, 0))
        self_total_ns += self_ns
        run.metric(f"{name}.calls", calls, "count")
        run.metric(f"{name}.self_s", self_ns / 1e9, "s")
        run.metric(f"{name}.us_per_call", total_ns / calls / 1e3 if calls else 0.0, "us")
    for name in COUNTS:
        run.metric(name, tracer.counts[name], "count")
    unspanned_s = traced_s - tracer.root_ns() / 1e9
    run.metric("trace.wall_s", traced_s, "s")
    run.metric("trace.self_sum_s", self_total_ns / 1e9, "s")
    run.metric("trace.unspanned_s", unspanned_s, "s")
    run.metric("trace.overhead_s", traced_s - untraced_s, "s")
    run.metric("trace.spans", len(tracer.spans), "count")
    run.metric("trace.absent_points", len(tracer.absent), "count")
    run.info["absent_span_points"] = tracer.absent
    run.info["untraced_wall_s"] = untraced_s
    spans_path = out_dir / f"spans-{run.workload}.csv"
    tracer.write(spans_path)
    run.info["spans_file"] = str(spans_path)


def run_workload(workload, seed, seconds, trace, out_dir, src):
    run = Run(workload, seed, trace)
    if workload == "evaluate_mix":
        run_evaluate_mix(run, out_dir, seconds, src)
    else:
        run_trajectory(run, out_dir, seconds, src)
    return run
