"""Named property suites behind the `check` command.

Each suite re-derives its expected values from an independent route
(brute-force assembly, finite differences, Cartesian oracle) and compares
against the closed forms.
"""

from math import pi, sin

import numpy as np

from .dynamics import IntegratorConfig, conservation_report, integrate, total_energy
from .geometry import (
    CartesianState,
    MassTriple,
    body_frames,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    frame_matrices,
    shape_to_distances,
)
from .hamiltonian import reduced_hamiltonian, singular_term
from .potential import (
    builtin_potential,
    eval_potential_batch,
    force_field,
    parse_potential,
    potential_at_positions,
)
from .reduction import (
    body_angular_momentum,
    body_velocities,
    gauge_potential,
    horizontal_metric,
    inertia_inverse,
    inertia_tensor,
    kinetic_energy_body,
    mechanical_connection,
    shape_momenta,
    shape_partials,
    velocities_from_momenta,
)

DEFAULT_SEED = 20260824


def random_rotation(rng):
    qa = rng.normal(size=4)
    qa /= np.linalg.norm(qa)
    w, x, y, z = qa
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_shape(rng, phi_min=0.05):
    """A seeded shape (r1, r2, phi) of floats."""
    return rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(phi_min, pi - phi_min)


def random_body_state(rng):
    """A body angular velocity and shape rates, (omega, qdot)."""
    return rng.normal(size=3), rng.normal(size=3)


def brute_inertia(q):
    """The inertia tensor of the shape q = (r1, r2, phi), from cross products."""
    b1, b2 = body_jacobi_vectors(*q)
    I = np.zeros((3, 3))
    for k, e in enumerate(np.eye(3)):
        I[:, k] = np.cross(b1, np.cross(e, b1)) + np.cross(b2, np.cross(e, b2))
    return I


def brute_gauge(q):
    """The gauge potential of the shape q, from cross products."""
    b = body_jacobi_vectors(*q)
    d = shape_partials(*q)
    return np.array(
        [np.cross(b[0], d[0, mu]) + np.cross(b[1], d[1, mu]) for mu in range(3)]
    )


def matrix_form_hamiltonian(q, J, p, V):
    """Reduced Hamiltonian assembled from the tensor definitions (the
    independent route checked against the finite closed form)."""
    I_inv = inertia_inverse(*q)
    A = mechanical_connection(*q)
    _, g_inv = horizontal_metric(*q)
    shifted = p - A @ J
    return float(0.5 * J @ I_inv @ J + 0.5 * shifted @ g_inv @ shifted + V)


# --------------------------------------------------------------------------
# Suites.  Each returns (ok, detail).


def suite_so3(seed=DEFAULT_SEED, n=2000):
    """The body frames of n seeded, randomly rotated states are rotations
    with u1 = s1 / r1.  Row k belongs to family k % 5: generic,
    near-collinear (sin phi down to 1e-16), exactly collinear with bending,
    exactly collinear at rest (the fixed-perpendicular fallback) and
    exactly collinear with rates parallel to s1."""
    rng = np.random.default_rng(seed)
    tol = 1e-12
    family = np.arange(n) % 5
    r1, r2 = rng.uniform(0.1, 3.0, size=(2, n))
    near = np.arcsin(10.0 ** rng.uniform(-16.0, -2.0, n))
    phi = np.select([family == 0, family == 1], [rng.uniform(0.0, pi, n), near], 0.0)
    phi = np.where((rng.integers(0, 2, n) == 1) & (family > 0), pi - phi, phi)
    rates = rng.normal(size=(2, n, 3))
    rates[:, family == 3] = 0.0
    rates[:, family == 4, 1:] = 0.0
    # the shapes in the reference frame (s2 exactly on the line from family
    # 2 on), then rotated row by row
    s = np.zeros((2, n, 3))
    s[0, :, 0], s[1, :, 0] = r1, r2 * np.cos(phi)
    s[1, :, 1] = np.where(family < 2, r2 * np.sin(phi), 0.0)
    Q = np.array([random_rotation(rng) for _ in range(n)])
    s1, s2, sd1, sd2 = np.einsum("kij,akj->aki", Q, np.concatenate([s, rates]))
    axes = frame_matrices(body_frames(s1, s2, sd1, sd2)[0])
    worst = max(
        float(np.max(np.abs(axes @ axes.transpose(0, 2, 1) - np.eye(3)))),
        float(np.max(np.abs(np.linalg.det(axes) - 1.0))),
        float(np.max(np.abs(axes[:, 0] - s1 / np.linalg.norm(s1, axis=1)[:, None]))),
    )
    return worst < tol, f"max residual {worst:.3e} over {n} frames (tol {tol:.1e})"


def suite_equivariance(seed=DEFAULT_SEED, n=200):
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    for _ in range(n):
        rows = rng.normal(size=(4, 3))
        Q = random_rotation(rng)
        axes, *q = body_frames(*rows)[:4]
        axes_q, *qq = body_frames(*(rows @ Q.T))[:4]
        worst = max(
            worst,
            float(np.max(np.abs(np.subtract(q, qq)))),
            float(np.max(np.abs(frame_matrices(axes_q).T - Q @ frame_matrices(axes).T))),
        )
    return worst < tol, f"max deviation {worst:.3e} (tol {tol:.1e})"


def suite_tensor_oracle(seed=DEFAULT_SEED, n=300):
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst = 0.0
    for _ in range(n):
        q = random_shape(rng, phi_min=1.1e-3)
        I = inertia_tensor(*q)
        a = gauge_potential(*q)
        A = mechanical_connection(*q)
        g, g_inv = horizontal_metric(*q)
        I_inv = inertia_inverse(*q)
        h = np.diag([1.0, 1.0, q[1] * q[1]])
        A_brute = np.linalg.inv(I) @ brute_gauge(q).T
        g_brute = h - A_brute.T @ I @ A_brute

        def mismatch(closed, brute):
            # relative to the matrix magnitude: the inertia inverse has
            # O(1/sin^2 phi) entries near the band edge
            scale = max(1.0, float(np.max(np.abs(brute))))
            return float(np.max(np.abs(closed - brute))) / scale

        worst = max(
            worst,
            mismatch(I, brute_inertia(q)),
            mismatch(I_inv, np.linalg.inv(I)),
            mismatch(a, brute_gauge(q)),
            mismatch(A, A_brute.T),
            mismatch(g, g_brute),
            mismatch(g_inv, np.linalg.inv(g_brute)),
        )
    return worst < tol, f"max tensor mismatch {worst:.3e} (tol {tol:.1e})"


def suite_energy_identity(seed=DEFAULT_SEED, n=300):
    rng = np.random.default_rng(seed)
    tol_rel = 1e-10
    tol_matrix = 1e-12
    masses = MassTriple(1.0, 1.5, 2.0)
    potential = builtin_potential("harmonic", k=0.7)
    worst_rel, worst_matrix = 0.0, 0.0
    for _ in range(n):
        q = random_shape(rng)
        omega, qdot = random_body_state(rng)
        J, p = shape_momenta(*q, omega, qdot)
        row = np.array([[*q, *shape_to_distances(masses, *q)]])
        V = float(eval_potential_batch(potential, masses, *row.T)[0])
        T = singular_term(*q, omega)
        H = reduced_hamiltonian(*q, J, p, T, V)
        b1, b2 = body_jacobi_vectors(*q)
        state = cartesian_from_jacobi(masses, b1, b2, *body_velocities(*q, omega, qdot))
        E = total_energy(masses, state, potential)
        scale = max(abs(E), 1.0)
        worst_rel = max(worst_rel, abs(H - E) / scale)
        worst_matrix = max(
            worst_matrix, abs(H - matrix_form_hamiltonian(q, J, p, V)) / scale
        )
    ok = worst_rel < tol_rel and worst_matrix < tol_matrix
    return ok, (
        f"max |H - E|/|E| {worst_rel:.3e} (tol {tol_rel:.1e}), "
        f"matrix-vs-finite {worst_matrix:.3e} (tol {tol_matrix:.1e})"
    )


def suite_collinear_limit(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    tol_h0 = 1e-12
    r1, r2 = 1.3, 0.8
    w3, q3dot = rng.normal(), rng.normal()
    qdot = np.array([rng.normal(), rng.normal(), q3dot])
    omega = np.array([rng.normal(), 0.0, w3])
    phis = [10.0 ** (-k) for k in range(1, 7)]

    def H(phi):
        J, p = shape_momenta(r1, r2, phi, omega, qdot)
        return reduced_hamiltonian(r1, r2, phi, J, p, singular_term(r1, r2, phi, omega), 0.0)

    H0 = H(0.0)
    K0 = kinetic_energy_body(r1, r2, 0.0, np.array([0.0, 0.0, w3]), qdot)
    # fit only the differences above the rounding of H: below it, c phi^2
    # for a small c rounds to noise or to 0, whose log is -inf
    floor = 64.0 * np.finfo(float).eps * abs(H0)
    fitted = [(phi, diff) for phi in phis if (diff := abs(H(phi) - H0)) > floor]
    if len(fitted) < 3:
        return False, f"{len(fitted)} of {len(phis)} differences above the rounding of H (need 3)"
    phis, diffs = np.transpose(fitted)
    slope = np.polyfit(np.log(phis), np.log(diffs), 1)[0]
    monotone = all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))
    ok = monotone and 1.8 <= slope <= 2.2 and abs(H0 - K0) < tol_h0
    return ok, (f"log-log slope {slope:.3f} over {len(phis)} phi, "
                f"|H(0) - K(0)| {abs(H0 - K0):.3e} (tol {tol_h0:.1e})")


def suite_singular_term(seed=DEFAULT_SEED, n=100):
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    for _ in range(n):
        r2 = rng.uniform(0.2, 2.0)
        omega = rng.normal(size=3)
        if singular_term(1.0, r2, 0.0, omega) != -(r2 * r2) * omega[1]:
            return False, "phi = 0 value is not exactly -r2^2 w2"
        phi = rng.uniform(0.15, pi - 0.15)
        J1 = body_angular_momentum(1.0, r2, phi, omega, np.zeros(3))[0]
        worst = max(worst, abs(singular_term(1.0, r2, phi, omega) - J1 / sin(phi)))
    return worst < tol, f"max |term - J1/sin(phi)| {worst:.3e} (tol {tol:.1e})"


def suite_legendre_roundtrip(seed=DEFAULT_SEED, n=200):
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst = 0.0
    for _ in range(n):
        q = random_shape(rng)
        omega, qdot = random_body_state(rng)
        back_omega, back_qdot = velocities_from_momenta(*q, *shape_momenta(*q, omega, qdot))
        worst = max(
            worst,
            float(np.max(np.abs(back_omega - omega))),
            float(np.max(np.abs(back_qdot - qdot))),
        )
    return worst < tol, f"max round-trip error {worst:.3e} (tol {tol:.1e})"


def _harmonic_setup():
    masses = MassTriple(1.0, 1.0, 1.0)
    potential = builtin_potential("harmonic", k=1.0, rest_length=1.0)
    state = CartesianState(
        np.array([1.1, 0.0, 0.0]),
        np.array([-0.4, 0.9, 0.1]),
        np.array([-0.7, -0.6, 0.0]),
        np.array([0.0, 0.3, 0.0]),
        np.array([0.1, -0.2, 0.05]),
        np.array([-0.1, -0.1, -0.05]),
    )
    return masses, potential, state


def suite_trajectory_conservation(seed=DEFAULT_SEED):
    masses, potential, state = _harmonic_setup()
    cfg = IntegratorConfig(method="leapfrog", dt=0.01, steps=2000, record_stride=10)
    traj = integrate(masses, state, potential, cfg)
    rep = conservation_report(traj)
    L0 = np.linalg.norm(traj.L[0])
    L_rel = rep.L_drift_inf / L0
    ok = L_rel < 1e-10 and rep.tracking_error_outside_band < 1e-8
    return ok, (
        f"relative L drift {L_rel:.3e} (tol 1.0e-10), "
        f"H-vs-E tracking {rep.tracking_error_outside_band:.3e} (tol 1.0e-08)"
    )


GOLDEN_EXPRESSIONS = [
    "r1",
    "r2",
    "phi",
    "d12",
    "d13",
    "d23",
    "r1 + r2",
    "r1 - r2",
    "r1 * r2",
    "r1 / r2",
    "r1 ^ 2",
    "r1 ^ 2 + r2 ^ 2",
    "-r1",
    "-(r1 + r2)",
    "-1 / d12 - 1 / d13 - 1 / d23",
    "2 * r1 ^ 2 * sin(phi)",
    "sin(phi) ^ 2 + cos(phi) ^ 2",
    "sqrt(r1 ^ 2 + r2 ^ 2)",
    "exp(-r1)",
    "exp(-(d12 - 1) ^ 2)",
    "log(r1 + 1)",
    "abs(cos(phi))",
    "r1 ^ 2 ^ 3",
    "(r1 ^ 2) ^ 3",
    "r1 ^ -2",
    "1 / (1 + d12)",
    "0.5 * (d12 - 1) ^ 2",
    "0.5 * (d13 - 1) ^ 2 + 0.5 * (d23 - 1) ^ 2",
    "3.25e-2 * r1",
    "1e3 / d13",
    "pi * r2",
    "e ^ r1",
    "r1 * (r2 + phi)",
    "(r1 + r2) * phi",
    "r1 - r2 - phi",
    "r1 - (r2 - phi)",
    "r1 / r2 / 2",
    "r1 / (r2 / 2)",
    "-r1 ^ 2",
    "(-r1) ^ 2",
    "sin(cos(phi))",
    "sqrt(abs(r1 - r2))",
    "4 * ((1 / d12) ^ 12 - (1 / d12) ^ 6)",
    "d12 ^ 2 + d13 ^ 2 + d23 ^ 2",
    "1 / sqrt(d12 ^ 2 + 0.01)",
    "r2 ^ 2 * sin(phi) ^ 2",
    "2 ^ 2 ^ 2",
    "cos(2 * phi)",
    "exp(r1) * exp(-r1)",
    "r1 + r2 + phi + d12 + d13 + d23",
    # domain operations that V need not pass on where they are not finite:
    # under a divisor and inside one
    "d13 / sqrt(d23) + 1 / (1 + exp(-d12))",
]


# expressions whose forces suite_parser checks: the built-ins at masses
# (1, 2, 3) with default parameters, written as trees, and one through phi
FORCE_EXPRESSIONS = [
    "-2/d12 - 3/d13 - 6/d23",
    "0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2",
    " + ".join(f"4*((1/{d})^12 - (1/{d})^6)" for d in ("d12", "d13", "d23")),
    "sin(phi)*d12 + r1/d23 + 0.3*cos(phi)^2*r2",
]


def suite_parser(seed=DEFAULT_SEED, n_configs=30):
    rng = np.random.default_rng(seed)
    masses = MassTriple(1.0, 2.0, 3.0)
    # the built-ins, their twins as expressions (masses folded in) and an
    # expression through r1, r2 and phi
    specs = [builtin_potential(name) for name in ("gravity", "harmonic", "lennard_jones")]
    specs += [parse_potential(text) for text in FORCE_EXPRESSIONS]
    step = 1e-4
    # fourth-order central stencil: offsets 2h, h, -h, -2h of each coordinate
    offsets = np.kron(np.eye(9), [[2.0], [1.0], [-1.0], [-2.0]]).reshape(36, 3, 3) * step
    weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12 * step)
    worst_grad, worst_inv = 0.0, 0.0
    for spec in specs:
        field = force_field(spec, masses)
        for _ in range(n_configs):
            pos = rng.uniform(-1.5, 1.5, size=(3, 3))
            if min(np.linalg.norm(pos[i] - pos[k]) for i, k in [(0, 1), (0, 2), (1, 2)]) < 0.5:
                continue
            F = np.reshape(field(pos.ravel().tolist()), (3, 3))
            fd = -(potential_at_positions(spec, masses, pos + offsets).reshape(9, 4) @ weights)
            scale = np.maximum(np.abs(fd), 1.0)
            worst_grad = max(worst_grad, float(np.max(np.abs(F.ravel() - fd) / scale)))
            com = (masses.as_array()[:, None] * pos).sum(axis=0) / masses.total
            torque = np.sum(np.cross(pos - com, F), axis=0)
            worst_inv = max(
                worst_inv,
                float(np.max(np.abs(F.sum(axis=0)))),
                float(np.max(np.abs(torque))),
            )
    # every expression on a batch of shapes equals it row by row, bit for bit
    r1, r2, phi = np.array([random_shape(rng) for _ in range(n_configs)]).T
    columns = np.array([r1, r2, phi, *shape_to_distances(masses, r1, r2, phi)])
    for text in GOLDEN_EXPRESSIONS:
        spec = parse_potential(text)
        batch = eval_potential_batch(spec, masses, *columns)
        rows = [eval_potential_batch(spec, masses, *columns[:, i : i + 1]) for i in range(len(r1))]
        if batch.tobytes() != np.concatenate(rows).tobytes():
            return False, f"batch value differs from row-by-row value for {text!r}"
    ok = worst_grad < 1e-6 and worst_inv < 1e-10
    return ok, (
        f"max gradient mismatch {worst_grad:.3e} (tol 1.0e-06), "
        f"max force/torque residual {worst_inv:.3e} (tol 1.0e-10), "
        f"batch = row by row on {len(r1)} shapes"
    )


SUITES = [
    ("so3", suite_so3),
    ("equivariance", suite_equivariance),
    ("tensor_oracle", suite_tensor_oracle),
    ("energy_identity", suite_energy_identity),
    ("collinear_limit", suite_collinear_limit),
    ("singular_term", suite_singular_term),
    ("legendre_roundtrip", suite_legendre_roundtrip),
    ("trajectory_conservation", suite_trajectory_conservation),
    ("parser", suite_parser),
]


def run_all(seed=DEFAULT_SEED):
    """Run every suite; yields (name, ok, detail)."""
    for name, fn in SUITES:
        try:
            ok, detail = fn(seed=seed)
        except Exception as exc:  # a crashing suite is a failing suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, ok, detail
