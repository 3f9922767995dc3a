"""Batch command-line front end.

Subcommands: simulate, evaluate, collinear-report, check.  Configuration is
a JSON file; outputs are CSV with a fixed 17-significant-digit format so
repeated runs are bitwise identical.  Exit codes: 0 success, 1 check-suite
failure, 2 config error, 3 numerical failure, 4 I/O failure.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import astuple
from math import isfinite

import numpy as np

from . import checks
from .dynamics import (
    BAND_THRESHOLD,
    IntegratorConfig,
    conservation_report,
    detect_collinear_passages,
    integrate,
    total_energy,
)
from .errors import ConfigError, TrireduceError
from .geometry import (
    COLLINEAR_THRESHOLD,
    CartesianState,
    JacobiVectors,
    MassTriple,
    ShapeCoordinates,
    body_jacobi_vectors,
    cartesian_from_jacobi,
    jacobi_from_cartesian,
    spatial_angular_momentum,
)
from .hamiltonian import evaluate_reduced
from .potential import PotentialSpec, builtin_potential, parse_potential
from .reduction import BodyMomenta, body_velocities, velocities_from_momenta

log = logging.getLogger("trireduce")

TRAJECTORY_HEADER = (
    "t,x1x,x1y,x1z,x2x,x2y,x2z,x3x,x3y,x3z,"
    "r1,r2,phi,J1,J2,J3,p1,p2,p3,H_reduced,E_total,L_norm,branch"
)
EVALUATE_HEADER = (
    "r1,r2,phi,J1,J2,J3,p1,p2,p3,branch,H_reduced,E_total,L_norm,singular_term"
)
PASSAGES_HEADER = "t_minus,t_plus,t_star,sin_phi_min,H_before,H_at,H_after,delta_H"

# The collinear rule reports phi as 0 or pi and J, p in the bending frame.
# H equals the energy under either rule (V is taken at the measured phi),
# so this bound limits how far phi, J and p are snapped, not H.
MAX_COLLINEAR_THRESHOLD = 1e-6

# every trajectory column but the last (branch) is a number
TRAJECTORY_ROW = ",".join(["{:.17g}"] * TRAJECTORY_HEADER.count(",") + ["{}"])


def _fmt(x):
    return f"{float(x):.17g}"


def _row(values):
    return ",".join(_fmt(v) if not isinstance(v, str) else v for v in values)


# --------------------------------------------------------------------------
# Config parsing


def _require(cfg, field, path, types=None):
    if field not in cfg:
        raise ConfigError(f"{path}{field}", "missing")
    value = cfg[field]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{path}{field}", f"expected {types}")
    return value


def _parse_masses(cfg):
    raw = _require(cfg, "masses", "", list)
    if len(raw) != 3:
        raise ConfigError("masses", "expected exactly 3 entries")
    try:
        return MassTriple(*(float(v) for v in raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError("masses", str(exc))


def _parse_potential(cfg) -> PotentialSpec:
    raw = _require(cfg, "potential", "", dict)
    has_builtin = "builtin" in raw
    has_expr = "expression" in raw
    if has_builtin == has_expr:
        raise ConfigError("potential", "exactly one of builtin/expression required")
    if has_builtin:
        name = raw["builtin"]
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("potential.params", "expected an object")
        try:
            return builtin_potential(name, **params)
        except ValueError as exc:
            raise ConfigError("potential.builtin", str(exc))
    try:
        return parse_potential(raw["expression"])
    except TrireduceError as exc:
        raise ConfigError("potential.expression", str(exc))


def _number(raw, path):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected a number, got {raw!r}")
    if not isfinite(value):
        raise ConfigError(path, f"must be finite, got {value}")
    return value


def _vec3(raw, path):
    if not isinstance(raw, list) or len(raw) != 3:
        raise ConfigError(path, "expected a 3-vector")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(raw)])


def _parse_initial_state(cfg, masses) -> CartesianState:
    raw = _require(cfg, "initial_state", "", dict)
    has_cart = "cartesian" in raw
    has_shape = "shape" in raw
    if has_cart == has_shape:
        raise ConfigError(
            "initial_state", "exactly one of cartesian/shape required"
        )
    if has_cart:
        c = raw["cartesian"]
        pos = _require(c, "positions", "initial_state.cartesian.", list)
        vel = _require(c, "velocities", "initial_state.cartesian.", list)
        if len(pos) != 3 or len(vel) != 3:
            raise ConfigError(
                "initial_state.cartesian", "positions/velocities need 3 triples"
            )
        x = [_vec3(p, f"initial_state.cartesian.positions[{i}]") for i, p in enumerate(pos)]
        v = [_vec3(p, f"initial_state.cartesian.velocities[{i}]") for i, p in enumerate(vel)]
        return CartesianState(x[0], x[1], x[2], v[0], v[1], v[2])
    s = raw["shape"]
    path = "initial_state.shape."
    try:
        q = ShapeCoordinates(
            *(_number(_require(s, name, path), path + name) for name in ("r1", "r2", "phi"))
        )
    except ValueError as exc:
        raise ConfigError("initial_state.shape", str(exc))
    momenta = BodyMomenta(
        _vec3(_require(s, "J", path), path + "J"),
        _vec3(_require(s, "p", path), path + "p"),
    )
    # body frame taken as the space frame (R = identity convention)
    w = velocities_from_momenta(q, momenta)
    b1, b2 = body_jacobi_vectors(q)
    v1, v2 = body_velocities(q, w)
    return cartesian_from_jacobi(masses, JacobiVectors(b1, b2, v1, v2))


def _parse_integrator(cfg) -> IntegratorConfig:
    raw = cfg.get("integrator", {})
    if not isinstance(raw, dict):
        raise ConfigError("integrator", "expected an object")
    try:
        return IntegratorConfig(
            method=raw.get("method", "leapfrog"),
            dt=float(raw.get("dt", 1e-3)),
            steps=int(raw.get("steps", 1000)),
            record_stride=int(raw.get("record_stride", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("integrator", str(exc))


def _parse_thresholds(cfg):
    raw = cfg.get("thresholds", {})
    if not isinstance(raw, dict):
        raise ConfigError("thresholds", "expected an object")
    try:
        band = float(raw.get("band", BAND_THRESHOLD))
        thresholds = {
            "collinear": float(raw.get("collinear", COLLINEAR_THRESHOLD)),
            "band": band,
            "passage": float(raw.get("passage", band)),
        }
    except (TypeError, ValueError) as exc:
        raise ConfigError("thresholds", str(exc))
    for name, value in thresholds.items():
        upper = MAX_COLLINEAR_THRESHOLD if name == "collinear" else sys.float_info.max
        if not 0.0 <= value <= upper:
            raise ConfigError(f"thresholds.{name}", f"must lie in [0, {upper:g}], got {value}")
    return thresholds


class RunConfig:
    def __init__(self, raw):
        self.masses = _parse_masses(raw)
        self.potential = _parse_potential(raw)
        self.state = _parse_initial_state(raw, self.masses)
        self.integrator = _parse_integrator(raw)
        self.thresholds = _parse_thresholds(raw)
        out = raw.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError("output", "expected an object")
        self.output = out


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be an object")
    return RunConfig(raw)


# --------------------------------------------------------------------------
# Commands


def _write_lines(path, lines):
    try:
        if path is None or path == "-":
            sys.stdout.write("\n".join(lines) + "\n")
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        log.error("cannot write %s: %s", path, exc)
        return False
    return True


def _trajectory_lines(traj):
    n = len(traj)
    numbers = np.column_stack(
        [
            traj.t,
            traj.x.reshape(n, 9),
            traj.r1,
            traj.r2,
            traj.phi,
            traj.J,
            traj.p,
            traj.H_reduced,
            traj.E_total,
            np.linalg.norm(traj.L, axis=1),
        ]
    )
    rows = zip(numbers.tolist(), traj.branch.tolist())
    return [TRAJECTORY_HEADER] + [TRAJECTORY_ROW.format(*row, b) for row, b in rows]


def cmd_simulate(cfg: RunConfig, out_path):
    traj = integrate(
        cfg.masses,
        cfg.state,
        cfg.potential,
        cfg.integrator,
        collinear_threshold=cfg.thresholds["collinear"],
    )
    out = out_path or cfg.output.get("trajectory")
    if not _write_lines(out, _trajectory_lines(traj)):
        return 4
    rep = conservation_report(traj, band_threshold=cfg.thresholds["band"])
    log.info(
        "conservation: energy_drift_rel=%.3e L_drift_inf=%.3e "
        "tracking_outside_band=%.3e tracking_inside_band=%.3e degenerate_samples=%d",
        rep.energy_drift_rel,
        rep.L_drift_inf,
        rep.tracking_error_outside_band,
        rep.tracking_error_inside_band,
        rep.degenerate_samples,
    )
    return 0


def cmd_evaluate(cfg: RunConfig, out_path):
    ev = evaluate_reduced(
        cfg.masses,
        cfg.state,
        cfg.potential,
        collinear_threshold=cfg.thresholds["collinear"],
    )
    E = total_energy(cfg.masses, cfg.state, cfg.potential)
    L = spatial_angular_momentum(jacobi_from_cartesian(cfg.masses, cfg.state))
    values = [ev.q.r1, ev.q.r2, ev.q.phi]
    values += list(ev.momenta.J) + list(ev.momenta.p)
    values += [ev.branch, ev.H, E, float(np.linalg.norm(L)), ev.singular_term]
    lines = [EVALUATE_HEADER, _row(values)]
    if not _write_lines(out_path, lines):
        return 4
    return 0


def cmd_collinear_report(cfg: RunConfig, out_path):
    traj = integrate(
        cfg.masses,
        cfg.state,
        cfg.potential,
        cfg.integrator,
        collinear_threshold=cfg.thresholds["collinear"],
    )
    passages = detect_collinear_passages(traj, cfg.thresholds["passage"])
    # CollinearPassage's fields are the columns of PASSAGES_HEADER, in order
    lines = [PASSAGES_HEADER] + [_row(astuple(p)) for p in passages]
    out = out_path or cfg.output.get("passages")
    if not _write_lines(out, lines):
        return 4
    log.info("collinear passages detected: %d", len(passages))
    return 0


def cmd_check(seed):
    failures = 0
    for name, ok, detail in checks.run_all(seed=seed):
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# Entry point


def _setup_logging():
    level = os.environ.get("TRIREDUCE_LOG", "info").lower()
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.INFO), format="%(message)s")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trireduce",
        description="Reduced three-body dynamics: simulation, reduced-"
        "Hamiltonian evaluation and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "evaluate", "collinear-report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    p = sub.add_parser("check")
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args.seed)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except TrireduceError as exc:
        log.error("numerical failure: %s: %s", type(exc).__name__, exc)
        return 3
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.out)
        if args.command == "collinear-report":
            return cmd_collinear_report(cfg, args.out)
    except TrireduceError as exc:
        log.error("numerical failure: %s: %s", type(exc).__name__, exc)
        return 3
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
