"""Batch command-line front end.

Subcommands: simulate, evaluate, collinear-report, check.  Configuration is
a JSON file; outputs are CSV with a fixed 17-significant-digit format so
repeated runs are bitwise identical.  An existing output file is written in
place and cut to length, keeping its inode, mode and links: a re-run that
truncated it first would wait for ext4 to write back the last run's bytes.
Nothing is fsynced.  Exit codes: 0 success, 1 check-suite failure, 2 config
error, 3 numerical failure, 4 I/O failure.
"""

import argparse
import json
import logging
import os
import stat
import sys
from math import pi

import numpy as np

from . import checks
from .dynamics import (
    BAND_THRESHOLD,
    IntegratorConfig,
    conservation_report,
    detect_collinear_passages,
    integrate,
)
from .errors import ConfigError, DegenerateShape, TrireduceError
from .geometry import COLLINEAR_THRESHOLD, CartesianState, MassTriple, check_number
from .hamiltonian import cartesian_from_momenta, evaluate_reduced_batch
from .potential import PotentialSpec, builtin_potential, parse_potential

log = logging.getLogger("trireduce")

TRAJECTORY_HEADER = (
    "t,x1x,x1y,x1z,x2x,x2y,x2z,x3x,x3y,x3z,"
    "r1,r2,phi,J1,J2,J3,p1,p2,p3,H_reduced,E_total,L_norm,branch"
)
EVALUATE_HEADER = (
    "r1,r2,phi,J1,J2,J3,p1,p2,p3,branch,H_reduced,E_total,L_norm,singular_term"
)
PASSAGES_HEADER = "t_minus,t_plus,t_star,sin_phi_min,H_before,H_at,H_after,delta_H"

# At or below the collinear threshold J and p are read in the bending frame;
# phi is never moved.  H equals the energy under either frame rule (its
# kinetic terms add up in any such frame, and V is that of the positions),
# so this bound limits how far J and p are read in that frame, not H.
MAX_COLLINEAR_THRESHOLD = 1e-6


# --------------------------------------------------------------------------
# Config parsing


def _require(cfg, field, path="", kind=None):
    """cfg[field], a list or str where `kind` asks for one; raises ConfigError
    naming the field of the object at `path` ("" for the top level)."""
    name = f"{path}.{field}" if path else field
    if field not in cfg:
        raise ConfigError(name, "missing")
    value = cfg[field]
    if kind is not None and not isinstance(value, kind):
        expected = "an array" if kind is list else "a string"
        raise ConfigError(name, f"expected {expected}, got {value!r}")
    return value


def _object(raw, path, keys=None):
    """raw, a JSON object whose keys are among `keys` (any keys for None);
    raises ConfigError naming the object at `path` ("" for the top level)
    or its first unknown field otherwise."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<config>", "expected an object")
    unknown = [key for key in raw if keys is not None and key not in keys]
    if unknown:
        field = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(field, f"unknown field, expected one of {', '.join(keys)}")
    return raw


def _parse_masses(cfg):
    raw = _require(cfg, "masses", kind=list)
    if len(raw) != 3:
        raise ConfigError("masses", "expected exactly 3 entries")
    try:
        return MassTriple(*(_number(v, f"masses[{i}]") for i, v in enumerate(raw)))
    except ValueError as exc:
        raise ConfigError("masses", str(exc))


def _parse_potential(cfg) -> PotentialSpec:
    raw = _object(_require(cfg, "potential"), "potential", ("builtin", "params", "expression"))
    if ("builtin" in raw) == ("expression" in raw):
        raise ConfigError("potential", "exactly one of builtin/expression required")
    if "builtin" in raw:
        # PotentialSpec names a parameter the family does not read
        params = _object(raw.get("params", {}), "potential.params")
        try:
            return builtin_potential(raw["builtin"], **params)
        except ValueError as exc:  # an unknown family, or a parameter it cannot take
            raise ConfigError("potential", str(exc))
    text = _require(raw, "expression", "potential", str)
    try:
        return parse_potential(text)
    except TrireduceError as exc:
        raise ConfigError("potential.expression", str(exc))


def _number(raw, path):
    """A finite JSON number, not a boolean or a string, as a float."""
    try:
        check_number(path, raw)
    except ValueError:
        raise ConfigError(path, f"expected a finite number, got {raw!r}")
    return float(raw)


def _count(raw, path):
    value = _number(raw, path)
    if value != int(value):
        raise ConfigError(path, f"expected a whole number, got {raw!r}")
    return int(value)


def _vec3(raw, path):
    if not isinstance(raw, list) or len(raw) != 3:
        raise ConfigError(path, "expected a 3-vector")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(raw)])


def _parse_initial_state(cfg, masses) -> CartesianState:
    raw = _object(_require(cfg, "initial_state"), "initial_state", ("cartesian", "shape"))
    if ("cartesian" in raw) == ("shape" in raw):
        raise ConfigError("initial_state", "exactly one of cartesian/shape required")
    if "cartesian" in raw:
        path = "initial_state.cartesian"
        c = _object(raw["cartesian"], path, ("positions", "velocities"))
        pos = _require(c, "positions", path, list)
        vel = _require(c, "velocities", path, list)
        if len(pos) != 3 or len(vel) != 3:
            raise ConfigError(path, "positions/velocities need 3 triples")
        x = [_vec3(p, f"{path}.positions[{i}]") for i, p in enumerate(pos)]
        v = [_vec3(p, f"{path}.velocities[{i}]") for i, p in enumerate(vel)]
        return CartesianState(x[0], x[1], x[2], v[0], v[1], v[2])
    path = "initial_state.shape"
    s = _object(raw["shape"], path, ("r1", "r2", "phi", "J", "p"))
    r1, r2, phi = (_number(_require(s, key, path), f"{path}.{key}") for key in ("r1", "r2", "phi"))
    if r1 <= 0.0:
        raise ConfigError(path, f"r1 must be > 0, got {r1}")
    if r2 < 0.0:
        raise ConfigError(path, f"r2 must be >= 0, got {r2}")
    if not 0.0 <= phi <= pi:
        raise ConfigError(path, f"phi out of [0, pi]: {phi}")
    momenta = (_vec3(_require(s, key, path), f"{path}.{key}") for key in ("J", "p"))
    return cartesian_from_momenta(masses, r1, r2, phi, *momenta)


def _parse_integrator(cfg) -> IntegratorConfig:
    """The integrator settings the config gives; IntegratorConfig holds the
    defaults of the others."""
    numbers = {"dt": _number, "steps": _count, "record_stride": _count}
    raw = _object(cfg.get("integrator", {}), "integrator", ("method", *numbers))
    settings = {
        key: numbers[key](value, f"integrator.{key}") if key in numbers else value
        for key, value in raw.items()
    }
    try:
        return IntegratorConfig(**settings)
    except ValueError as exc:
        name, _, message = str(exc).partition(": ")
        raise ConfigError(f"integrator.{name}", message)


def _parse_thresholds(cfg):
    raw = _object(cfg.get("thresholds", {}), "thresholds", ("collinear", "band", "passage"))
    band = _number(raw.get("band", BAND_THRESHOLD), "thresholds.band")
    thresholds = {
        "collinear": _number(raw.get("collinear", COLLINEAR_THRESHOLD), "thresholds.collinear"),
        "band": band,
        "passage": _number(raw.get("passage", band), "thresholds.passage"),
    }
    for name, value in thresholds.items():
        upper = MAX_COLLINEAR_THRESHOLD if name == "collinear" else sys.float_info.max
        if not 0.0 <= value <= upper:
            raise ConfigError(f"thresholds.{name}", f"must lie in [0, {upper:g}], got {value}")
    return thresholds


class RunConfig:
    FIELDS = ("masses", "potential", "initial_state", "integrator", "thresholds")

    def __init__(self, raw):
        _object(raw, "", self.FIELDS)
        self.masses = _parse_masses(raw)
        self.potential = _parse_potential(raw)
        self.state = _parse_initial_state(raw, self.masses)
        self.integrator = _parse_integrator(raw)
        self.thresholds = _parse_thresholds(raw)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}")
    return RunConfig(raw)


# --------------------------------------------------------------------------
# Commands


def _write_lines(path, lines):
    text = "\n".join([*lines, ""])
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            # no O_TRUNC: on ext4 it waits for the writeback of the last run
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):  # a device cannot be cut
                    fh.truncate()
    except OSError as exc:
        log.error("cannot write %s: %s", path, exc)
        return False
    return True


def _csv(header, columns):
    """The lines of a CSV table: header, then one row per entry of the
    columns it names, in its order; %.17g for a number, %s for branch.
    columns maps each name to a sequence."""
    names = header.split(",")
    template = ",".join("%s" if name == "branch" else "%.17g" for name in names)
    rows = zip(*(np.asarray(columns[name]).tolist() for name in names))
    return [header] + [template % row for row in rows]


def _columns(batch):
    """The named columns of a ReducedBatch or a Trajectory: its fields, J1
    to p3, and L_norm = |L| as np.linalg.norm rounds it.  A column of one
    name therefore holds the same bits in every command."""
    columns = dict(vars(batch), L_norm=np.linalg.norm(batch.L, axis=-1))
    for i in range(3):
        columns[f"J{i + 1}"], columns[f"p{i + 1}"] = batch.J[:, i], batch.p[:, i]
    return columns


def _integrate(cfg: RunConfig):
    collinear = cfg.thresholds["collinear"]
    return integrate(cfg.masses, cfg.state, cfg.potential, cfg.integrator, collinear)


def cmd_simulate(cfg: RunConfig, out_path):
    traj = _integrate(cfg)
    columns = _columns(traj)
    for body in range(3):
        for i, axis in enumerate("xyz"):
            columns[f"x{body + 1}{axis}"] = traj.x[:, body, i]
    if not _write_lines(out_path, _csv(TRAJECTORY_HEADER, columns)):
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
    # numpy's overflow warnings would only repeat the NumericalBlowup that
    # names the quantity
    with np.errstate(all="ignore"):
        x, v = cfg.state.positions[None], cfg.state.velocities[None]
        ev = evaluate_reduced_batch(cfg.masses, x, v, cfg.potential, cfg.thresholds["collinear"])
    if ev.branch[0] == "degenerate":
        raise DegenerateShape.from_r1(ev.r1[0])
    if not _write_lines(out_path, _csv(EVALUATE_HEADER, _columns(ev))):
        return 4
    return 0


def cmd_collinear_report(cfg: RunConfig, out_path):
    traj = _integrate(cfg)
    passages = detect_collinear_passages(traj, cfg.thresholds["passage"])
    if not _write_lines(out_path, _csv(PASSAGES_HEADER, vars(passages))):
        return 4
    log.info("collinear passages detected: %d", len(passages))
    return 0


def cmd_check(seed):
    failed = False
    for name, ok, detail in checks.run_all(seed=seed):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


# --------------------------------------------------------------------------
# Entry point


def _setup_logging():
    quiet = os.environ.get("TRIREDUCE_LOG", "info").lower() == "quiet"
    logging.basicConfig(level=logging.ERROR if quiet else logging.INFO, format="%(message)s")


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
    def seed(text):  # numpy's generators take a whole number >= 0
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
        return int(text)
    p = sub.add_parser("check")
    p.add_argument("--seed", type=seed, default=checks.DEFAULT_SEED)
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args.seed)
    commands = {
        "simulate": cmd_simulate,
        "evaluate": cmd_evaluate,
        "collinear-report": cmd_collinear_report,
    }
    try:
        return commands[args.command](load_config(args.config), args.out)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except TrireduceError as exc:
        log.error("numerical failure: %s: %s", type(exc).__name__, exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
