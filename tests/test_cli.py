import builtins
import json
import logging
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trireduce
from trireduce import checks, cli
from trireduce.cli import (
    EVALUATE_HEADER,
    PASSAGES_HEADER,
    TRAJECTORY_HEADER,
    load_config,
    main,
)
from trireduce.hamiltonian import evaluate_reduced

HARMONIC_CONFIG = {
    "masses": [1.0, 1.0, 1.0],
    "potential": {"builtin": "harmonic", "params": {"k": 1.0, "rest_length": 1.0}},
    "initial_state": {
        "cartesian": {
            "positions": [[0.3, -0.2, 0.9], [1.1, 0.1, -0.4], [-0.6, 0.8, 0.2]],
            "velocities": [[0.1, 0.2, -0.1], [-0.2, 0.1, 0.3], [0.1, -0.3, -0.2]],
        }
    },
    "integrator": {"dt": 0.01, "steps": 1000, "record_stride": 100},
}

# third particle crossing the line of the other two, free motion
CROSSING_CONFIG = {
    "masses": [1.0, 1.0, 1.0],
    "potential": {"builtin": "free"},
    "initial_state": {
        "cartesian": {
            "positions": [[0.0, 0.0, 1.0], [-0.5, 0.0, 0.3], [0.0, 0.0, -1.0]],
            "velocities": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        }
    },
    "integrator": {"dt": 0.01, "steps": 100},
    "thresholds": {"passage": 0.5},
}

# the figure-eight start (Chenciner & Montgomery 2000): body 3 at the
# origin between 1 and 2, L = 0
_X1, _V3 = [0.97000436, -0.24308753, 0.0], [-0.93240737, -0.86473146, 0.0]
_V1 = [-0.5 * _V3[0], -0.5 * _V3[1], 0.0]
FIGURE_EIGHT_CONFIG = {
    "masses": [1.0, 1.0, 1.0],
    "potential": {"builtin": "gravity", "params": {"G": 1.0}},
    "initial_state": {
        "cartesian": {
            "positions": [_X1, [-_X1[0], -_X1[1], 0.0], [0.0, 0.0, 0.0]],
            "velocities": [_V1, _V1, _V3],
        }
    },
}

# a valid shape start
SHAPE_START = {"r1": 1.0, "r2": 1.0, "phi": 1.0, "J": [0.0, 0.0, 1.0], "p": [0.0] * 3}

# figure-eight velocities whose kinetic energy overflows
OVERFLOWING_VELOCITIES = [[1e200, 0.0, 0.0], [0.0, 0.0, 1e200], [-1e200, 0.0, -1e200]]


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main(args)


def one_row_reference(path):
    """evaluate_reduced on the state of the config file at path."""
    cfg = load_config(path)
    return evaluate_reduced(cfg.masses, cfg.state, cfg.potential, cfg.thresholds["collinear"])


def run_process(args, **extra_env):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr).  The
    caller's TRIREDUCE_LOG is dropped; extra_env sets variables."""
    env = {k: v for k, v in os.environ.items() if k != "TRIREDUCE_LOG"}
    env.update(extra_env)
    src = str(Path(trireduce.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "trireduce.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def trajectory_rows(text):
    lines = text.splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    return [dict(zip(TRAJECTORY_HEADER.split(","), ln.split(","))) for ln in lines[1:]]


class TestRowTemplates:
    # every number a column can hold, as floats and as numpy scalars
    NUMBERS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.7976931348623157e308]
    NUMBERS += [np.float64(x) for x in (0.1, -2.5e-300, 1.0 / 3.0, float("nan"), float("-inf"))]

    @pytest.mark.parametrize("header", [TRAJECTORY_HEADER, EVALUATE_HEADER, PASSAGES_HEADER])
    def test_numbers_render_as_format(self, header):
        # each number column as format(x, ".17g"), the branch as it is; row
        # k starts the number list at its k-th entry.  The columns go in
        # reversed, with one the header does not name: the header alone
        # orders the row.
        names = header.split(",")
        rows = []
        for shift in range(len(self.NUMBERS)):
            values = [self.NUMBERS[(shift + i) % len(self.NUMBERS)] for i in range(len(names))]
            rows.append(["collinear" if c == "branch" else x for c, x in zip(names, values)])
        columns = {c: [row[i] for row in rows] for i, c in reversed(list(enumerate(names)))}
        columns["unnamed"] = [1.0] * len(rows)
        expected = [
            ",".join(x if c == "branch" else format(x, ".17g") for c, x in zip(names, row))
            for row in rows
        ]
        assert cli._csv(header, columns) == [header] + expected


class TestSimulate:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + 1 + 1000 // 100  # header + t=0 + strided rows

    def test_bitwise_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_conservation_summary_printed(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "traj.csv"
        code, stdout, stderr = run_process(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert "energy_drift_rel" in stderr
        assert stdout == ""

    def test_quiet_log_keeps_errors_only(self, tmp_path):
        # TRIREDUCE_LOG=quiet drops the conservation summary, not a config error
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "traj.csv"
        code, stdout, stderr = run_process(
            ["simulate", "--config", cfg, "--out", str(out)], TRIREDUCE_LOG="quiet"
        )
        assert (code, stdout, stderr) == (0, "", "")
        bad = write_config(tmp_path, dict(HARMONIC_CONFIG, masses=[1.0, 1.0]), name="bad.json")
        code, stdout, stderr = run_process(["simulate", "--config", bad], TRIREDUCE_LOG="quiet")
        assert (code, stdout) == (2, "")
        assert stderr.splitlines() == ["config field 'masses': expected exactly 3 entries"]

    def test_no_out_writes_stdout(self, tmp_path, capsys, monkeypatch):
        # without --out the table goes to stdout, as with --out -, and no file
        monkeypatch.chdir(tmp_path)
        for command, raw in (("simulate", HARMONIC_CONFIG), ("collinear-report", CROSSING_CONFIG)):
            cfg = write_config(tmp_path, raw)
            assert run([command, "--config", cfg, "--out", "-"]) == 0
            expected = capsys.readouterr().out
            assert run([command, "--config", cfg]) == 0
            assert capsys.readouterr().out == expected
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_stdout_holds_only_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        assert run(["simulate", "--config", cfg, "--out", "-"]) == 0
        rows = trajectory_rows(capsys.readouterr().out)
        assert len(rows) == 1 + 1000 // 100  # t = 0 and strided samples, nothing else
        cfg = write_config(tmp_path, CROSSING_CONFIG, name="crossing.json")
        assert run(["collinear-report", "--config", cfg, "--out", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == PASSAGES_HEADER
        assert len(lines) == 2

    def test_collinear_threshold_honoured(self, tmp_path):
        # sin(phi) stays between 1e-8 and 1e-6 on this short run, so the
        # default threshold takes the noncollinear rule and 1e-6 the
        # collinear one; H = E_total holds under both
        near = dict(
            HARMONIC_CONFIG,
            initial_state={
                "cartesian": {
                    "positions": [[1.0, 0.0, 0.0], [0.4, 2e-7, 0.0], [-1.0, 0.0, 0.0]],
                    "velocities": [[0.1, -1e-7, 2e-7], [0.0, 2e-7, -4e-7], [-0.1, -1e-7, 2e-7]],
                }
            },
            integrator={"dt": 0.01, "steps": 20, "record_stride": 5},
        )
        for thresholds, branch in (({}, "noncollinear"), ({"collinear": 1e-6}, "collinear")):
            cfg = write_config(tmp_path, dict(near, thresholds=thresholds))
            out = tmp_path / "eval.csv"
            assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
            fields = dict(zip(EVALUATE_HEADER.split(","), out.read_text().splitlines()[1].split(",")))
            assert fields["branch"] == branch
            H0 = float(fields["H_reduced"])
            assert abs(H0 - float(fields["E_total"])) <= 1e-10
            out = tmp_path / "traj.csv"
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
            rows = trajectory_rows(out.read_text())
            assert [row["branch"] for row in rows] == [branch] * len(rows)
            for row in rows:
                if branch == "noncollinear":
                    assert 1e-8 < float(row["phi"]) < 1e-6
                assert abs(float(row["H_reduced"]) - float(row["E_total"])) <= 1e-10
            assert float(rows[0]["H_reduced"]) == pytest.approx(H0, rel=1e-12)

    def test_out_of_range_thresholds_exit_2(self, tmp_path, caplog):
        # a collinear threshold above 1e-6 reads J and p in the bending
        # frame on shapes far from collinear; H still equals E (at 0.999999
        # every row of this config is collinear and max |H - E| is 4.4e-16),
        # so the bound limits J and p, not H
        for thresholds in (
            {"collinear": 0.999999},
            {"collinear": -1e-9},
            {"collinear": float("nan")},
            {"band": -1.0},
            {"band": float("inf")},
            {"passage": float("nan")},
        ):
            cfg = write_config(tmp_path, dict(HARMONIC_CONFIG, thresholds=thresholds))
            for command in ("simulate", "evaluate"):
                caplog.clear()
                assert run([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
                assert f"thresholds.{next(iter(thresholds))}" in caplog.text

    def test_nan_state_exit_3(self, tmp_path, caplog):
        # k (d - rest) overflows to an infinite slope, whose force was inf * 0
        # = NaN in its zero components, so the positions turned NaN after the
        # first step; the force field names the first such pair instead
        nan = dict(
            HARMONIC_CONFIG,
            potential={"builtin": "harmonic", "params": {"k": 1e308}},
            initial_state={
                "cartesian": {
                    "positions": [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]],
                    "velocities": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                }
            },
        )
        cfg = write_config(tmp_path, nan)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
        assert "DomainError: domain error in 'd12' at value 3.0" in caplog.text

    def test_nan_expression_exit_3(self, tmp_path, caplog):
        # inf - inf: the potential is NaN at every shape
        nan = dict(HARMONIC_CONFIG, potential={"expression": "d12*1e308*10 - d13*1e308*10"})
        cfg = write_config(tmp_path, nan)
        for command in ("evaluate", "simulate"):
            caplog.clear()
            assert run([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
            assert "DomainError" in caplog.text

    def test_undefined_phi_force_exit_3(self, tmp_path, caplog):
        # body 2 at the midpoint of bodies 1 and 3: r2 = 0, where phi, and
        # so the value and the force of cos(phi), are undefined
        midpoint = dict(
            HARMONIC_CONFIG,
            potential={"expression": "cos(phi)"},
            initial_state={
                "cartesian": {
                    "positions": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                    "velocities": [[0.0, 0.1, 0.0], [0.0, 0.0, 0.2], [0.0, -0.1, 0.0]],
                }
            },
        )
        cfg = write_config(tmp_path, midpoint)
        for command in ("simulate", "evaluate"):
            caplog.clear()
            assert run([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
            assert "DomainError" in caplog.text and "'phi'" in caplog.text

    def test_collinear_bending_start_exit_0(self, tmp_path):
        # body 2 beyond body 3 on the x axis, phi = pi: the bending term has
        # dV/dphi = 0 there, so the force is its finite limit
        collinear = dict(
            HARMONIC_CONFIG,
            potential={"expression": "10*(1+cos(phi)) + 0.5*(d13-2)^2"},
            initial_state={
                "cartesian": {
                    "positions": [[1.0, 0.0, 0.0], [-2.5, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                    "velocities": [[0.0, 0.1, 0.0], [0.0, -0.2, 0.0], [0.0, 0.1, 0.0]],
                }
            },
        )
        cfg = write_config(tmp_path, collinear)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    def test_expression_overflow_exit_3(self, tmp_path, caplog):
        big = dict(HARMONIC_CONFIG, potential={"expression": "exp(d12*1000)"})
        cfg = write_config(tmp_path, big)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
        assert "DomainError" in caplog.text and "'exp'" in caplog.text

    def test_degenerate_first_sample_summary(self, tmp_path, caplog):
        # body 2 starts at the 1-3 center of mass (r2 = 0, H_reduced NaN)
        # and moves off it: the summary leaves that sample out and counts it
        start = dict(
            HARMONIC_CONFIG,
            initial_state={
                "cartesian": {
                    "positions": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                    "velocities": [[0.0, -0.1, 0.0], [0.0, 0.2, 0.1], [0.0, -0.1, -0.1]],
                }
            },
        )
        cfg = write_config(tmp_path, start)
        caplog.set_level(logging.INFO, logger="trireduce")
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        rows = trajectory_rows((tmp_path / "o.csv").read_text())
        assert rows[0]["branch"] == "degenerate"
        # the row template writes the reduced columns of that row as nan
        for name in ("phi", "J1", "J2", "J3", "p1", "p2", "p3", "H_reduced"):
            assert rows[0][name] == "nan", name
        summary = next(r.getMessage() for r in caplog.records if "conservation" in r.getMessage())
        assert "nan" not in summary
        assert "degenerate_samples=1" in summary

    def test_negative_mass_exit_2(self, tmp_path, caplog):
        bad = dict(HARMONIC_CONFIG, masses=[1.0, -1.0, 1.0])
        cfg = write_config(tmp_path, bad)
        assert run(["simulate", "--config", cfg]) == 2
        assert "masses" in caplog.text

    def test_missing_potential_exit_2(self, tmp_path, caplog):
        bad = {k: v for k, v in HARMONIC_CONFIG.items() if k != "potential"}
        cfg = write_config(tmp_path, bad)
        assert run(["simulate", "--config", cfg]) == 2
        assert "potential" in caplog.text

    def test_bad_expression_exit_2(self, tmp_path, caplog):
        bad = dict(HARMONIC_CONFIG, potential={"expression": "r1 +"})
        cfg = write_config(tmp_path, bad)
        assert run(["simulate", "--config", cfg]) == 2
        assert "potential.expression" in caplog.text

    @pytest.mark.parametrize(
        "expression, message",
        [
            ("(" * 250 + "d12" + ")" * 250, "at offset 161: expected at most 160 levels of nesting"),
            (" + ".join(["d12"] * 900), "at offset 3005: expected at most 500 operations deep"),
        ],
        ids=["nested-parentheses", "flat-sum"],
    )
    def test_too_deep_expression_exit_2(self, tmp_path, caplog, expression, message):
        # the parser and the emitter recurse per level: too deep an
        # expression is a syntax error, not a RecursionError
        bad = dict(HARMONIC_CONFIG, potential={"expression": expression})
        for command in ("simulate", "evaluate"):
            caplog.clear()
            assert run([command, "--config", write_config(tmp_path, bad)]) == 2
            assert f"config field 'potential.expression': syntax error {message}" in caplog.text

    def test_deep_expressions_within_the_limits_run(self, tmp_path):
        # 150 nested parentheses leave the tree, and so the rows, as they
        # are; a 400-term sum runs
        plain = "0.5*(d12-1)^2 + 0.5*(d13-1)^2 + 0.5*(d23-1)^2"
        outputs = []
        for expression in (plain, "(" * 150 + plain + ")" * 150, " + ".join(["d12"] * 400)):
            cfg = write_config(tmp_path, dict(HARMONIC_CONFIG, potential={"expression": expression}))
            out = tmp_path / f"out{len(outputs)}.csv"
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("mass", [1e-170, 1e-160, 1e155])
    def test_masses_with_reduced_masses_out_of_range_exit_2(self, tmp_path, caplog, mass):
        # at 1e-170 the reduced masses were 0 and every row degenerate, at
        # 1e-160 inexact, and at 1e155 inf
        cfg = write_config(tmp_path, dict(FIGURE_EIGHT_CONFIG, masses=[mass] * 3))
        for command in ("simulate", "evaluate", "collinear-report"):
            caplog.clear()
            assert run([command, "--config", cfg]) == 2
            assert "config field 'masses': m1*m3 = " in caplog.text

    @pytest.mark.parametrize("mass", [1e-150, 1e150])
    def test_masses_with_normal_reduced_masses_evaluate(self, tmp_path, mass):
        cfg = write_config(tmp_path, dict(FIGURE_EIGHT_CONFIG, masses=[mass] * 3))
        assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "row.csv")]) == 0

    def test_overflowing_literal_exit_2(self, tmp_path, caplog):
        # 1e999 reads as inf: a config error at parse time, not a NaN potential
        bad = dict(HARMONIC_CONFIG, potential={"expression": "0.5*(d12-1)^2 + 1e999*0"})
        assert run(["evaluate", "--config", write_config(tmp_path, bad)]) == 2
        assert "potential.expression" in caplog.text and "at offset 17: expected number" in caplog.text

    def test_unindexable_step_count_exit_2(self, tmp_path, caplog):
        # 1e30 // 1 + 1 records: numpy cannot index the buffer, so no allocation
        bad = dict(HARMONIC_CONFIG, integrator={"steps": 1e30})
        assert run(["simulate", "--config", write_config(tmp_path, bad)]) == 2
        assert "config field 'integrator.steps'" in caplog.text

    def test_time_overflow_exits_2(self, tmp_path, caplog, capsys):
        # at rest under no force, this wrote inf in the t column of rows 2
        # and 3 and exited 0
        state = {"positions": CROSSING_CONFIG["initial_state"]["cartesian"]["positions"],
                 "velocities": [[0.0] * 3] * 3}
        bad = dict(CROSSING_CONFIG, initial_state={"cartesian": state},
                   integrator={"dt": 1e308, "steps": 3})
        assert run(["simulate", "--config", write_config(tmp_path, bad)]) == 2
        assert "config field 'integrator.dt': steps * dt is not a finite time" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "potential, field",
        [
            ({"builtin": "gravity", "params": {"g": 5.0}}, "params.g"),
            ({"builtin": "free", "params": {"k": 1.0}}, "params.k"),
            ({"builtin": "harmonic", "params": {"rest": {"d14": 1.0}}}, "params.rest"),
            ({"builtin": "harmonic", "params": {"k": "abc"}}, "params.k"),
            ({"builtin": "harmonic", "params": {"k": None}}, "params.k"),
            ({"builtin": "harmonic", "params": {"k": float("inf")}}, "params.k"),
            ({"builtin": "harmonic", "params": {"rest": {"d12": "1"}}}, "params.rest.d12"),
            ({"builtin": "lennard_jones", "params": {"sigma": True}}, "params.sigma"),
            ({"builtin": "gravity", "params": {"name": 1.0}}, "params.name"),
        ],
    )
    def test_bad_builtin_params_exit_2(self, tmp_path, caplog, potential, field):
        # a parameter the family does not read, or one that is not a finite
        # number, was silently ignored or crashed with a TypeError (`name`
        # too, which once met the family's name in builtin_potential)
        cfg = write_config(tmp_path, dict(HARMONIC_CONFIG, potential=potential))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "config field 'potential'" in caplog.text and field in caplog.text

    def test_builtin_rest_lengths_accepted(self, tmp_path):
        params = {"k": 2, "rest_length": 1.0, "rest": {"d12": 1.2, "d23": 0.8}}
        good = dict(HARMONIC_CONFIG, potential={"builtin": "harmonic", "params": params})
        cfg = write_config(tmp_path, good)
        assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize(
        "integrator, field",
        [
            ({"steps": 2.7}, "integrator.steps"),
            ({"record_stride": True}, "integrator.record_stride"),
            ({"dt": float("inf")}, "integrator.dt"),
            # IntegratorConfig's own checks, which named only 'integrator'
            ({"method": 5}, "integrator.method"),
            ({"steps": 0}, "integrator.steps"),
            ({"record_stride": 0}, "integrator.record_stride"),
            ({"dt": 0.0}, "integrator.dt"),
        ],
    )
    def test_bad_integrator_numbers_exit_2(self, tmp_path, caplog, integrator, field):
        # these ran 2 steps, ran stride 1 and exited 3 (NumericalBlowup)
        integrator = dict(HARMONIC_CONFIG["integrator"], **integrator)
        bad = dict(HARMONIC_CONFIG, integrator=integrator)
        cfg = write_config(tmp_path, bad)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"config field '{field}'" in caplog.text
        assert caplog.text.count(field.split(".")[1]) == 1  # named once

    def test_blowup_exit_3(self, tmp_path):
        # near-collision under 1/d gravity: the first kick is ~G/d^2 and
        # sends positions past the overflow guard within a few steps
        collision = {
            "masses": [1.0, 1.0, 1.0],
            "potential": {"builtin": "gravity", "params": {"G": 1.0}},
            "initial_state": {
                "cartesian": {
                    "positions": [[-1e-5, 0.0, 0.0], [0.0, 5.0, 0.0], [1e-5, 0.0, 0.0]],
                    "velocities": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [-0.1, 0.0, 0.0]],
                }
            },
            "integrator": {"dt": 10.0, "steps": 50, "record_stride": 50},
        }
        cfg = write_config(tmp_path, collision)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3

    @pytest.mark.parametrize("method", ["leapfrog", "rk4"])
    def test_overflowing_start_exit_3(self, tmp_path, method):
        # the start is beyond the overflow guard: no step, no numpy warning
        huge = json.loads(json.dumps(FIGURE_EIGHT_CONFIG))
        huge["initial_state"]["cartesian"]["velocities"] = OVERFLOWING_VELOCITIES
        huge["integrator"] = {"method": method, "steps": 5}
        code, stdout, stderr = run_process(["simulate", "--config", write_config(tmp_path, huge)])
        assert code == 3
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and "NumericalBlowup" in stderr
        assert "at step 0" in stderr
        assert "Traceback" not in stderr and "RuntimeWarning" not in stderr

    def test_near_collision_exit_3_without_warnings(self, tmp_path):
        # bodies 1 and 2 3e-162 apart: G m m / d^2 overflows, which the force
        # field names before the first kick (the guard named step 1 of an
        # infinite kick); nothing warns on the way (numpy's matmul warned of
        # invalid values)
        near = json.loads(json.dumps(FIGURE_EIGHT_CONFIG))
        near["initial_state"]["cartesian"]["positions"] = [
            [0.0, 0.0, 0.0], [3e-162, 0.0, 0.0], [0.0, 1.0, 0.0]]
        near["integrator"] = {"steps": 5}
        code, stdout, stderr = run_process(["simulate", "--config", write_config(tmp_path, near)])
        assert code == 3
        assert stdout == ""
        assert stderr.splitlines() == [
            "numerical failure: DomainError: domain error in 'd12' at value 3.1434555694052576e-162"
        ]

    def test_unwritable_output_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "no" / "such" / "dir" / "traj.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 4


class TestEvaluate:
    def test_noncollinear_row(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "eval.csv"
        assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == EVALUATE_HEADER
        fields = dict(zip(EVALUATE_HEADER.split(","), lines[1].split(",")))
        assert fields["branch"] == "noncollinear"
        # zero total momentum: reduced Hamiltonian equals the total energy
        assert abs(float(fields["H_reduced"]) - float(fields["E_total"])) < 1e-8
        assert float(fields["singular_term"]) == one_row_reference(cfg).singular_term

    def test_row_is_simulate_first_row(self, tmp_path):
        # one table model: on 40 seeded states, evaluate's row holds the
        # bits of simulate's t = 0 row in every column both write, L_norm
        # included, as both take |L| from np.linalg.norm
        rng = np.random.default_rng(1501)
        shared = [c for c in EVALUATE_HEADER.split(",") if c in TRAJECTORY_HEADER.split(",")]
        evaluated, simulated = tmp_path / "eval.csv", tmp_path / "traj.csv"
        for k in range(40):
            x, v = rng.normal(size=(2, 3, 3)).tolist()
            state = {"cartesian": {"positions": x, "velocities": v}}
            config = dict(HARMONIC_CONFIG, initial_state=state, integrator={"steps": 1})
            cfg = write_config(tmp_path, config)
            assert run(["evaluate", "--config", cfg, "--out", str(evaluated)]) == 0
            assert run(["simulate", "--config", cfg, "--out", str(simulated)]) == 0
            row = evaluated.read_text().splitlines()[1].split(",")
            row = dict(zip(EVALUATE_HEADER.split(","), row))
            first = trajectory_rows(simulated.read_text())[0]
            assert [row[c] for c in shared] == [first[c] for c in shared], k

    def test_collinear_branch(self, tmp_path):
        collinear = dict(
            CROSSING_CONFIG,
            initial_state={
                "cartesian": {
                    "positions": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.2], [0.0, 0.0, -1.0]],
                    "velocities": [[-0.2, 0.0, 0.0], [0.4, 0.0, 0.0], [-0.2, 0.0, 0.0]],
                }
            },
        )
        cfg = write_config(tmp_path, collinear)
        out = tmp_path / "eval.csv"
        assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1]
        fields = dict(zip(EVALUATE_HEADER.split(","), row.split(",")))
        assert fields["branch"] == "collinear"
        assert abs(float(fields["H_reduced"]) - float(fields["E_total"])) < 1e-8
        assert float(fields["singular_term"]) == one_row_reference(cfg).singular_term

    def test_zero_angular_momentum_collinear_exit_3(self, tmp_path, caplog):
        # body 2 at the midpoint of 1 and 3: r2 = 0, so phi is undefined
        static = dict(
            CROSSING_CONFIG,
            initial_state={
                "cartesian": {
                    "positions": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                    "velocities": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                }
            },
        )
        cfg = write_config(tmp_path, static)
        assert run(["evaluate", "--config", cfg]) == 3
        assert "DegenerateShape" in caplog.text

    def test_zero_angular_momentum_collinear_states(self, tmp_path):
        # the figure-eight start (Chenciner & Montgomery 2000), body 3 at the
        # origin between 1 and 2, and a static collinear state; both L = 0
        static = dict(
            CROSSING_CONFIG,
            initial_state={
                "cartesian": {
                    "positions": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.2], [0.0, 0.0, -1.0]],
                    "velocities": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                }
            },
        )
        for name, config in (("figure8", FIGURE_EIGHT_CONFIG), ("static", static)):
            cfg = write_config(tmp_path, config, name=f"{name}.json")
            out = tmp_path / f"{name}.csv"
            assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
            row = out.read_text().splitlines()[1]
            fields = dict(zip(EVALUATE_HEADER.split(","), row.split(",")))
            assert fields["branch"] == "collinear"
            assert float(fields["L_norm"]) < 1e-15
            H, E = float(fields["H_reduced"]), float(fields["E_total"])
            assert abs(H - E) <= 1e-10

    def test_near_meeting_states(self, tmp_path):
        # body 2 a distance eps over body 1, which lies on the 1-3 line: H
        # takes the V of the positions' pair distances, as E does, so H = E
        # under either frame rule, also for a potential that is singular
        # where bodies 1 and 2 meet
        harmonic = {"builtin": "harmonic", "params": {"k": 1.0, "rest_length": 1.0}}
        for eps in (1e-9, 9e-9, 5e-7):
            for potential in (harmonic, {"expression": "1/d12"}):
                for threshold in (1e-8, 1e-6):
                    near = dict(
                        HARMONIC_CONFIG,
                        potential=potential,
                        thresholds={"collinear": threshold},
                        initial_state={
                            "cartesian": {
                                "positions": [[1.0, 0.0, 0.0], [1.0, eps, 0.0], [-1.0, 0.0, 0.0]],
                                "velocities": [[0.1, 0.2, 0.0], [-0.2, 0.1, 0.3], [0.1, -0.3, -0.3]],
                            }
                        },
                    )
                    cfg = write_config(tmp_path, near)
                    out = tmp_path / "eval.csv"
                    assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
                    row = out.read_text().splitlines()[1]
                    fields = dict(zip(EVALUATE_HEADER.split(","), row.split(",")))
                    assert fields["branch"] == ("collinear" if eps < threshold else "noncollinear")
                    H, E = float(fields["H_reduced"]), float(fields["E_total"])
                    assert abs(H - E) <= 1e-10 * max(1.0, abs(E)), (eps, potential, threshold)

    @pytest.mark.parametrize(
        "key, value",
        [
            # the Jacobi map overflows: this was a ValueError traceback, exit 1
            ("positions", [[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [-1e308, 0.0, 0.0]]),
            # the kinetic terms overflow: H, E and |L| were printed as inf, exit 0
            ("velocities", OVERFLOWING_VELOCITIES),
        ],
    )
    def test_overflow_exit_3(self, tmp_path, key, value):
        huge = json.loads(json.dumps(FIGURE_EIGHT_CONFIG))
        huge["initial_state"]["cartesian"][key] = value
        code, stdout, stderr = run_process(["evaluate", "--config", write_config(tmp_path, huge)])
        assert code == 3
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and "NumericalBlowup" in stderr
        assert "Traceback" not in stderr and "RuntimeWarning" not in stderr

    def test_sin_phi_overflow_exit_3(self, tmp_path):
        # a seeded state at positions times 1e80: |s1 x s2| overflows, and
        # evaluate printed phi = pi/2 and H_reduced 0.1107 against E_total
        # 1.7525 with exit 0
        masses = np.array([1.0, 1.5, 2.0])
        rng = np.random.default_rng(0)
        x, v = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        x, v = (a - masses @ a / masses.sum() for a in (x, v))
        state = {"cartesian": {"positions": (x * 1e80).tolist(), "velocities": v.tolist()}}
        config = {"masses": masses.tolist(), "potential": {"builtin": "free"}, "initial_state": state}
        code, stdout, stderr = run_process(["evaluate", "--config", write_config(tmp_path, config)])
        assert code == 3
        assert stdout == ""
        assert stderr.splitlines() == ["numerical failure: NumericalBlowup: sin_phi overflow at row 0"]

    def test_shape_initial_state(self, tmp_path):
        shaped = dict(
            HARMONIC_CONFIG,
            initial_state={
                "shape": {
                    "r1": 1.0,
                    "r2": 1.0,
                    "phi": 1.5707963267948966,
                    "J": [0.0, 0.0, 2.0],
                    "p": [0.0, 0.0, 1.0],
                }
            },
        )
        cfg = write_config(tmp_path, shaped)
        out = tmp_path / "eval.csv"
        assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        fields = dict(
            zip(EVALUATE_HEADER.split(","), out.read_text().splitlines()[1].split(","))
        )
        assert float(fields["r1"]) == pytest.approx(1.0, rel=1e-12)
        assert float(fields["J3"]) == pytest.approx(2.0, rel=1e-10)
        assert float(fields["p3"]) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("phi", 1e-9, "SingularInertia"),
            # r2 = 0 and an overflowing velocity were tracebacks with exit 1
            ("r2", 0.0, "SingularInertia"),
            ("J", [1.7e308, 0.0, 0.0], "NumericalBlowup"),
            # r2^2 underflows: a ZeroDivisionError traceback with exit 1
            ("r2", 1e-170, "SingularInertia"),
        ],
    )
    def test_unrealisable_shape_exit_3(self, tmp_path, caplog, field, value, error):
        shape = {"r1": 1.0, "r2": 1.0, "phi": 0.5, "J": [0.0, 0.0, 1.0], "p": [0.0] * 3}
        shaped = dict(HARMONIC_CONFIG, initial_state={"shape": dict(shape, **{field: value})})
        assert run(["evaluate", "--config", write_config(tmp_path, shaped)]) == 3
        assert error in caplog.text

    def test_malformed_initial_numbers_exit_2(self, tmp_path, caplog):
        shaped = dict(
            HARMONIC_CONFIG,
            initial_state={
                "shape": {"r1": 1.0, "r2": 1.0, "phi": 1.0, "J": [0.0, 0.0, 1.0], "p": [0.0] * 3}
            },
        )
        expression = dict(HARMONIC_CONFIG, potential={"expression": "0.5 * (d12 - 1) ^ 2"})
        cartesian = ("initial_state", "cartesian")
        cases = [
            (HARMONIC_CONFIG, cartesian + ("positions", 0, 1), float("nan"),
             "initial_state.cartesian.positions[0][1]"),
            (HARMONIC_CONFIG, cartesian + ("positions", 2, 0), "abc",
             "initial_state.cartesian.positions[2][0]"),
            (HARMONIC_CONFIG, cartesian + ("velocities", 1, 2), None,
             "initial_state.cartesian.velocities[1][2]"),
            (shaped, ("initial_state", "shape", "J", 2), float("nan"), "initial_state.shape.J[2]"),
            (shaped, ("initial_state", "shape", "r1"), None, "initial_state.shape.r1"),
            # booleans and strings are not numbers, in masses too
            (HARMONIC_CONFIG, ("masses",), [True, 1.0, "2"], "masses[0]"),
            (HARMONIC_CONFIG, ("masses", 2), "2", "masses[2]"),
            (HARMONIC_CONFIG, cartesian + ("positions", 1, 1), "2",
             "initial_state.cartesian.positions[1][1]"),
            (shaped, ("initial_state", "shape", "phi"), True, "initial_state.shape.phi"),
            # objects of the wrong type, and misspelt fields
            (expression, ("potential", "expression"), 5, "potential.expression"),
            (expression, ("potential", "expression"), None, "potential.expression"),
            (shaped, ("initial_state", "shape"), 5, "initial_state.shape"),
            (HARMONIC_CONFIG, cartesian, 5, "initial_state.cartesian"),
            # output paths are flags, not config fields
            (HARMONIC_CONFIG, ("output",), {"trajectory": "t.csv"}, "output"),
            (HARMONIC_CONFIG, ("integrator", "step"), 1000, "integrator.step"),
            (HARMONIC_CONFIG, ("thresholds",), {"colinear": 1e-8}, "thresholds.colinear"),
            (HARMONIC_CONFIG, ("potential", "param"), {"k": 2.0}, "potential.param"),
            (HARMONIC_CONFIG, ("potential", "params"), [], "potential.params"),
            (HARMONIC_CONFIG, ("integrator",), 5, "integrator"),
        ]
        for config, path, value, field in cases:
            bad = json.loads(json.dumps(config))
            target = bad
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            cfg = write_config(tmp_path, bad)
            caplog.clear()
            assert run(["evaluate", "--config", cfg]) == 2
            assert field in caplog.text
            assert caplog.text.count("config field") == 1

    def test_shape_state_needs_one_form(self, tmp_path, caplog):
        bad = dict(HARMONIC_CONFIG, initial_state={})
        cfg = write_config(tmp_path, bad)
        assert run(["evaluate", "--config", cfg]) == 2
        assert "initial_state" in caplog.text

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"masses": [1.0, 1.0]}, "masses"),
            ({"potential": {"builtin": "free", "expression": "r1"}}, "potential"),
            ({"potential": {"params": {}}}, "potential"),
            (
                {"initial_state": {"cartesian": {
                    "positions": [[0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]],
                    "velocities": [[0.0] * 3] * 3,
                }}},
                "initial_state.cartesian.positions[1]",
            ),
            (
                {"initial_state": {"cartesian": {
                    "positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                    "velocities": [[0.0] * 3] * 3,
                }}},
                "initial_state.cartesian",
            ),
            (
                {"initial_state": {"shape": dict(SHAPE_START, phi=4)}},
                "initial_state.shape",
            ),
            (
                {"initial_state": {"shape": dict(SHAPE_START, r1=-1)}},
                "initial_state.shape",
            ),
        ],
        ids=["two-masses", "both-potentials", "no-potential", "position-not-3", "two-positions",
             "phi-4", "r1-negative"],
    )
    def test_config_error_names_the_field(self, tmp_path, caplog, change, field):
        cfg = write_config(tmp_path, dict(HARMONIC_CONFIG, **change))
        assert run(["evaluate", "--config", cfg]) == 2
        assert f"config field '{field}': " in caplog.text

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("r1", 0.0, "r1 must be > 0, got 0.0"),
            ("r2", -1e-300, "r2 must be >= 0, got -1e-300"),
            ("phi", 3.2, "phi out of [0, pi]: 3.2"),
            ("phi", -0.5, "phi out of [0, pi]: -0.5"),
        ],
    )
    def test_shape_out_of_range_exit_2(self, tmp_path, caplog, key, value, message):
        # the range rule of a shape start, the one place a shape comes from outside
        shaped = dict(HARMONIC_CONFIG, initial_state={"shape": dict(SHAPE_START, **{key: value})})
        assert run(["evaluate", "--config", write_config(tmp_path, shaped)]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"config field 'initial_state.shape': {message}"
        ]

    @pytest.mark.parametrize("value", [True, "2", None, float("inf")])
    @pytest.mark.parametrize("key", ["r1", "r2", "phi"])
    def test_shape_coordinate_not_a_finite_number_exit_2(self, tmp_path, caplog, key, value):
        shaped = dict(HARMONIC_CONFIG, initial_state={"shape": dict(SHAPE_START, **{key: value})})
        assert run(["evaluate", "--config", write_config(tmp_path, shaped)]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"config field 'initial_state.shape.{key}': expected a finite number, got {value!r}"
        ]

    def test_unreadable_config_exit_2(self, tmp_path, caplog):
        invalid = tmp_path / "invalid.json"
        invalid.write_text("{\"masses\": [1.0, 1.0, 1.0],")
        for path, message in ((tmp_path / "absent.json", "cannot read"), (invalid, "invalid JSON")):
            caplog.clear()
            assert run(["evaluate", "--config", str(path)]) == 2
            assert f"config field '<config>': {message}" in caplog.text


class TestCollinearReport:
    def test_crossing_reported(self, tmp_path):
        cfg = write_config(tmp_path, CROSSING_CONFIG)
        out = tmp_path / "passages.csv"
        assert run(["collinear-report", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == PASSAGES_HEADER
        assert len(lines) >= 2
        fields = dict(zip(PASSAGES_HEADER.split(","), lines[1].split(",")))
        H_at = float(fields["H_at"])
        assert float(fields["delta_H"]) / abs(H_at) < 1e-6
        assert float(fields["t_minus"]) < float(fields["t_star"]) < float(fields["t_plus"])

    def test_non_crossing_header_only(self, tmp_path):
        quiet = dict(
            CROSSING_CONFIG,
            initial_state={
                "cartesian": {
                    "positions": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                    "velocities": [[0.0, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.0]],
                }
            },
        )
        cfg = write_config(tmp_path, quiet)
        out = tmp_path / "passages.csv"
        assert run(["collinear-report", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [PASSAGES_HEADER]

    def test_zero_threshold_header_only(self, tmp_path):
        zeroed = dict(CROSSING_CONFIG, thresholds={"passage": 0.0})
        cfg = write_config(tmp_path, zeroed)
        out = tmp_path / "passages.csv"
        assert run(["collinear-report", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [PASSAGES_HEADER]


class TestCheck:
    def test_ignored_flags_rejected(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        for argv in (
            ["simulate", "--config", cfg, "--seed", "3"],
            ["evaluate", "--config", cfg, "--seed", "3"],
            ["collinear-report", "--config", cfg, "--seed", "3"],
            ["check", "--config", cfg],
            ["check", "--out", str(tmp_path / "o.txt")],
            ["check", "--seed", "-1"],
        ):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2

    def test_default_run_passes(self, capsys):
        assert run(["check"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
        assert len(lines) >= 8

    def test_seed_flag_runs_the_suites_at_that_seed(self, capsys):
        assert run(["check", "--seed", "7"]) == 0
        expected = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                    for name, ok, detail in checks.run_all(seed=7)]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("seed", range(41))
    def test_collinear_limit_at_every_seed(self, seed):
        # at seed 21, H(1e-6) - H(0) rounds to 0: the suite fits only the
        # differences above the rounding of H, and warns nowhere
        ok, detail = checks.suite_collinear_limit(seed)
        assert ok, detail

    def test_collinear_limit_needs_three_differences(self, monkeypatch):
        # an H that does not move off the collinear shape leaves nothing to fit
        monkeypatch.setattr(checks, "reduced_hamiltonian", lambda r1, r2, phi, *rest: 1.0 + phi * 1e-30)
        assert checks.suite_collinear_limit() == (
            False, "0 of 6 differences above the rounding of H (need 3)"
        )

    def test_singular_term_needs_the_exact_collinear_value(self, monkeypatch):
        # a term one ulp off -r2^2 w2 at phi = 0 fails the suite
        exact = checks.singular_term
        monkeypatch.setattr(checks, "singular_term", lambda *args: np.nextafter(exact(*args), np.inf))
        assert checks.suite_singular_term() == (False, "phi = 0 value is not exactly -r2^2 w2")

    def test_parser_needs_the_batch_to_equal_its_rows(self, monkeypatch):
        # a batch one ulp off its rows fails the suite at the first expression
        rows = checks.eval_potential_batch

        def batch(spec, masses, *columns):
            value = rows(spec, masses, *columns)
            return np.nextafter(value, np.inf) if value.size > 1 else value

        monkeypatch.setattr(checks, "eval_potential_batch", batch)
        assert checks.suite_parser() == (False, "batch value differs from row-by-row value for 'r1'")

    def test_corrupted_tolerance_fails(self, capsys, monkeypatch):
        # a suite held to a tolerance no residual meets fails the run, and
        # so does a suite that raises
        def impossible(seed):
            return False, "max residual 4.441e-16 (tol 0.0e+00)"

        def crashing(seed):
            raise RuntimeError("no state")

        suites = [checks.SUITES[0], ("impossible", impossible), ("crashing", crashing)]
        monkeypatch.setattr(checks, "SUITES", suites)
        assert run(["check"]) == 1
        out = capsys.readouterr().out
        assert "PASS so3" in out and "FAIL impossible" in out
        assert out.splitlines()[-1] == "FAIL crashing: raised RuntimeError: no state"


class TestOutputFile:
    """An existing output file is overwritten in place and cut to length:
    the bytes are those a fresh path gets, and the inode, mode and links
    stay."""

    COMMANDS = [
        ("simulate", HARMONIC_CONFIG),
        ("evaluate", HARMONIC_CONFIG),
        ("collinear-report", CROSSING_CONFIG),
    ]

    @staticmethod
    def write(tmp_path, command, raw, out):
        cfg = write_config(tmp_path, raw)
        assert run([command, "--config", cfg, "--out", str(out)]) == 0

    @classmethod
    def fresh(cls, tmp_path, command, raw):
        out = tmp_path / "fresh.csv"
        cls.write(tmp_path, command, raw, out)
        return out.read_bytes()

    @pytest.mark.parametrize("command, raw", COMMANDS)
    @pytest.mark.parametrize("old_size", [1 << 20, 10], ids=["longer", "shorter"])
    def test_rerun_leaves_fresh_bytes(self, tmp_path, command, raw, old_size):
        out = tmp_path / "out.csv"
        out.write_bytes(b"x" * old_size)
        self.write(tmp_path, command, raw, out)
        expected = self.fresh(tmp_path, command, raw)
        assert (old_size > len(expected)) == (old_size == 1 << 20)  # as the id says
        assert out.read_bytes() == expected

    def test_inode_mode_and_hard_link_kept(self, tmp_path):
        out, twin = tmp_path / "out.csv", tmp_path / "twin.csv"
        out.write_bytes(b"x" * (1 << 20))
        out.chmod(0o600)
        os.link(out, twin)
        inode = out.stat().st_ino
        self.write(tmp_path, "simulate", HARMONIC_CONFIG, out)
        assert out.stat().st_ino == inode
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert twin.read_bytes() == out.read_bytes() == self.fresh(tmp_path, "simulate", HARMONIC_CONFIG)

    def test_symlink_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"x" * (1 << 20))
        link.symlink_to(target)
        self.write(tmp_path, "simulate", HARMONIC_CONFIG, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh(tmp_path, "simulate", HARMONIC_CONFIG)

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    @pytest.mark.parametrize("command, raw", COMMANDS)
    def test_null_device_exit_0(self, tmp_path, command, raw):
        self.write(tmp_path, command, raw, os.devnull)

    @pytest.mark.parametrize("command, raw", COMMANDS[1:])
    def test_unwritable_path_exit_4(self, tmp_path, caplog, command, raw):
        # in this process, as TestSimulate::test_unwritable_output_exit_4
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run([command, "--config", cfg, "--out", str(out)]) == 4
        assert "cannot write" in caplog.text

    @pytest.mark.parametrize("command, raw", COMMANDS)
    def test_directory_exit_4(self, tmp_path, command, raw):
        cfg = write_config(tmp_path, raw)
        code, stdout, stderr = run_process([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 4 and stdout == ""
        assert len(stderr.splitlines()) == 1 and "cannot write" in stderr

    def test_output_not_truncated_or_renamed(self, tmp_path, monkeypatch):
        # On ext4 the next O_TRUNC of a file that was truncated to zero waits
        # for the writeback of its new bytes.  The wait depends on the
        # filesystem, so this pins its cause instead of timing it: the output
        # is opened without O_TRUNC and is not swapped in by a rename.
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "traj.csv"
        out.write_bytes(b"x" * 4096)
        opened, faults = [], []

        def is_out(path):
            return not isinstance(path, int) and os.path.abspath(os.fsdecode(path)) == str(out)

        def watch_os_open(real):
            def os_open(path, flags, *args, **kwargs):
                if is_out(path):
                    opened.append("os.open")
                    if flags & os.O_TRUNC:
                        faults.append("os.open with O_TRUNC")
                return real(path, flags, *args, **kwargs)
            return os_open

        def watch_open(real):
            def open_(file, mode="r", *args, **kwargs):
                if is_out(file):
                    opened.append("open")
                    if "w" in mode:
                        faults.append(f"open(path, {mode!r})")
                return real(file, mode, *args, **kwargs)
            return open_

        def watch_rename(name, real):
            def rename(src, dst, *args, **kwargs):
                if is_out(dst):
                    faults.append(f"os.{name} onto the output")
                return real(src, dst, *args, **kwargs)
            return rename

        monkeypatch.setattr(os, "open", watch_os_open(os.open))
        monkeypatch.setattr(builtins, "open", watch_open(builtins.open))
        for name in ("replace", "rename"):
            monkeypatch.setattr(os, name, watch_rename(name, getattr(os, name)))
        code = run(["simulate", "--config", cfg, "--out", str(out)])
        monkeypatch.undo()
        assert code == 0
        assert opened and faults == []
        assert out.read_text().startswith(TRAJECTORY_HEADER + "\n")
