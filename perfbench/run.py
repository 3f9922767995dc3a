"""trireduce benchmark: four workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload record_dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

--trace 0 times the workload untraced and reports setup_s, op_us and
peak_rss_mb; --trace 1 runs a fixed amount of work untraced and then traced
and reports the per-layer table.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The full record
of the run (seed, environment, checks, accuracy, per-band counts) goes to
perfbench/out/.  See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported; child
# processes inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("record_dense", "expr_sparse", "figure8_report", "evaluate_mix")


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def report(run, env):
    """Human-readable lines; the caller prints the JSON line last."""
    from workloads import REFERENCE_S

    print(f"workload={run.workload} seed={run.seed} trace={int(run.trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    info = run.info
    if not run.trace:
        for name, m in run.metrics.items():
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        raw = info["raw"]
        print(f"  op_us, setup_s: medians of {len(raw['repeat'])} repeats and "
              f"{len(raw['setup'])} fresh processes, each divided by the reference "
              f"loop around it (median {statistics.median(raw['reference']) * 1e3:.3f} ms) "
              f"and scaled to {REFERENCE_S * 1e3:g} ms; raw repeat "
              f"median {statistics.median(raw['repeat']):.6g} us")
        if run.workload == "evaluate_mix":
            print(f"  eval_us_p50    {info['eval_us_p50']:.6g} us  eval_us_p99 "
                  f"{info['eval_us_p99']:.6g} us  (raw, n={info['eval_samples']} calls; "
                  f"a repeat is a balanced batch of {info['batch_size']} calls)")
        else:
            print(f"  step_us = op_us (a repeat is a CLI run of {info['steps_per_repeat']} steps)")
    share = run.failed / run.attempted
    print(f"  fail_share     {share:.6g} ({run.failed}/{run.attempted} operations)")
    for band, row in info.get("bands", {}).items():
        print(f"    band {band:<17} failed {row['failed']}/{row['attempted']} "
              f"raised {row['raised']} max_rel_err {row['max_rel_err']:.3g}")
    print("  accuracy " + " ".join(f"{k}={v:.4g}" for k, v in run.accuracy.items()))
    if "cli_summary" in info:
        print(f"  program said: {info['cli_summary']}")
    print("  checks " + " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in run.checks.items()))
    if run.trace:
        m = run.metrics
        print(f"  {'span':<42}{'calls':>9}{'self_s':>12}{'us/call':>11}")
        for key in m:
            if key.endswith(".calls"):
                span = key[: -len(".calls")]
                print(f"  {span:<42}{m[key]['value']:>9}"
                      f"{m[span + '.self_s']['value']:>12.6f}"
                      f"{m[span + '.us_per_call']['value']:>11.2f}")
        for key, value in m.items():
            if not key.endswith((".calls", ".self_s", ".us_per_call")):
                print(f"  {key:<42}{value['value']:.6g} {value['unit']}")
        print(f"  self times {m['trace.self_sum_s']['value']:.6f} s + unspanned "
              f"{m['trace.unspanned_s']['value']:.6f} s = traced wall "
              f"{m['trace.wall_s']['value']:.6f} s; untraced wall "
              f"{info['untraced_wall_s']:.6f} s")
        if info["absent_span_points"]:
            print("  absent span points: " + ", ".join(info["absent_span_points"]))


def run_all(args):
    """Each workload in its own process, then one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'workload':<16}{'correct':>8}{'failed':>16}  metrics")
    for name, res in results.items():
        metrics = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in res["metrics"].items()
                           if not args.trace)
        print(f"{name:<16}{str(res['correct']):>8}{res['failed']:>8}/{res['attempted']:<7}  {metrics}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trireduce" / "__init__.py").is_file():
        print(f"trireduce sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    env = environment()
    run = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT, SRC)
    record = {
        "workload": run.workload, "seed": run.seed, "trace": int(run.trace),
        "seconds": args.seconds, "env": env, "correct": run.correct,
        "attempted": run.attempted, "failed": run.failed, "checks": run.checks,
        "accuracy": run.accuracy, "info": run.info, "metrics": run.metrics,
    }
    path = OUT / f"result-{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    report(run, env)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
