"""paulitree benchmark: the four roadmap fixed points, end to end and per layer.

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload basic-1x --seed 3 --trace 0
    python3 perfbench/run.py --workload mc-100x --trace 1   # per-layer split

Each workload runs in its own fresh child process, one at a time and
single-threaded.  The child's outputs are checked; a run that raises,
is killed or fails a check counts as failed instead of stopping the
benchmark.  For every workload the report prints each metric with its
unit, the provenance of the numbers, and as its last line one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: default measuring window: BENCHMARK.json's run_seconds
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

#: a child still running this long after its measuring window is killed
#: and counted as failed (set-up, imports and the last engine call, which
#: may start just before the window closes, fit well inside it)
CHILD_SLACK_S = 155

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in a fresh child process and return its record.

    A child that dies, times out or prints no record yields a record
    with one failed, attempted run and no metrics."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    # one thread: keep numpy's BLAS pool from starting workers on the second core
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = seconds + CHILD_SLACK_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return _dead(name, seed, "killed after %g s" % timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _dead(name, seed, "child exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def _dead(name: str, seed: int, why: str) -> dict:
    return {"workload": name, "seed": seed, "attempted": 1, "failed": 1,
            "problems": [why], "dead": True}


def result(record: dict, trace: bool) -> dict:
    """The JSON object printed last: correctness, counts and metrics."""
    if record.get("dead"):
        metrics = {}
    elif trace:
        metrics = record["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in record["end_to_end"].items()}
    return {"correct": not record["problems"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(record: dict, trace: bool) -> None:
    print("== %s  seed %d" % (record["workload"], record["seed"]))
    if not record.get("dead"):
        for k, v in record["end_to_end"].items():
            print("%-40s %.6g %s" % (k, v, E2E_UNITS[k]))
        for k, v in record["wall"].items():
            print("%-40s %.6g %s" % (k, v, "ratio" if k == "host_slowdown" else "s"))
        for k in ("run_s_each", "run_wall_s_each"):
            print("%-40s %s" % (k, " ".join("%.4g" % t for t in record[k])))
        if "samples_per_s" in record:
            print("%-40s %.6g 1/s" % ("samples_per_s", record["samples_per_s"]))
    print("%-40s %.6g ratio (%d of %d)" % ("failed_frac", record["failed"] / record["attempted"],
                                      record["failed"], record["attempted"]))
    if trace and not record.get("dead"):
        for k, m in record["per_layer"].items():
            print("%-40s %.6g %s" % (k, m["value"], m["unit"]))
        print("absent", json.dumps(record["absent"]), "missing", json.dumps(record["missing"]))
        print("trace_file", record["trace_file"])
    for problem in record["problems"]:
        print("problem", problem)
    if not record.get("dead"):
        print("outputs", json.dumps(record["outputs"]))
        print("provenance", json.dumps(record["provenance"]))
    print(json.dumps(result(record, trace)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1, help="Monte Carlo seed (default 1)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measure engine calls for this long, at least one call "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced pass and print per-layer metrics")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "paulitree" / "__init__.py").is_file():
        print("no paulitree sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record, bool(args.trace))
        status |= bool(record.get("dead"))
    return status


if __name__ == "__main__":
    sys.exit(main())
