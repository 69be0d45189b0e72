"""One run of one workload, in a fresh interpreter started by ``run.py``.

After a warm-up it sets up the program SETUP_REPS times in one block
and keeps the median set-up time, then calls the engine again and again
until ``--seconds`` have passed, checking every output.  Set-ups and
untraced engine calls are timed on a ``HostClock`` (``hostclock.py``),
which gives each its wall time and its time at the host's reference
speed; the end-to-end times are the latter.  With
``--trace 1`` it then repeats set-up and one engine call with every
layer wrapped, checks that the traced call
reproduces the untraced outputs exactly, and writes the spans as JSONL.
The last line of standard output is one JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import paulitree
from paulitree import (NoiseParams, Thresholds, build_basic_program, elaborate,
                       program_hash, run_analytical, run_mc)

import layers
import workloads
from hostclock import HostClock, Timing
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "out"

#: timed set-up repetitions (about 0.1 s each); a single reading varies
#: by +-30%, so the median of many is reported
SETUP_REPS = 30

ENGINE_SPAN = {"analytical": "engine", "mc": "montecarlo"}


def setup(params: NoiseParams, tracer: Tracer | None = None):
    """Build, elaborate and hash the basic program; returns the program,
    its hash and the seconds each of the three parts took."""
    parts = []

    def timed(name, fn, *args):
        with tracer.span(name) if tracer else nullcontext():
            t0 = time.perf_counter()
            out = fn(*args)
            parts.append(time.perf_counter() - t0)
        return out

    prog = timed("program.build", build_basic_program, params)
    prog = timed("program.elaborate", elaborate, prog)
    digest = timed("program.hash", program_hash, prog)
    return prog, digest, parts


def time_setups(params: NoiseParams):
    """SETUP_REPS set-ups in one block, each from a freshly collected heap
    and timed on the host clock: the last program, the set of hashes seen,
    each one's Timing and each one's part times (wall, ticks included)."""
    clock = HostClock()
    hashes, timings, parts, prog = set(), [], [], None
    for _ in range(SETUP_REPS):
        prog = None
        gc.collect()
        with clock.timed() as timing:
            prog, digest, rep_parts = setup(params)
        hashes.add(digest)
        timings.append(timing)
        parts.append(rep_parts)
    return prog, hashes, timings, parts


def call_engine(w: workloads.Workload, prog, seed: int, tracer: Tracer | None = None):
    """One engine call: (its Timing, outputs that must repeat, check problems).

    An untraced call is timed on the host clock; the traced one inside
    its span, by wall time alone (its reference time is set equal)."""
    def engine():
        if w.engine == "analytical":
            return run_analytical(prog, Thresholds(*w.thresholds))
        return run_mc(prog, w.samples, seed)

    if tracer is None:
        with HostClock().timed() as timing:
            rep = engine()
    else:
        with tracer.span(ENGINE_SPAN[w.engine]):
            t0 = time.perf_counter()
            rep = engine()
            wall = time.perf_counter() - t0
        timing = Timing(wall, wall)
    if w.engine == "analytical":
        outputs = [rep.crash_probability, rep.survival_probability, rep.discarded_mass,
                   rep.peak_error_map_entries, rep.steps_executed]
        return timing, outputs, workloads.check_analytical(w, rep, len(prog.steps))
    return timing, [rep.crashes, rep.iterations], workloads.check_mc(w, rep)


def provenance(seed: int, digest: str) -> dict:
    """Where and on what the numbers were taken."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        ours = top.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT
        git = lines[1] if ours else "none"
    except (OSError, subprocess.SubprocessError):
        git = "none"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git": git,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mc_seed": seed,
        "program_hash": digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if Path(paulitree.__file__).resolve().parent != ROOT / "src" / "paulitree":
        raise SystemExit("paulitree imported from %s, not from this checkout"
                         % paulitree.__file__)

    w = workloads.get(args.workload, args.smoke)
    params = NoiseParams(global_scale=w.scale)
    setup(params)  # warm-up: first-call costs are not set-up time
    prog, hashes, setups, parts = time_setups(params)

    problems, calls, first, failed = [], [], None, 0
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            timing, outputs, bad = call_engine(w, prog, args.seed)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            traceback.print_exc()
            wall = time.perf_counter() - t0
            timing, outputs, bad = Timing(wall, wall), None, [repr(exc)]
        if outputs is not None:
            if first is None:
                first = outputs
            elif outputs != first:
                bad.append("outputs %r differ from the first run's %r" % (outputs, first))
        calls.append(timing)
        failed += bool(bad)
        problems += bad
        if time.perf_counter() - start >= args.seconds:
            break

    if len(hashes) != 1:
        problems.append("set-up gave %d program hashes: %s" % (len(hashes), sorted(hashes)))
    digest = min(hashes)
    run_s = statistics.median(t.ref_s for t in calls)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "attempted": len(calls),
        "failed": failed,
        "problems": problems,
        "outputs": first,
        "run_s_each": [t.ref_s for t in calls],
        "run_wall_s_each": [t.wall_s for t in calls],
        "end_to_end": {
            "setup_s": statistics.median(t.ref_s for t in setups),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "wall": {
            "setup_wall_s": statistics.median(t.wall_s for t in setups),
            "run_wall_s": statistics.median(t.wall_s for t in calls),
            "host_slowdown": statistics.median(t.slowdown for t in calls),
        },
        "provenance": provenance(args.seed, digest),
    }
    if w.engine == "mc":
        record["samples_per_s"] = w.samples / run_s
    if args.trace:
        traced_run(w, params, args, record, [statistics.median(p) for p in zip(*parts)])
    print(json.dumps(record))
    return 0


def traced_run(w, params, args, record, setup_parts) -> None:
    """The traced set-up and engine call; adds per-layer metrics to ``record``."""
    run_id = "%s/seed%d%s" % (w.name, args.seed, "/smoke" if args.smoke else "")
    tracer = Tracer(run_id)
    layers.install(tracer)
    try:
        prog, digest, _ = setup(params, tracer)
        timing, outputs, bad = call_engine(w, prog, args.seed, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
        traceback.print_exc()
        prog, bad = None, [repr(exc)]
    finally:
        tracer.restore()
    if prog is not None:
        if digest != record["provenance"]["program_hash"]:
            bad.append("traced program hash %s differs from %s"
                       % (digest, record["provenance"]["program_hash"]))
        if outputs != record["outputs"]:
            bad.append("traced outputs %r differ from untraced %r"
                       % (outputs, record["outputs"]))
    record["attempted"] += 1
    record["failed"] += bool(bad)
    record["problems"] += bad
    record["missing"] = tracer.missing
    if prog is None:  # no traced call to split: no per-layer metrics
        record["per_layer"], record["absent"], record["trace_file"] = {}, [], None
        return

    known = dict(zip(("program.build_s", "program.elaborate_s", "program.hash_s"), setup_parts))
    known.update(layers.program_counts(prog))
    known["trace.overhead_s"] = timing.wall_s - record["wall"]["run_wall_s"]
    peak = outputs[3] if w.engine == "analytical" else 0
    record["per_layer"], record["absent"] = layers.metrics(tracer, known, peak)
    path = TRACE_DIR / ("trace-%s%s.jsonl" % (w.name, "-smoke" if args.smoke else ""))
    tracer.write_jsonl(path, {"run": run_id, "provenance": record["provenance"],
                              "per_layer": record["per_layer"], "absent": record["absent"]})
    record["trace_file"] = str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
