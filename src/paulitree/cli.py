"""Experiment runner CLI: build benchmark programs, run either engine,
sweep pruning thresholds, and compare accuracy/runtime across engines.

Subcommands::

    paulitree run      one program, one threshold setting, one or both engines
    paulitree sweep    Cartesian grid of thresholds, analytical engine
    paulitree compare  ``run --mode both``: both engines on the same program

A run of both engines reports on the Monte Carlo row its speedup, the
Monte Carlo wall time over the analytical one.

Reports are CSV (RFC-4180, stable column set) or JSON (field-for-field
mirror), one row per engine run.  Rows record every input needed to
reproduce them: thresholds, seed, and a SHA-256 hash of the
program's step stream, which is identical for the analytical
and Monte Carlo rows of the same invocation.  An analytical row gives
``branch_calls``, the number of times its deferred events branched an
error map, and ``segments_replayed``, the number of closed segments
(ancilla preparations) it installed from an earlier identical one
instead of computing them (both blank on a Monte Carlo row).  A Monte
Carlo row also gives its Wilson score 95% interval, ``mc_faulted_rows``,
the samples its kernels ran on (those a *live* event hit: an event on
qubits with no live component is not drawn, though it keeps its stream
positions, so the tally is that of drawing it), and the number of
threads its samples are split across, which does not change its tally.
``run`` and ``compare`` default to thresholds (1e-6, 1e-12); 0 is
exact and may not finish on the basic program.
``sweep --jobs`` runs the grid points in that many worker processes,
each handed the program once.
When ``--output`` is a bare file name it is placed under
``$PAULITREE_OUTPUT_DIR`` if set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .engine import run_analytical
from .errormap import MergeMode, Thresholds
from .montecarlo import run_mc
from .noise import ConfigError, NoiseParams, load_params
from .program import (
    Program,
    build_basic_program,
    build_scaling_program,
    program_hash,
)

COLUMNS = [
    "program",
    "n",
    "engine",
    "event_threshold",
    "merge_threshold",
    "merge_mode",
    "survival",
    "crash",
    "discarded_mass",
    "peak_map_entries",
    "branch_calls",
    "segments_replayed",
    "wall_time_ms",
    "mc_iterations",
    "mc_ci95_low",
    "mc_ci95_high",
    "mc_faulted_rows",
    "seed",
    "threads",
    "program_hash",
    "inaccuracy",
    "speedup",
    "error",
]


def _load_noise(args) -> NoiseParams:
    if args.params:
        with open(args.params) as fh:
            params = load_params(fh.read())
    else:
        params = NoiseParams()
    if args.scale != 1.0:
        params = params.with_scale(args.scale)
    return params


def _build_program(args, params: NoiseParams) -> Program:
    if args.program == "basic":
        return build_basic_program(params)
    return build_scaling_program(args.n, params)


def _thresholds(event: float, merge: float, mode: str) -> Thresholds:
    return Thresholds(event_branch=event, merge=merge, merge_mode=MergeMode(mode))


def _base_row(args, prog: Program) -> dict:
    """The columns all rows of one invocation share: hashes the program."""
    return {
        "program": args.program,
        "n": prog.num_logical,
        "program_hash": program_hash(prog),
    }


def _analytical_row(base: dict, prog: Program, th: Thresholds) -> dict:
    row = dict(base)
    row.update(
        engine="analytical",
        event_threshold=th.event_branch,
        merge_threshold=th.merge,
        merge_mode=th.merge_mode.value,
    )
    try:
        rep = run_analytical(prog, th)
    except MemoryError:
        row["error"] = "out of memory"
        return row
    row.update(
        survival=rep.survival_probability,
        crash=rep.crash_probability,
        discarded_mass=rep.discarded_mass,
        peak_map_entries=rep.peak_error_map_entries,
        branch_calls=rep.branch_calls,
        segments_replayed=rep.segments_replayed,
        wall_time_ms=rep.wall_time_s * 1e3,
    )
    return row


def _mc_row(base: dict, args, prog: Program) -> dict:
    row = dict(base)
    row["engine"] = "montecarlo"
    try:
        rep = run_mc(prog, args.mc_iterations, args.seed)
    except MemoryError:
        row["error"] = "out of memory"
        return row
    row.update(
        survival=1.0 - rep.crash_rate,
        crash=rep.crash_rate,
        mc_iterations=rep.iterations,
        mc_ci95_low=rep.ci95_low,
        mc_ci95_high=rep.ci95_high,
        mc_faulted_rows=rep.faulted_rows,
        seed=rep.seed,
        threads=rep.threads,
        wall_time_ms=rep.wall_time_s * 1e3,
    )
    return row


def _write_rows(rows: list[dict], args) -> None:
    path = args.output
    if path and not os.path.isabs(path) and os.sep not in path:
        outdir = os.environ.get("PAULITREE_OUTPUT_DIR", "")
        if outdir:
            path = os.path.join(outdir, path)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=COLUMNS, restval="",
                                extrasaction="raise")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        full = [{col: row.get(col) for col in COLUMNS} for row in rows]
        text = json.dumps(full, indent=2) + "\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def cmd_run(args) -> int:
    params = _load_noise(args)
    prog = _build_program(args, params)
    base = _base_row(args, prog)
    rows = []
    if args.mode in ("analytical", "both"):
        th = _thresholds(args.event_th, args.merge_th, args.merge_mode)
        rows.append(_analytical_row(base, prog, th))
    if args.mode in ("montecarlo", "both"):
        rows.append(_mc_row(base, args, prog))
    if len(rows) == 2 and all("error" not in r for r in rows) and rows[0]["wall_time_ms"] > 0:
        rows[1]["speedup"] = rows[1]["wall_time_ms"] / rows[0]["wall_time_ms"]
    _write_rows(rows, args)
    return 0


# a sweep worker's (base row, program), set once by _sweep_init
_SWEEP: tuple = ()


def _sweep_init(base: dict, prog: Program) -> None:
    global _SWEEP
    _SWEEP = (base, prog)


def _sweep_point(th: Thresholds) -> dict:
    return _analytical_row(*_SWEEP, th)


def cmd_sweep(args) -> int:
    params = _load_noise(args)
    prog = _build_program(args, params)
    grid = [
        _thresholds(e, m, mode)
        for e in args.event_th
        for m in args.merge_th
        for mode in args.merge_mode
    ]
    if not grid:
        raise SystemExit("sweep: empty threshold grid")
    base = _base_row(args, prog)
    if args.jobs > 1 and len(grid) > 1:
        try:
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(grid)),
                                     initializer=_sweep_init, initargs=(base, prog)) as pool:
                rows = list(pool.map(_sweep_point, grid))
        except BrokenProcessPool as exc:
            raise SystemExit("sweep: a worker process died (the OS may have killed it "
                             "for memory): %s" % exc) from None
    else:
        rows = [_analytical_row(base, prog, th) for th in grid]
    # baseline = the finest grid point: smallest thresholds, preferring
    # preservation merging; inaccuracy is the relative crash-rate deviation
    def fineness(row):
        return (
            row.get("event_threshold", 0.0),
            row.get("merge_threshold", 0.0),
            row.get("merge_mode") != "preservation",
        )

    clean = [r for r in rows if "error" not in r and "crash" in r]
    if clean:
        base = min(clean, key=fineness)["crash"]
        for row in clean:
            if base > 0.0:
                row["inaccuracy"] = abs(row["crash"] - base) / base
            else:
                row["inaccuracy"] = abs(row["crash"] - base)
    _write_rows(rows, args)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--program", choices=["basic", "scaling"], default="basic")
    p.add_argument("--n", type=int, default=2,
                   help="logical qubits for the scaling program")
    p.add_argument("--params", help="noise config file (key = value lines)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="global noise scale multiplier")
    p.add_argument("--output", help="report path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


_EXACT = "; 0 is exact and may not finish on the basic program"


def _add_single_thresholds(p: argparse.ArgumentParser) -> None:
    # the defaults are perfbench's basic-1x point
    p.add_argument("--event-th", type=float, default=1e-6,
                   help="event branch threshold (default %(default)s)" + _EXACT)
    p.add_argument("--merge-th", type=float, default=1e-12,
                   help="merge threshold (default %(default)s)" + _EXACT)
    p.add_argument("--merge-mode", choices=["preservation", "lossy"],
                   default="preservation")


def _add_mc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mc-iterations", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulitree",
        description="Crash-rate estimation for error-corrected programs: "
        "analytical probability-tree model vs Monte Carlo sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single run of one or both engines")
    _add_common(p_run)
    p_run.add_argument("--mode", choices=["analytical", "montecarlo", "both"],
                       default="analytical")
    _add_single_thresholds(p_run)
    _add_mc(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="analytical threshold grid sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--event-th", type=_floats,
                         default=[1e-5, 1e-6, 1e-7],
                         help="comma-separated event branch thresholds" + _EXACT)
    p_sweep.add_argument("--merge-th", type=_floats,
                         default=[1e-10, 1e-12, 1e-14, 1e-16],
                         help="comma-separated merge thresholds" + _EXACT)
    p_sweep.add_argument("--merge-mode", type=lambda s: s.split(","),
                         default=["preservation", "lossy"],
                         help="comma-separated merge modes")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes for the grid points")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="accuracy/runtime comparison of "
                           "the two engines on the same event stream")
    _add_common(p_cmp)
    _add_single_thresholds(p_cmp)
    _add_mc(p_cmp)
    p_cmp.set_defaults(func=cmd_run, mode="both")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print("paulitree: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
