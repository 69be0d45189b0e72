"""Monte Carlo baseline: sample concrete error strings through a program.

Each iteration carries one packed Pauli string over the whole machine,
one row of a (rows, words) key array.  This module holds only what is
specific to sampling: error events flip labels with the step's
probability, choosing among the 3 (or 15) non-identity outcomes
uniformly, and iterations are chunked and sharded.  Every other step
applies the key-array kernel the analytical engine applies (see
:data:`~paulitree.program.STEP_KINDS`), with global qubit IDs as key
positions, and the crash count uses the same ``correctable`` mask.
Merge and split steps have no kernel since a sample is always global.

Iterations are vectorized in fixed-size chunks, so results for a given
(program, iterations, seed, shards) tuple are bit-for-bit reproducible.
Shards draw from independent spawned substreams of one PCG64 generator
(period far beyond any feasible run length), so multi-shard runs remain
reproducible and shards never overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qecc
from .errormap import _nwords, _slot
from .program import OneQubitEvent, Program, ProgramError, TwoQubitEvent, step_kind

_U64 = np.uint64
_CHUNK = 1 << 16


@dataclass(frozen=True)
class MCReport:
    """Outcome of one Monte Carlo run with a binomial 95% interval."""

    iterations: int
    crashes: int
    crash_rate: float
    ci95_halfwidth: float
    seed: int
    shards: int
    wall_time_s: float


def _xor_label(keys: np.ndarray, rows: np.ndarray, q: int, labels: np.ndarray) -> None:
    w, s = _slot(q)
    keys[rows, w] ^= labels.astype(_U64) << _U64(s)


def _one_qubit_event(keys: np.ndarray, q: int, f: float, rng) -> None:
    if f <= 0.0:
        return
    u = rng.random(keys.shape[0])
    rows = np.nonzero(u < f)[0]
    if rows.size == 0:
        return
    # reuse the triggering uniform to pick among X, Y, Z uniformly
    pick = np.minimum((u[rows] * (3.0 / f)).astype(np.int64), 2)
    _xor_label(keys, rows, q, pick + 1)


def _two_qubit_event(keys: np.ndarray, qa: int, qb: int, f: float, rng) -> None:
    if f <= 0.0:
        return
    u = rng.random(keys.shape[0])
    rows = np.nonzero(u < f)[0]
    if rows.size == 0:
        return
    pick = np.minimum((u[rows] * (15.0 / f)).astype(np.int64), 14) + 1
    _xor_label(keys, rows, qa, pick >> 2)
    _xor_label(keys, rows, qb, pick & 3)


def _run_chunk(prog: Program, n: int, rng, initial_errors=None) -> int:
    keys = np.zeros((n, _nwords(prog.num_qubits)), dtype=_U64)
    for q, label in (initial_errors or {}).items():
        w, sh = _slot(q)
        keys[:, w] |= _U64(int(label)) << _U64(sh)
    for step in prog.steps:
        kind = type(step)
        if kind is OneQubitEvent:
            _one_qubit_event(keys, step.qubit, step.f, rng)
        elif kind is TwoQubitEvent:
            _two_qubit_event(keys, step.qubit_a, step.qubit_b, step.f, rng)
        else:
            spec = step_kind(step)
            if spec.kernel is not None:
                spec.function(keys, *spec.args(step, spec.operands(step)))
    return n - int(np.count_nonzero(qecc.correctable(keys, prog.crash_blocks)))


def _run_shard(prog: Program, iterations: int, rng, initial_errors=None) -> int:
    crashes = 0
    done = 0
    while done < iterations:
        n = min(_CHUNK, iterations - done)
        crashes += _run_chunk(prog, n, rng, initial_errors)
        done += n
    return crashes


def _shard_job(args: tuple) -> int:
    prog, n, child, initial_errors = args
    return _run_shard(prog, n, np.random.default_rng(child), initial_errors)


def run_mc_parallel(prog: Program, iterations: int, seed: int,
                    shards: int, jobs: int = 1,
                    initial_errors: dict | None = None) -> MCReport:
    """Monte Carlo run split over independent random substreams.

    Iterations are divided as evenly as possible across shards; shard i
    uses the i-th spawned child of the seed's sequence, so a run is
    reproducible for a fixed shard count regardless of ``jobs`` (the
    number of worker processes; tallies are a pure sum over shards).
    """
    if not prog.elaborated:
        raise ProgramError("program must be elaborated before execution")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    start = time.perf_counter()
    children = np.random.SeedSequence(seed).spawn(shards)
    base, extra = divmod(iterations, shards)
    work = [
        (prog, base + (1 if i < extra else 0), child, initial_errors)
        for i, child in enumerate(children)
        if base + (1 if i < extra else 0)
    ]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            crashes = sum(pool.map(_shard_job, work))
    else:
        crashes = sum(_shard_job(w) for w in work)
    p = crashes / iterations
    ci = 1.96 * np.sqrt(p * (1.0 - p) / iterations)
    return MCReport(
        iterations=iterations,
        crashes=crashes,
        crash_rate=p,
        ci95_halfwidth=float(ci),
        seed=seed,
        shards=shards,
        wall_time_s=time.perf_counter() - start,
    )


def run_mc(prog: Program, iterations: int, seed: int,
           initial_errors: dict | None = None) -> MCReport:
    """Single-stream Monte Carlo run."""
    return run_mc_parallel(prog, iterations, seed, shards=1,
                           initial_errors=initial_errors)
