"""Monte Carlo baseline: sample concrete error strings through a program.

Each iteration carries one packed Pauli string over the whole machine,
one row of a (rows, words) key array.  Every step is read from
:data:`~paulitree.program.STEP_KINDS`, with global qubit IDs as key
positions: an error event, a kind with no kernel, XORs into a row, with
the step's probability, one row of its outcome table
:func:`~paulitree.errormap.event_patterns`, chosen uniformly among the
same 3 (or 15) rows the analytical engine branches on; every other step
applies the key-array kernel the analytical engine applies; the crash
count uses the same ``correctable`` mask.  A sample is always global, so
the QubitSets the analytical engine merges and splits play no part here.
This module holds only what is specific to sampling: drawing the events
and chunking.

Iterations are vectorized in fixed-size chunks drawn from one PCG64
stream, spawned from the seed's sequence, so results for a given
(program, iterations, seed) are bit-for-bit reproducible.

Within a chunk of n rows, row r of the e-th event with f > 0 reads the
double at position e*n + r of the stream, counted from the chunk's
start, one 64-bit draw per double.  Since ``PCG64.advance`` reaches any
position in O(log d) steps, the rows are cut into W contiguous ranges
run at once on a thread pool: the worker for rows [r0, r0 + m) starts
from its own copy of the generator advanced to r0, runs every step on
those m rows of the key array, and after each event with f > 0 draws
its m uniforms into one buffer and skips the other n - m.  The caller
then advances its generator past the chunk's draws, so the keys, the
tally and the generator state after a chunk are those of drawing every
event in turn, for any W.  W is the number of CPUs this process may run
on, capped at n and at :data:`_THREADS`; it is not an option, since it
cannot change a result.  Once a worker fails, the others stop before
their next step.  The pool is shut down within each chunk, so no thread
is alive when the crash mask is computed.
"""

from __future__ import annotations

import copy
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import qecc
from .errormap import _nwords, _slot, check_event_probability, event_patterns
from .program import Program, initial_labels, step_kind, step_operands

_U64 = np.uint64
_CHUNK = 1 << 16
_Z95 = 1.96
# Most threads a chunk's rows are cut across.  Every worker walks all the
# steps in Python and holds the GIL to do so, about 0.13 s per chunk of
# the basic program, so that part grows with W while the kernel work
# shrinks.  On 2 vCPUs, a 65,536-row chunk at 1x took 6.3-7.5 s on one
# thread, 4.6-4.8 s on two, 4.1-5.3 s on four and 11 s on eight; the
# steps alone (one row a worker) took 0.13, 0.24-0.47, 0.47-0.94 and
# 1.8-2.3 s.  No host with more CPUs was measured.
_THREADS = 2


@dataclass(frozen=True)
class MCReport:
    """Outcome of one Monte Carlo run with a Wilson score 95% interval.

    ``threads`` is the number of threads the rows of a chunk are split
    across; it does not change the tally."""

    iterations: int
    crashes: int
    crash_rate: float
    ci95_low: float
    ci95_high: float
    seed: int
    threads: int
    wall_time_s: float


def _wilson95(crashes: int, iterations: int) -> tuple[float, float]:
    """Wilson score 95% interval of a binomial rate; unlike the Wald
    interval it stays inside [0, 1] and is not empty at 0 crashes."""
    z2 = _Z95 * _Z95
    mid = crashes + z2 / 2
    half = _Z95 * math.sqrt(crashes * (iterations - crashes) / iterations + z2 / 4)
    return max(0.0, (mid - half) / (iterations + z2)), min(1.0, (mid + half) / (iterations + z2))


def _xor_hits(keys: np.ndarray, patterns: np.ndarray, f: float, u: np.ndarray) -> None:
    """Error event on the rows whose uniform in ``u`` falls below f: each
    XORs in pattern i = min(floor(u * k / f), k - 1) of the k outcome
    patterns, reusing its triggering uniform u to pick among the
    outcomes uniformly."""
    rows = np.flatnonzero(u < f)
    if rows.size == 0:
        return
    k = patterns.shape[0]
    pick = np.minimum((u[rows] * (k / f)).astype(np.int64), k - 1)
    for w in range(keys.shape[1]):  # by column: a 2-D row scatter is slower
        keys[rows, w] ^= patterns[pick, w]


def _stream_at(rng, delta: int):
    """A generator on a copy of ``rng``'s PCG64 stream, ``delta`` draws on."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator).advance(delta))


def _run_rows(prog: Program, keys: np.ndarray, gen, n: int, failed) -> None:
    """Run every step on ``keys``, m consecutive rows of a chunk of n,
    with ``gen`` at the first one's position of the chunk's stream: each
    event with f > 0 reads the m uniforms of these rows and skips the
    other n - m.  Stops before a step once the ``failed`` event is set,
    and sets it when a step raises."""
    width = prog.num_qubits
    u = np.empty(keys.shape[0])
    skip = n - u.size
    try:
        for step in prog.steps:
            if failed.is_set():
                return
            spec = step_kind(step)
            qubits = spec.operands(step)
            if spec.kernel is not None:
                spec.function(keys, *spec.args(step, qubits))
            elif step.f > 0.0:
                _xor_hits(keys, event_patterns(width, *qubits), step.f, gen.random(out=u))
                gen.bit_generator.advance(skip)
    except BaseException:
        failed.set()
        raise


def _run_chunk(prog: Program, n: int, rng, labels: dict, threads: int) -> int:
    """Crash count of ``n`` rows sampled by :func:`_sample`."""
    keys = _sample(prog, n, rng, labels, threads)
    return n - int(np.count_nonzero(qecc.correctable(keys, prog.crash_blocks)))


def _sample(prog: Program, n: int, rng, labels: dict, threads: int) -> np.ndarray:
    """The keys of ``n`` rows at the end of the program, their rows cut
    into ``threads`` ranges (at most n) run at once; leaves ``rng`` after
    the chunk's draws.

    Every step is checked in order before any runs, so a bad step is
    reported as the serial sampler would report it."""
    # imported here, so that the analytical engine never loads it
    from concurrent.futures import ThreadPoolExecutor

    width = prog.num_qubits
    events = 0
    for step in prog.steps:
        spec = step_kind(step)
        step_operands(spec, step, width)
        if spec.kernel is None:
            check_event_probability(step.f)
            events += step.f > 0.0
    keys = np.zeros((n, _nwords(width)), dtype=_U64)
    for q, label in labels.items():
        w, sh = _slot(q)
        keys[:, w] |= _U64(int(label)) << _U64(sh)
    threads = min(threads, n)
    cuts = [n * i // threads for i in range(threads + 1)]
    failed = threading.Event()
    with ThreadPoolExecutor(threads) as pool:
        runs = [pool.submit(_run_rows, prog, keys[r0:r1], _stream_at(rng, r0), n, failed)
                for r0, r1 in zip(cuts, cuts[1:])]
        for run in runs:
            run.result()
    rng.bit_generator.advance(events * n)
    return keys


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_mc(prog: Program, iterations: int, seed: int,
           initial_errors: dict | None = None) -> MCReport:
    """Monte Carlo run of ``iterations`` samples on the first spawned
    child of the seed's sequence; the tally does not depend on the number
    of threads the rows are split across (the CPUs this process may run
    on, at most :data:`_THREADS`).  ``initial_errors`` is checked as in
    :func:`run_analytical`, by :func:`~paulitree.program.initial_labels`.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    labels = initial_labels(prog, initial_errors)
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    threads = min(_cpus(), _THREADS, iterations)
    crashes = 0
    for done in range(0, iterations, _CHUNK):
        crashes += _run_chunk(prog, min(_CHUNK, iterations - done), rng, labels, threads)
    low, high = _wilson95(crashes, iterations)
    return MCReport(
        iterations=iterations,
        crashes=crashes,
        crash_rate=crashes / iterations,
        ci95_low=low,
        ci95_high=high,
        seed=seed,
        threads=threads,
        wall_time_s=time.perf_counter() - start,
    )
