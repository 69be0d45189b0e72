"""Monte Carlo baseline: sample concrete error strings through a program.

Each iteration carries one packed Pauli string over the whole machine,
one row of a (rows, words) key array.  Every step is read from
:data:`~paulitree.program.STEP_KINDS`, with global qubit IDs as key
positions: an error event XORs, with the step's probability, one of its
outcome patterns into a row, chosen uniformly among the same 3 (or 15)
rows the analytical engine branches on; every other step applies the
key-array kernel the analytical engine applies; the crash count uses the
same ``correctable`` mask.  A sample is always global, so the QubitSets
the analytical engine merges and splits play no part here.  This module
holds only what is specific to sampling: drawing the events, chunking
and sharding.

Iterations are vectorized in fixed-size chunks, so results for a given
(program, iterations, seed, shards) tuple are bit-for-bit reproducible.
Shards draw from independent spawned substreams of one PCG64 generator
(period far beyond any feasible run length), so multi-shard runs remain
reproducible and shards never overlap.

Within a chunk of n rows, the e-th event with f > 0 reads the n doubles
at positions [e*n, (e+1)*n) of the shard's stream, counted from the
chunk's start, one 64-bit draw per double.  Since ``PCG64.advance``
reaches any position in O(log d) steps, the uniforms are drawn on W
threads at once: the events are cut into blocks of ``_BLOCK``, and
block b is drawn by thread b mod W, from its own copy of the generator
advanced to b*_BLOCK*n, into one scratch buffer of n doubles that lives
as long as the block.  A thread hands back only the rows each event hits
and their uniforms.  The calling thread is thread 0 and draws its own
blocks as it reaches them; the W - 1 helpers draw at most ``_AHEAD``
blocks ahead.  Only the calling thread touches the keys, in step order,
and it then advances its generator past the chunk's draws, so the keys,
the tally and the generator state after a chunk are those of drawing
every event in turn, for any W.  W is the number of CPUs this process
may run on, divided among the shard processes that ``jobs`` starts, and
at least 1; it is not an option, since it cannot change a result.
Helpers are started and joined within each chunk, so no thread is alive
when the shard pool forks or when the crash mask is computed.
"""

from __future__ import annotations

import copy
import math
import os
import queue
import threading
import time
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import qecc
from .errormap import _nwords, _slot, check_event_probability
from .program import Program, initial_labels, step_kind, step_operands

_U64 = np.uint64
_CHUNK = 1 << 16
#: drawing events per block, the unit of work handed to one thread
_BLOCK = 256
#: blocks a helper thread may draw before the caller takes them
_AHEAD = 2
_Z95 = 1.96


@dataclass(frozen=True)
class MCReport:
    """Outcome of one Monte Carlo run with a Wilson score 95% interval.

    ``threads`` is the number of threads that drew each shard's
    uniforms; it does not change the tally."""

    iterations: int
    crashes: int
    crash_rate: float
    ci95_low: float
    ci95_high: float
    seed: int
    shards: int
    threads: int
    wall_time_s: float


def _wilson95(crashes: int, iterations: int) -> tuple[float, float]:
    """Wilson score 95% interval of a binomial rate; unlike the Wald
    interval it stays inside [0, 1] and is not empty at 0 crashes."""
    z2 = _Z95 * _Z95
    mid = crashes + z2 / 2
    half = _Z95 * math.sqrt(crashes * (iterations - crashes) / iterations + z2 / 4)
    return max(0.0, (mid - half) / (iterations + z2)), min(1.0, (mid + half) / (iterations + z2))


def _hits(u: np.ndarray, f: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose uniform in ``u`` falls below f, and those uniforms."""
    rows = np.flatnonzero(u < f).astype(np.int32)
    return rows, u[rows]


def _xor_hits(keys: np.ndarray, patterns: np.ndarray, f: float,
              rows: np.ndarray, u: np.ndarray) -> None:
    """Error event on the hit ``rows``: each XORs in pattern
    i = min(floor(u * k / f), k - 1) of the k outcome patterns, reusing
    its triggering uniform u to pick among the outcomes uniformly."""
    if rows.size == 0:
        return
    k = patterns.shape[0]
    pick = np.minimum((u * (k / f)).astype(np.int64), k - 1)
    for w in range(keys.shape[1]):  # by column: a 2-D row scatter is slower
        keys[rows, w] ^= patterns[pick, w]


def _draw_block(gen, n: int, fs: list[float]) -> list:
    """(f, rows, uniforms) of the hits of each event in ``fs``, its n
    uniforms drawn in turn from ``gen`` into one scratch buffer."""
    buf = np.empty(n)
    return [(f, *_hits(gen.random(out=buf), f)) for f in fs]


def _stream_at(rng, delta: int):
    """A generator on a copy of ``rng``'s PCG64 stream, ``delta`` draws on."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator).advance(delta))


def _helper(gen, fs: list[float], starts: range, n: int, skip: int,
            credits, out, stop) -> None:
    """Put into ``out`` each block of ``fs`` that begins at one of
    ``starts``, drawing it once ``credits`` allows and then skipping the
    ``skip`` draws of the other threads' blocks."""
    try:
        for s in starts:
            credits.acquire()
            if stop.is_set():
                return
            out.put(_draw_block(gen, n, fs[s:s + _BLOCK]))
            gen.bit_generator.advance(skip)
    except Exception as exc:  # handed to the caller, which raises it
        out.put(exc)


def _event_hits(rng, fs: list[float], n: int, threads: int):
    """Yield the (f, rows, uniforms) hits of each drawing event in turn,
    the e-th drawn from ``rng``'s stream at e*n, on up to ``threads``
    threads; ``rng`` is not moved.  Closing the generator joins the
    helpers."""
    starts = range(0, len(fs), _BLOCK)
    threads = max(1, min(threads, len(starts)))
    skip = (threads - 1) * _BLOCK * n
    stop = threading.Event()
    lanes = [(threading.Semaphore(_AHEAD), queue.SimpleQueue()) for _ in range(1, threads)]
    helpers = [threading.Thread(target=_helper, daemon=True, args=(
        _stream_at(rng, t * _BLOCK * n), fs, starts[t::threads], n, skip, *lanes[t - 1], stop))
        for t in range(1, threads)]
    try:
        for h in helpers:
            h.start()
        own = _stream_at(rng, 0)
        for b, s in enumerate(starts):
            if b % threads == 0:
                block = _draw_block(own, n, fs[s:s + _BLOCK])
                own.bit_generator.advance(skip)
            else:
                credits, out = lanes[b % threads - 1]
                block = out.get()
                credits.release()
                if isinstance(block, Exception):
                    raise block
            yield from block
    finally:
        stop.set()
        for credits, _ in lanes:
            credits.release()  # wakes a helper waiting for a credit
        for h in helpers:
            if h.ident is not None:
                h.join()


def _run_chunk(prog: Program, n: int, rng, labels: dict, threads: int) -> int:
    """Crash count of ``n`` rows sampled by :func:`_sample`."""
    keys = _sample(prog, n, rng, labels, threads)
    return n - int(np.count_nonzero(qecc.correctable(keys, prog.crash_blocks)))


def _sample(prog: Program, n: int, rng, labels: dict, threads: int) -> np.ndarray:
    """The keys of ``n`` rows at the end of the program, their uniforms
    drawn on ``threads`` threads; leaves ``rng`` after the chunk's draws.

    A first pass checks every step in order and collects the f of each
    drawing event, so the helpers can draw ahead; the second runs them."""
    width = prog.num_qubits
    fs = []
    for step in prog.steps:
        spec = step_kind(step)
        step_operands(spec, step, width)
        if spec.patterns is not None:
            check_event_probability(step.f)
            if step.f > 0.0:
                fs.append(step.f)
    keys = np.zeros((n, _nwords(width)), dtype=_U64)
    for q, label in labels.items():
        w, sh = _slot(q)
        keys[:, w] |= _U64(int(label)) << _U64(sh)
    with closing(_event_hits(rng, fs, n, threads)) as hits:
        for step in prog.steps:
            spec = step_kind(step)
            qubits = spec.operands(step)
            if spec.patterns is not None:
                if step.f > 0.0:
                    _xor_hits(keys, spec.patterns(width, *qubits), *next(hits))
            elif spec.kernel is not None:
                spec.function(keys, *spec.args(step, qubits))
    rng.bit_generator.advance(len(fs) * n)
    return keys


def _run_shard(job: tuple) -> int:
    """Crash count of one shard; ``job`` is (program, iterations, seed
    sequence, initial labels, drawing threads)."""
    prog, iterations, child, labels, threads = job
    rng = np.random.default_rng(child)
    crashes = 0
    for done in range(0, iterations, _CHUNK):
        crashes += _run_chunk(prog, min(_CHUNK, iterations - done), rng, labels, threads)
    return crashes


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_mc(prog: Program, iterations: int, seed: int, shards: int = 1, jobs: int = 1,
           initial_errors: dict | None = None) -> MCReport:
    """Monte Carlo run split over ``shards`` independent random substreams.

    Iterations are divided as evenly as possible across shards; shard i
    uses the i-th spawned child of the seed's sequence, so a run is
    reproducible for a fixed shard count regardless of ``jobs`` (the
    number of worker processes; tallies are a pure sum over shards) and
    of the number of threads that draw each shard's uniforms (the CPUs
    this process may run on, divided among the worker processes).
    ``initial_errors`` is checked as in :func:`run_analytical`, by
    :func:`~paulitree.program.initial_labels`.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    labels = initial_labels(prog, initial_errors)
    start = time.perf_counter()
    children = np.random.SeedSequence(seed).spawn(shards)
    base, extra = divmod(iterations, shards)
    sizes = [base + (1 if i < extra else 0) for i in range(shards)]
    procs = min(jobs, shards - sizes.count(0)) if jobs > 1 else 1
    threads = max(1, _cpus() // procs)
    work = [(prog, size, child, labels, threads)
            for size, child in zip(sizes, children) if size]
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs) as pool:
            crashes = sum(pool.map(_run_shard, work))
    else:
        crashes = sum(_run_shard(w) for w in work)
    low, high = _wilson95(crashes, iterations)
    return MCReport(
        iterations=iterations,
        crashes=crashes,
        crash_rate=crashes / iterations,
        ci95_low=low,
        ci95_high=high,
        seed=seed,
        shards=shards,
        threads=threads,
        wall_time_s=time.perf_counter() - start,
    )
