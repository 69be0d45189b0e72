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
This module holds only what is specific to sampling: drawing the events,
the rows they hit, and chunking.

Iterations are vectorized in fixed-size chunks drawn from one PCG64
stream, spawned from the seed's sequence, so results for a given
(program, iterations, seed) are bit-for-bit reproducible.

Within a chunk of n rows, row r of the e-th event with f > 0 reads the
double at position e*n + r of the stream, counted from the chunk's
start, one 64-bit draw per double.  Since ``PCG64.advance`` reaches any
position in O(log d) steps, the rows are cut into W contiguous ranges
run at once on a thread pool: the worker for rows [r0, r0 + m) starts
from its own copy of the generator advanced to r0, and after each event
with f > 0 draws its m uniforms into one array and skips the other
n - m.  The caller then advances its generator past the chunk's draws,
so the tally and the generator state after a chunk are those of drawing
every event in turn, for any W.  W is the number of CPUs this process
may run on, capped at n and at :data:`_THREADS`; it is not an option,
since it cannot change a result.

An event whose qubits have no live component where it stands, by the
liveness pass :func:`~paulitree.program.liveness` walked forward, is not
drawn: its hits could only flip components that no later readout or the
crash observable reads.  It keeps its stream positions, which the
worker skips, so every drawn event reads the doubles it would read if
all were drawn, and the crash of each row, the tally and the generator
state are those of drawing every event.  The keys agree on the live
components.  On the basic program 8,018 of the 26,944 events with f > 0
(30%) are skipped, nearly all idle decoherence on ancilla and verifier
qubits waiting for their next ``Reset``.

Kernels run only on the rows a drawn event has hit.  Every kernel maps
the zero key to itself and the zero key is correctable, so a row no
drawn event has hit needs no kernel and cannot crash.  Each worker keeps
a :class:`_RowBuffer` of its faulted rows: a row joins it, with the zero
key, when a drawn event first hits it, and every kernel runs on the
buffer's keys alone.  At 1x noise about 9% of rows ever join; injected
faults put every row in from the start.  The draws do not depend on the
buffer.

Once per call, before any row runs, one read of
:func:`~paulitree.program.checked_steps` checks every step in order, so
a bad step is reported as the serial sampler would report it, and
builds the op list every chunk's workers walk: (kernel, args) for a
kernel step, (None, (patterns, f)) for a drawn event and (None, c) for a
run of c skipped ones.  The kernels are read from their modules then,
so a wrapper put in a kernel's place before the call sees every call.
Once a worker fails, the others stop before their next op.  The pool is
shut down within each chunk, so no thread is alive when the crash mask
is computed.
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
from .errormap import _nwords, _slot, event_patterns
from .program import Program, checked_steps, initial_labels, liveness

_U64 = np.uint64
_CHUNK = 1 << 16
# Slots a worker's row buffer starts with, before it first doubles.
_FIRST_SLOTS = 64
_Z95 = 1.96
# Most threads a chunk's rows are cut across.  Every worker walks the
# whole op list in Python and holds the GIL to do so, so that part grows
# with W while the drawing shrinks.  On 2 vCPUs, a 65,536-row chunk of
# the basic program at 1x took 6.6-8.2 s on one thread, 4.2-4.6 s on two
# and 5.6-6.3 s on four; the op walk alone (one row a worker, the op list
# built once) took 0.13, 0.54-0.59 and 1.2-1.3 s.  Eight threads took
# 11 s before the row buffers.  No host with more CPUs was measured.
_THREADS = 2


@dataclass(frozen=True)
class MCReport:
    """Outcome of one Monte Carlo run with a Wilson score 95% interval.

    ``threads`` is the number of threads the rows of a chunk are split
    across; it does not change the tally.  ``faulted_rows`` counts the
    iterations the kernels ran on: those some *live* event hit, or every
    one when ``initial_errors`` inject a fault.  An event on qubits with
    no live component is not drawn (its stream positions are skipped, so
    the tally is that of drawing it), and a row it alone hits is not
    counted."""

    iterations: int
    crashes: int
    crash_rate: float
    ci95_low: float
    ci95_high: float
    seed: int
    threads: int
    faulted_rows: int
    wall_time_s: float


def _wilson95(crashes: int, iterations: int) -> tuple[float, float]:
    """Wilson score 95% interval of a binomial rate; unlike the Wald
    interval it stays inside [0, 1] and is not empty at 0 crashes."""
    z2 = _Z95 * _Z95
    mid = crashes + z2 / 2
    half = _Z95 * math.sqrt(crashes * (iterations - crashes) / iterations + z2 / 4)
    return max(0.0, (mid - half) / (iterations + z2)), min(1.0, (mid + half) / (iterations + z2))


class _RowBuffer:
    """The faulted rows of one worker's rows [first, first + m) and their
    keys.

    ``slot[r]`` is the slot in ``keys`` of row first + r, or -1 while no
    event has hit it; the rows hold slots 0 to count - 1 in the order they
    joined, and any other row holds the zero key.  A row joins with the
    zero key, so joining copies nothing, and ``keys`` doubles its capacity
    when full.  If the ``start`` key every row begins from is not zero,
    every row starts in.  ``slot`` is int32, half the memory of an intp
    array, since a chunk has at most :data:`_CHUNK` rows.
    """

    def __init__(self, first: int, m: int, start: np.ndarray):
        self.first = first
        if start.any():
            self.slot = np.arange(m, dtype=np.int32)
            self.keys = np.tile(start, (m, 1))
            self.count = m
        else:
            self.slot = np.full(m, -1, dtype=np.int32)
            self.keys = np.zeros((min(m, _FIRST_SLOTS), start.size), dtype=_U64)
            self.count = 0

    def join(self, rows: np.ndarray) -> np.ndarray:
        """The slots of ``rows``, distinct rows of the range; a row not yet
        in takes the next free slot."""
        slots = self.slot[rows]
        fresh = slots < 0
        new = rows[fresh]
        if new.size:
            end = self.count + new.size
            if end > self.keys.shape[0]:
                capacity = min(max(end, 2 * self.keys.shape[0]), self.slot.size)
                keys = np.zeros((capacity, self.keys.shape[1]), dtype=_U64)
                keys[:self.count] = self.keys[:self.count]
                self.keys = keys
            slots[fresh] = self.slot[new] = np.arange(self.count, end)
            self.count = end
        return slots


def _xor_hits(buffer: _RowBuffer, patterns: np.ndarray, f: float, u: np.ndarray) -> None:
    """Error event on the rows of ``buffer``'s range whose uniform in ``u``
    falls below f: each joins the buffer if not yet in and XORs in pattern
    i = min(floor(u * k / f), k - 1) of the k outcome patterns, reusing
    its triggering uniform u to pick among the outcomes uniformly."""
    rows = np.flatnonzero(u < f)
    if rows.size == 0:
        return
    k = patterns.shape[0]
    pick = np.minimum((u[rows] * (k / f)).astype(np.int64), k - 1)
    slots = buffer.join(rows)
    keys = buffer.keys
    for w in range(keys.shape[1]):  # by column: a 2-D row scatter is slower
        keys[slots, w] ^= patterns[pick, w]


def _stream_at(rng, delta: int):
    """A generator on a copy of ``rng``'s PCG64 stream, ``delta`` draws on."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator).advance(delta))


def _run_rows(ops: list, buffer: _RowBuffer, gen, n: int, failed) -> None:
    """Walk the op list on ``buffer``'s m consecutive rows of a chunk of
    n, with ``gen`` at the first one's position of the chunk's stream:
    each drawn event reads the m uniforms of these rows and skips the
    other n - m, a run of c skipped events skips c * n; each kernel runs
    on the buffer's keys.  Stops before an op once the ``failed`` event
    is set, and sets it when an op raises."""
    u = np.empty(buffer.slot.size)
    skip = n - u.size
    advance = gen.bit_generator.advance
    try:
        for function, args in ops:
            if failed.is_set():
                return
            if function is not None:
                if buffer.count:
                    function(buffer.keys[:buffer.count], *args)
            elif type(args) is int:
                advance(args * n)
            else:
                _xor_hits(buffer, *args, gen.random(out=u))
                advance(skip)
    except BaseException:
        failed.set()
        raise


def _prepare(prog: Program, labels: dict) -> tuple[list, np.ndarray]:
    """The op list of ``prog`` and the key every row starts from, which
    holds the injected faults ``labels``.  The list walks
    :func:`~paulitree.program.liveness` forward: an event with f > 0 on a
    qubit with a live component is drawn, and each run of the others
    between two kernels is one skip op, (None, its length)."""
    width = prog.num_qubits
    steps = list(checked_steps(prog))
    live, afters = liveness(prog, steps)
    afters = iter(afters)
    ops = []
    # one op per distinct event: the basic program's 18,926 drawn events
    # are 360 distinct ones, and a tuple each would take about 2 MB
    events = {}
    for spec, step, qubits in steps:
        if spec.kernel is not None:
            ops.append((spec.function, spec.args(step, qubits)))
            for q, m in zip(qubits, next(afters)):
                live[q] = m
        elif step.f > 0.0:
            if any(live[q] for q in qubits):
                op = events.get((qubits, step.f))
                if op is None:
                    op = events[qubits, step.f] = (None, (event_patterns(width, *qubits), step.f))
                ops.append(op)
            elif ops and type(ops[-1][1]) is int:
                ops[-1] = (None, ops[-1][1] + 1)
            else:
                ops.append((None, 1))
    start = np.zeros(_nwords(width), dtype=_U64)
    for q, label in labels.items():
        w, sh = _slot(q)
        start[w] |= _U64(int(label)) << _U64(sh)
    return ops, start


def _sample(ops: list, start: np.ndarray, n: int, rng, threads: int) -> list[_RowBuffer]:
    """The row buffers of ``n`` rows run from key ``start`` through
    ``ops``, one per range, with rows counted from the chunk's start.
    The rows are cut into ``threads`` ranges (at most n) run at once;
    leaves ``rng`` after the chunk's draws."""
    # imported here, so that the analytical engine never loads it
    from concurrent.futures import ThreadPoolExecutor

    threads = min(threads, n)
    cuts = [n * i // threads for i in range(threads + 1)]
    buffers = [_RowBuffer(r0, r1 - r0, start) for r0, r1 in zip(cuts, cuts[1:])]
    failed = threading.Event()
    with ThreadPoolExecutor(threads) as pool:
        runs = [pool.submit(_run_rows, ops, buffer, _stream_at(rng, buffer.first), n, failed)
                for buffer in buffers]
        for run in runs:
            run.result()
    events = sum(args if type(args) is int else 1 for function, args in ops if function is None)
    rng.bit_generator.advance(events * n)
    return buffers


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
    began = time.perf_counter()
    ops, start = _prepare(prog, labels)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    threads = min(_cpus(), _THREADS, iterations)
    blocks, crashes, faulted = prog.crash_blocks, 0, 0
    for done in range(0, iterations, _CHUNK):
        for buffer in _sample(ops, start, min(_CHUNK, iterations - done), rng, threads):
            keys = buffer.keys[:buffer.count]
            faulted += buffer.count
            crashes += buffer.count - int(np.count_nonzero(qecc.correctable(keys, blocks)))
    low, high = _wilson95(crashes, iterations)
    return MCReport(
        iterations=iterations,
        crashes=crashes,
        crash_rate=crashes / iterations,
        ci95_low=low,
        ci95_high=high,
        seed=seed,
        threads=threads,
        faulted_rows=faulted,
        wall_time_s=time.perf_counter() - began,
    )
