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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qecc
from .errormap import _nwords, _slot
from .program import Program, initial_labels, step_kind, step_operands

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


def _event(keys: np.ndarray, patterns: np.ndarray, f: float, rng) -> None:
    """Error event on every row: a row whose uniform u falls below f
    XORs in pattern i = min(floor(u * k / f), k - 1) of the k outcome
    patterns.  ValueError for f outside [0, 1], as in
    :meth:`~paulitree.errormap.ErrorMap.event_kernel`."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("event probability must be in [0, 1], got %r" % (f,))
    if f == 0.0:
        return
    u = rng.random(keys.shape[0])
    rows = np.nonzero(u < f)[0]
    if rows.size == 0:
        return
    k = patterns.shape[0]
    # reuse the triggering uniform to pick among the outcomes uniformly
    pick = np.minimum((u[rows] * (k / f)).astype(np.int64), k - 1)
    for w in range(keys.shape[1]):  # by column: a 2-D row scatter is slower
        keys[rows, w] ^= patterns[pick, w]


def _run_chunk(prog: Program, n: int, rng, labels: dict) -> int:
    width = prog.num_qubits
    keys = np.zeros((n, _nwords(width)), dtype=_U64)
    for q, label in labels.items():
        w, sh = _slot(q)
        keys[:, w] |= _U64(int(label)) << _U64(sh)
    for step in prog.steps:
        spec = step_kind(step)
        qubits = step_operands(spec, step, width)
        if spec.patterns is not None:
            _event(keys, spec.patterns(width, *qubits), step.f, rng)
        elif spec.kernel is not None:
            spec.function(keys, *spec.args(step, qubits))
    return n - int(np.count_nonzero(qecc.correctable(keys, prog.crash_blocks)))


def _run_shard(job: tuple) -> int:
    """Crash count of one shard; ``job`` is (program, iterations, seed
    sequence, initial labels)."""
    prog, iterations, child, labels = job
    rng = np.random.default_rng(child)
    crashes = 0
    for done in range(0, iterations, _CHUNK):
        crashes += _run_chunk(prog, min(_CHUNK, iterations - done), rng, labels)
    return crashes


def run_mc(prog: Program, iterations: int, seed: int, shards: int = 1, jobs: int = 1,
           initial_errors: dict | None = None) -> MCReport:
    """Monte Carlo run split over ``shards`` independent random substreams.

    Iterations are divided as evenly as possible across shards; shard i
    uses the i-th spawned child of the seed's sequence, so a run is
    reproducible for a fixed shard count regardless of ``jobs`` (the
    number of worker processes; tallies are a pure sum over shards).
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
    work = [
        (prog, base + (1 if i < extra else 0), child, labels)
        for i, child in enumerate(children)
        if base + (1 if i < extra else 0)
    ]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            crashes = sum(pool.map(_run_shard, work))
    else:
        crashes = sum(_run_shard(w) for w in work)
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
