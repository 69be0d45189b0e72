"""Analytical engine: evolve error maps through a program.

The machine state is a :class:`Partition` of the physical qubits into
QubitSets, with one error map per set ID.  The engine places the sets
itself: before each step it merges the sets holding the step's operands
into the first operand's set, and right after it splits off each qubit
group the step releases (see :data:`~paulitree.program.STEP_KINDS`).
The maps are restructured by :func:`~paulitree.errormap.merge` and
:func:`~paulitree.errormap.split`, which decide the key order, and the
partition by placing the members of the QubitSets they return.  Every
step then acts on the map of the set holding its operands, as its entry
in :data:`~paulitree.program.STEP_KINDS` says.  An error event branches
each entry on the event's outcome patterns, the same rows the Monte
Carlo engine draws from; a deterministic step applies its key-array
kernel, the same kernel the Monte Carlo engine applies to its samples.

One-qubit events are the exception: the engine defers them.  Each is a
depolarizing channel, and a run of them on one qubit composes exactly
into one, with 1 - 4f/3 multiplying, so the engine keeps one pending
probability per qubit and folds each new event into it.  The pending
event is applied (flushed) on the qubit's current set just before the
next step that names the qubit, before that step's sets are merged; a
Pauli channel on q commutes with every step that does not name q.
At the end each crash block's qubits are flushed and its sets merged,
and the crash probability is read off the surviving/total mass split,
with lossy-merge discards accounted separately so survival + crash +
discarded = 1.  Events still pending on qubits in no crash block are
dropped: an event conserves mass and those qubits never reach the crash
observable.  At threshold 0 the fusion is exact; with thresholds set it
prunes less, since a run is branched once rather than once per event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import qecc
from .pauli import Pauli, PauliString
from .errormap import (ErrorMap, MergeMode, QubitSet, Thresholds, check_event_probability,
                       merge, split)
from .program import (STEP_KINDS, OneQubitEvent, Program, StepKind, initial_labels,
                      step_kind, step_operands)


class Partition:
    """The machine's partition of qubits into QubitSets.

    ``members[sid]`` lists set ``sid``'s qubits in key order and ``loc[q]``
    is qubit q's (set ID, key position).  The engine keeps each set's
    error map under the same ID and places the members of every QubitSet
    that a merge or split returns.
    """

    def __init__(self, groups: Iterable[Iterable[int]]):
        self.members: dict[int, tuple[int, ...]] = {}
        self.loc: dict[int, tuple[int, int]] = {}
        self.next_id = 0
        for group in groups:
            self.place(group)

    def place(self, members: Iterable[int], sid: int | None = None) -> int:
        """Store ``members``, in key order, as set ``sid`` (default: a
        fresh ID) and locate its qubits; returns the ID."""
        if sid is None:
            sid, self.next_id = self.next_id, self.next_id + 1
        self.members[sid] = members = tuple(members)
        for i, q in enumerate(members):
            self.loc[q] = (sid, i)
        return sid

    def locate(self, qubits: Sequence[int]) -> tuple[int, list[int]]:
        """The set holding all of ``qubits``, which must share one, and
        their key positions in it."""
        sid = self.loc[qubits[0]][0]
        return sid, [self.loc[q][1] for q in qubits]


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of one analytical run.

    The three probabilities partition unity: mass still in a correctable
    state, mass in a failed state, and mass discarded by lossy merges
    (exactly 0.0 under preservation merging).
    """

    survival_probability: float
    crash_probability: float
    discarded_mass: float
    peak_error_map_entries: int
    steps_executed: int
    wall_time_s: float


def run_analytical(prog: Program, th: Thresholds,
                   initial_errors: dict | None = None) -> FidelityReport:
    """Run the probability-tree model over a program.

    One-qubit events are held back as one pending event per qubit and
    applied just before the next step that names the qubit, or before
    the qubit's crash block is joined at the end; pending events on
    qubits in no crash block are dropped (see the module docstring).
    Each event's probability is still checked when its step is read.

    ``initial_errors`` injects a deterministic Pauli fault (qubit -> label)
    into the initial machine state, for exhaustive correction tests;
    see :func:`~paulitree.program.initial_labels` for what it may hold.
    """
    start = time.perf_counter()
    labels = initial_labels(prog, initial_errors)
    part = Partition(prog.initial_partition)
    maps = {sid: ErrorMap.from_dict(
                {PauliString.from_labels([labels.get(q, Pauli.I) for q in group]): 1.0})
            for sid, group in part.members.items()}
    peak = max(len(m) for m in maps.values())
    one_qubit = STEP_KINDS[OneQubitEvent]
    pending: dict[int, float] = {}  # qubit -> its deferred one-qubit event's f

    def join(qubits: Sequence[int]) -> None:
        """Merge each qubit's set into the first qubit's, in order."""
        nonlocal peak
        sa = part.loc[qubits[0]][0]
        for q in qubits[1:]:
            sb = part.loc[q][0]
            if sb != sa:
                qs = merge(QubitSet(part.members[sa], maps[sa]),
                           QubitSet(part.members.pop(sb), maps.pop(sb)), th)
                maps[part.place(qs.members, sa)] = qs.map
                peak = max(peak, len(qs.map))

    def release(qubits: Sequence[int]) -> None:
        """Split ``qubits`` off their set into a set of their own."""
        sid, locals_ = part.locate(qubits)
        if len(qubits) < len(part.members[sid]):
            keep, rest = split(QubitSet(part.members[sid], maps[sid]), locals_)
            maps[part.place(rest.members, sid)] = rest.map
            maps[part.place(keep.members)] = keep.map

    def branch(spec: StepKind, sid: int, locals_: Sequence[int], f: float) -> None:
        """Branch set ``sid``'s map on an event of kind ``spec``."""
        nonlocal peak
        m = maps[sid]
        m.event_kernel(spec.patterns(m.width, *locals_), f, th.event_branch)
        peak = max(peak, len(m))

    def flush(qubits: Sequence[int]) -> None:
        """Apply and forget the pending one-qubit event of each of ``qubits``."""
        for q in qubits:
            if q in pending:
                sid, i = part.loc[q]
                branch(one_qubit, sid, (i,), pending.pop(q))

    for step in prog.steps:
        spec = step_kind(step)
        qubits = step_operands(spec, step, prog.num_qubits)
        if spec is one_qubit:
            g = step.f
            check_event_probability(g)
            f = pending.get(step.qubit)
            # depolarizing channels compose exactly: 1 - 4f/3 multiplies
            pending[step.qubit] = g if f is None else g + f - 4 * g * f / 3
            continue
        flush(qubits)
        join(qubits)
        sid, locals_ = part.locate(qubits)
        if spec.patterns is not None:
            branch(spec, sid, locals_, step.f)
        else:
            maps[sid].apply(spec.function, *spec.args(step, locals_))
        for group in spec.releases(step):
            release(group)
    for block in prog.crash_blocks:
        flush(block)
        join(block)

    # total mass that survived pruning, as a product over independent sets
    totals = {sid: m.total() for sid, m in maps.items()}
    retained = float(np.prod(list(totals.values())))
    blocks: dict[int, list[list[int]]] = {}
    for block in prog.crash_blocks:
        sid, locals_ = part.locate(block)
        blocks.setdefault(sid, []).append(locals_)
    survival = 1.0
    for sid, m in maps.items():
        survival *= qecc.surviving_mass(m, blocks[sid]) if sid in blocks else totals[sid]
    if th.merge_mode is MergeMode.PRESERVATION:
        discarded = 0.0
    else:
        discarded = max(0.0, 1.0 - retained)
    crash = max(0.0, retained - survival)
    return FidelityReport(
        survival_probability=survival,
        crash_probability=crash,
        discarded_mass=discarded,
        peak_error_map_entries=peak,
        steps_executed=len(prog.steps),
        wall_time_s=time.perf_counter() - start,
    )
