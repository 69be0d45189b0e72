"""Analytical engine: evolve error maps through an elaborated program.

The machine state is a partition of the physical qubits into QubitSets,
each owning one error map.  Merge/split steps restructure the partition;
every other step reads its entry in :data:`~paulitree.program.STEP_KINDS`
and acts on the map of the set holding its operands.  An error event
branches each entry on the event's outcome patterns, the same rows the
Monte Carlo engine draws from; a deterministic step applies its
key-array kernel, the same kernel the Monte Carlo engine applies to its
samples.  At the end the crash probability is read off the
surviving/total mass split, with lossy-merge discards accounted
separately so survival + crash + discarded = 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qecc
from .pauli import Pauli, PauliString
from .errormap import ErrorMap, MergeMode, QubitSet, Thresholds, merge, split
from .program import (MergeSets, Program, ProgramError, SplitOff, initial_labels,
                      step_kind)


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


class _Machine:
    """Mutable partition of the qubits into QubitSets, with the (set ID,
    local position) of every qubit."""

    def __init__(self, partition: tuple[tuple[int, ...], ...], labels: dict[int, Pauli]):
        self.sets: dict[int, QubitSet] = {}
        self.loc: dict[int, tuple[int, int]] = {}
        self.next_id = 0
        for group in partition:
            state = PauliString.from_labels([labels.get(q, Pauli.I) for q in group])
            emap = ErrorMap.from_dict({state: 1.0})
            self.place(QubitSet(tuple(group), emap))

    def place(self, qs: QubitSet, sid: int | None = None) -> int:
        """Store a set under ``sid`` (default: a fresh ID) and locate its qubits."""
        if sid is None:
            sid, self.next_id = self.next_id, self.next_id + 1
        self.sets[sid] = qs
        for i, q in enumerate(qs.members):
            self.loc[q] = (sid, i)
        return sid

    def require_same_set(self, qubits: tuple[int, ...]) -> tuple[int, list[int]]:
        sids = {self.loc[q][0] for q in qubits}
        if len(sids) != 1:
            raise ProgramError(
                "step operands %r span QubitSets; program not elaborated" % (qubits,)
            )
        sid = sids.pop()
        return sid, [self.loc[q][1] for q in qubits]

    def merge(self, qa: int, qb: int, th: Thresholds) -> int:
        sa = self.loc[qa][0]
        sb = self.loc[qb][0]
        if sa != sb:
            self.place(merge(self.sets[sa], self.sets.pop(sb), th), sa)
        return sa

    def split_off(self, qubits: tuple[int, ...]) -> None:
        sid, locals_ = self.require_same_set(qubits)
        if len(qubits) < len(self.sets[sid].members):
            part, rest = split(self.sets[sid], locals_)
            self.place(rest, sid)
            self.place(part)


def run_analytical(prog: Program, th: Thresholds,
                   initial_errors: dict | None = None) -> FidelityReport:
    """Run the probability-tree model over an elaborated program.

    ``initial_errors`` injects a deterministic Pauli fault (qubit -> label)
    into the initial machine state, for exhaustive correction tests;
    see :func:`~paulitree.program.initial_labels` for what it may hold.
    """
    if not prog.elaborated:
        raise ProgramError("program must be elaborated before execution")
    start = time.perf_counter()
    mach = _Machine(prog.initial_partition, initial_labels(prog, initial_errors))
    peak = max(len(qs.map) for qs in mach.sets.values())

    for step in prog.steps:
        kind = type(step)
        if kind is MergeSets:
            sid = mach.merge(step.qubit_a, step.qubit_b, th)
            peak = max(peak, len(mach.sets[sid].map))
        elif kind is SplitOff:
            mach.split_off(step.qubits)
        else:
            spec = step_kind(step)
            if spec.patterns is None and spec.kernel is None:
                continue  # a classical record (Measure)
            sid, locals_ = mach.require_same_set(spec.operands(step))
            m = mach.sets[sid].map
            if spec.patterns is not None:
                m.event_kernel(spec.patterns(m.width, *locals_), step.f, th.event_branch)
                peak = max(peak, len(m))
            else:
                m.apply(spec.function, *spec.args(step, locals_), collide=spec.collide)

    # total mass that survived pruning, as a product over independent sets
    totals = {sid: qs.map.total() for sid, qs in mach.sets.items()}
    retained = float(np.prod(list(totals.values())))
    survival = 1.0
    for sid, qs in mach.sets.items():
        block_locals = [
            [mach.loc[q][1] for q in block]
            for block in prog.crash_blocks
            if mach.loc[block[0]][0] == sid
        ]
        if block_locals:
            survival *= qecc.surviving_mass(qs.map, block_locals)
        else:
            survival *= totals[sid]
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


def sweep(prog: Program, grid: list[Thresholds]) -> list[tuple[Thresholds, FidelityReport]]:
    """Run the same program once per threshold setting."""
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    return [(th, run_analytical(prog, th)) for th in grid]
