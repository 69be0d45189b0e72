"""Analytical engine: evolve error maps through an elaborated program.

The machine state is a :class:`~paulitree.program.Partition` of the
physical qubits into QubitSets, the one :func:`~paulitree.program.elaborate`
tracks, with one error map per set ID.  Merge/split steps restructure
both: the maps through :func:`~paulitree.errormap.merge` and
:func:`~paulitree.errormap.split`, which decide the key order, and the
partition by placing the members of the QubitSets they return.  Every
other step reads its entry in :data:`~paulitree.program.STEP_KINDS` and
acts on the map of the set holding its operands.  An error event
branches each entry on the event's outcome patterns, the same rows the
Monte Carlo engine draws from; a deterministic step applies its
key-array kernel, the same kernel the Monte Carlo engine applies to its
samples.  At the end the crash probability is read off the
surviving/total mass split, with lossy-merge discards accounted
separately so survival + crash + discarded = 1; each crash block must
by then lie in one set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qecc
from .pauli import Pauli, PauliString
from .errormap import ErrorMap, MergeMode, QubitSet, Thresholds, merge, split
from .program import (MergeSets, Partition, Program, ProgramError, SplitOff,
                      initial_labels, step_kind, step_operands)


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
    """Run the probability-tree model over an elaborated program.

    ``initial_errors`` injects a deterministic Pauli fault (qubit -> label)
    into the initial machine state, for exhaustive correction tests;
    see :func:`~paulitree.program.initial_labels` for what it may hold.
    """
    if not prog.elaborated:
        raise ProgramError("program must be elaborated before execution")
    start = time.perf_counter()
    labels = initial_labels(prog, initial_errors)
    part = Partition(prog.initial_partition)
    maps = {sid: ErrorMap.from_dict(
                {PauliString.from_labels([labels.get(q, Pauli.I) for q in group]): 1.0})
            for sid, group in part.members.items()}
    peak = max(len(m) for m in maps.values())

    for step in prog.steps:
        kind = type(step)
        spec = step_kind(step)
        qubits = step_operands(spec, step, prog.num_qubits)
        if kind is MergeSets:
            sa, sb = part.loc[step.qubit_a][0], part.loc[step.qubit_b][0]
            if sa != sb:
                qs = merge(QubitSet(part.members[sa], maps[sa]),
                           QubitSet(part.members.pop(sb), maps.pop(sb)), th)
                maps[part.place(qs.members, sa)] = qs.map
                peak = max(peak, len(qs.map))
            continue
        if not spec.acts_on_map and kind is not SplitOff:
            continue  # a classical record (Measure)
        sid, locals_ = part.locate(qubits)
        m = maps[sid]
        if kind is SplitOff:
            if len(qubits) < len(part.members[sid]):
                keep, rest = split(QubitSet(part.members[sid], m), locals_)
                maps[part.place(rest.members, sid)] = rest.map
                maps[part.place(keep.members)] = keep.map
        elif spec.patterns is not None:
            m.event_kernel(spec.patterns(m.width, *locals_), step.f, th.event_branch)
            peak = max(peak, len(m))
        else:
            m.apply(spec.function, *spec.args(step, locals_))

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
