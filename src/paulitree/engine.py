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

Events are the exception: the engine defers them, since a Pauli channel
on some qubits commutes with every step that does not name them.  It
keeps at most one pending event per qubit, and folds each new event on
the qubit into it:

- A one-qubit event is a depolarizing channel, and a run of them
  composes exactly into one, with 1 - 4f/3 multiplying, so a qubit alone
  keeps one probability f.
- A Clifford gate only relabels Pauli errors (the Pauli-frame argument),
  so the gates marked ``permutes_labels`` in
  :data:`~paulitree.program.STEP_KINDS` carry pending events through.  A
  depolarizing event is invariant under a one-qubit Clifford gate, so a
  Hadamard leaves it as it is.  A CNOT first applies any pair event that
  reaches outside its two qubits, then turns the events on its operands
  into one *pair event*: 16 probabilities over the pair's labels
  (label_a, label_b), their tensor product (the identity for a qubit
  with no event), conjugated by the gate.  A gate on a pair member
  permutes the pair's labels by the permutation its own kernel gives on
  the 16 label rows.
- A one-qubit event on a pair member mixes along that member's labels.
- A two-qubit event composes into the pair event on its qubits, built
  as for a CNOT if there is none: w <- (1 - g) w + g/15 (sum w - w).
  The pair event is then applied at once (see below).

Any other step applies (flushes) the pending events of the qubits it
names on their current sets before its own sets are merged: a qubit
alone branches on its three outcomes, a pair event, once its members'
sets are joined, on its fifteen, each with its own weight.  At the end
the pending events that touch a crash block are flushed, each crash
block's sets merged, and the crash probability read off the
surviving/total mass split, with lossy-merge discards accounted
separately so survival + crash + discarded = 1.  Events still pending
on qubits in no crash block are dropped: an event conserves mass and
those qubits never reach the crash observable.

At threshold 0 the deferral is exact.  With thresholds set, order
matters.  Fusing a qubit's run of one-qubit events prunes less, since
the run is branched once rather than once per event.  Holding a pair
event past its two-qubit event prunes more: other events branch the
same map meanwhile, so its entries shrink and more of them fall below
the branch threshold.  Held until the next other step on a member, it
cut the basic program's crash rate by 14% at 1x noise and thresholds
(1e-4, 1e-8), and by 0.9% at 100x and (1e-4, 1e-6).  So a pair event is
applied where its two-qubit event stands, as an unfused engine applies
that event.
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
from .program import (STEP_KINDS, OneQubitEvent, Program, StepKind, TwoQubitEvent,
                      initial_labels, step_kind, step_operands)


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
    (exactly 0.0 under preservation merging).  ``branch_calls`` counts
    the :meth:`~paulitree.errormap.ErrorMap.event_kernel` calls the
    deferred events took.
    """

    survival_probability: float
    crash_probability: float
    discarded_mass: float
    peak_error_map_entries: int
    steps_executed: int
    wall_time_s: float
    branch_calls: int


def _depolarizing(f: float) -> np.ndarray:
    """A one-qubit depolarizing event's probabilities, by label."""
    return np.array([1.0 - f, f / 3, f / 3, f / 3])


@dataclass
class _PairEvent:
    """A pending Pauli channel on two qubits: ``w[4 * a + b]`` is the
    probability of labels a on ``qubits[0]`` and b on ``qubits[1]``, in
    the order of :func:`~paulitree.errormap.two_qubit_patterns`."""

    qubits: tuple[int, int]
    w: np.ndarray


def _label_gather(spec: StepKind, step, positions: tuple[int, ...]) -> np.ndarray:
    """Index array g with w[g] the pair event ``w`` conjugated by a
    label-permuting step acting at the given pair positions (0 or 1).
    Derived by running the step's own kernel on the 16 label rows."""
    i = np.arange(16, dtype=np.uint64)
    rows = ((i >> np.uint64(2)) | ((i & np.uint64(3)) << np.uint64(2)))[:, None]
    spec.function(rows, *spec.args(step, positions))
    image = ((rows[:, 0] & np.uint64(3)) << np.uint64(2)) | (rows[:, 0] >> np.uint64(2))
    return np.argsort(image.astype(np.intp))


def run_analytical(prog: Program, th: Thresholds,
                   initial_errors: dict | None = None) -> FidelityReport:
    """Run the probability-tree model over a program.

    Events are held back as pending events, carried through Hadamards
    and CNOTs and applied just before the next other step that names
    their qubits, a pair event right after its two-qubit event, or
    before their crash block is joined at the end;
    pending events on qubits in no crash block are dropped (see the
    module docstring).  Each event's probability is still checked when
    its step is read.

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
    calls = 0
    one_qubit, two_qubit = STEP_KINDS[OneQubitEvent], STEP_KINDS[TwoQubitEvent]
    pending: dict[int, float] = {}  # qubit alone -> its deferred depolarizing event's f
    pairs: dict[int, _PairEvent] = {}  # pair member -> its deferred pair event
    gathers: dict[tuple, np.ndarray] = {}  # (step type, pair positions) -> _label_gather

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

    def branch(spec: StepKind, qubits: Sequence[int], f: float,
               weights: np.ndarray | None = None) -> None:
        """Join the sets of ``qubits`` and branch their map on an event of
        kind ``spec``."""
        nonlocal peak, calls
        join(qubits)
        sid, locals_ = part.locate(qubits)
        m = maps[sid]
        m.event_kernel(spec.patterns(m.width, *locals_), f, th.event_branch, weights)
        calls += 1
        peak = max(peak, len(m))

    def flush_pair(pair: _PairEvent) -> None:
        """Apply and forget a pair event, on its members' joined sets."""
        for q in pair.qubits:
            del pairs[q]
        weights = pair.w[1:]
        # rounding can carry the sum of a certain event's weights past 1
        branch(two_qubit, pair.qubits, min(1.0, float(weights.sum())), weights)

    def flush(qubits: Sequence[int]) -> None:
        """Apply and forget the pending event of each of ``qubits``."""
        for q in qubits:
            if q in pairs:
                flush_pair(pairs[q])
            elif q in pending:
                branch(one_qubit, (q,), pending.pop(q))

    def pair_on(a: int, b: int) -> _PairEvent:
        """The pair event on {a, b}: the pending one, or else the tensor
        product of a's and b's pending events, not yet stored.  Any pair
        event reaching outside {a, b} is flushed first."""
        for q in (a, b):
            pair = pairs.get(q)
            if pair is not None and set(pair.qubits) != {a, b}:
                flush_pair(pair)
        pair = pairs.get(a)
        if pair is None:
            w = np.outer(_depolarizing(pending.pop(a, 0.0)), _depolarizing(pending.pop(b, 0.0)))
            pair = _PairEvent((a, b), w.ravel())
        return pair

    def keep(pair: _PairEvent) -> None:
        """Store ``pair`` as its members' pending event unless it is the
        identity (no event on either qubit, or only events with f = 0)."""
        if pair.w[0] < 1.0:
            for q in pair.qubits:
                pairs[q] = pair

    def carry(spec: StepKind, step, qubits: Sequence[int]) -> None:
        """Carry the pending events on ``qubits`` through a label-permuting
        step; a one-qubit step leaves a depolarizing event as it is."""
        pair = pair_on(*qubits) if len(qubits) == 2 else pairs.get(qubits[0])
        if pair is None:
            return
        positions = tuple(pair.qubits.index(q) for q in qubits)
        gather = gathers.get((type(step), positions))
        if gather is None:
            gather = gathers[type(step), positions] = _label_gather(spec, step, positions)
        pair.w = pair.w[gather]
        keep(pair)

    def defer(spec: StepKind, qubits: Sequence[int], g: float) -> None:
        """Fold an event of kind ``spec`` and probability g into the
        pending events on ``qubits``."""
        if spec is two_qubit:
            pair = pair_on(*qubits)
            pair.w = (1.0 - g) * pair.w + g / 15 * (pair.w.sum() - pair.w)
            # applied where the event stands: held longer, it prunes more
            # (see the module docstring)
            keep(pair)
            flush(qubits)
        elif qubits[0] in pairs:
            pair = pairs[qubits[0]]
            w = pair.w.reshape(4, 4)
            side = w.sum(axis=pair.qubits.index(qubits[0]), keepdims=True)
            pair.w = ((1.0 - g) * w + g / 3 * (side - w)).ravel()
        else:
            f = pending.get(qubits[0])
            # depolarizing channels compose exactly: 1 - 4f/3 multiplies
            pending[qubits[0]] = g if f is None else g + f - 4 * g * f / 3

    for step in prog.steps:
        spec = step_kind(step)
        qubits = step_operands(spec, step, prog.num_qubits)
        if spec.patterns is not None:
            check_event_probability(step.f)
            defer(spec, qubits, step.f)
            continue
        if spec.permutes_labels:
            carry(spec, step, qubits)
        else:
            flush(qubits)
        join(qubits)
        sid, locals_ = part.locate(qubits)
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
        branch_calls=calls,
    )
