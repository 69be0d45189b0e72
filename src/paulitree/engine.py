"""Analytical engine: evolve error maps through a program.

A run has two parts.  :func:`plan` walks the program without touching a
map and returns a :class:`Plan`, the run's map operations in order, on
set IDs and local key positions.  :func:`execute` performs them on error
maps at one setting of the thresholds.  :func:`run_analytical` is
``execute(plan(prog), th)``; nothing is kept from one call to the next.

The plan places the sets.  The machine state is a :class:`Partition` of
the physical qubits into QubitSets, with one error map per set ID.
Before each step the plan merges the sets holding the step's operands
into the first operand's set, and right after it splits off each qubit
group the step releases (see :data:`~paulitree.program.STEP_KINDS`).
:func:`~paulitree.errormap.merge` and :func:`~paulitree.errormap.split`
restructure the maps in the key order the partition predicts.  Every
step then acts on the map of the set holding its operands, as its entry
in :data:`~paulitree.program.STEP_KINDS` says.  An error event (a kind
with no kernel) branches each entry on the rows of
:func:`~paulitree.errormap.event_patterns` at its positions, the same
rows the Monte Carlo engine draws from; a deterministic step applies its
key-array kernel, the same kernel the Monte Carlo engine applies to its
samples.
The plan joins each run of adjacent kernel steps on one set into one
operation, after which the map sorts its keys once.

The plan defers events, since a Pauli channel on some qubits commutes
with every step that does not name them.  It keeps at most one pending
event per qubit:

- A one-qubit event is a depolarizing channel, and a run of them
  composes exactly into one, with 1 - 4f/3 multiplying, so a qubit alone
  keeps one probability f.  A Clifford gate only relabels Pauli errors
  (the Pauli-frame argument), so the gates marked ``permutes_labels`` in
  :data:`~paulitree.program.STEP_KINDS` carry lone events through: a
  Hadamard leaves a depolarizing event as it is, and a CNOT turns its
  operands' events into one *pair event*, 16 probabilities over the
  pair's labels (label_a, label_b), their tensor product permuted as
  its own kernel permutes the 16 label rows.
- A pair event is held only until the next step that names a member.
  If that is the two-qubit event on the pair, the event composes into
  it, w <- (1 - g) w + g/15 (sum w - w), and the pair event is applied,
  as is a two-qubit event composed into the tensor product of its
  qubits' lone events.  Anything else applies the pair event first.
- So a pair event is held as its recipe: its members' lone f's, the
  class of the gate that made it or None, and the probability g of the
  two-qubit event composed into it or None.  Its weights are computed
  once per plan for each distinct recipe and live masks.

Any other step applies (flushes) the pending events of the qubits it
names on their current sets before its own sets are merged: a qubit
alone branches on its three outcomes, a pair event, once its members'
sets are joined, on its fifteen, each with its own weight, both masked
to the live components (below).  At the end the pending events that
touch a crash block are flushed, each crash block's sets merged, and
the crash probability read off the surviving/total mass split, with
lossy-merge discards accounted separately so survival + crash +
discarded = 1.  Events still pending on qubits in no crash block are
dropped: an event conserves mass and nothing live is left on them.

The plan reads :func:`~paulitree.program.checked_steps` once, to the
end, before anything else: the run's one check of the program, which
checks each distinct step object once.  The backward *liveness* pass,
:func:`~paulitree.program.liveness`, then runs over its kernel steps on
global qubits, and the walk reads the same (kind, step, operands)
tuples.  A qubit's X or Z
component is live at a point if some later readout or the crash
observable can read it.  Both components of every crash-block qubit are
live at the end, and each kernel step's ``live`` rule in
:data:`~paulitree.program.STEP_KINDS` maps its operands' live masks
after it to those before it: a Hadamard swaps X and Z, a CNOT makes the
control's X live if either X is and the target's Z if either Z is, a
reset kills both, and a readout makes live the bits it reads.  Keys that
differ only in dead components give the same crash observable, so
lumping them is exact.  The plan uses the pass twice:

- Each flushed event is masked to the live components of its qubits
  where it is flushed.  A lone event with only X (or only Z) live
  branches on that one outcome, with weight 2f/3, since X and Y (or Z
  and Y) flip the live bit alike; one with nothing live is dropped, as
  are the lone events a ``Reset`` clears.  A pair event keeps its
  fifteen outcomes; those a mask leaves at weight 0 are not branched
  on, and one with every weight 0 is dropped.
- Each kernel step's APPLY also clears the components of its operands
  that are dead after it (``errormap.clear_components_kernel``), except
  those its kind declares its kernel leaves at I (``zeroes`` in
  :data:`~paulitree.program.STEP_KINDS`): a reset's operands, a
  readout's released qubits, and a syndrome readout's Z bits.

So keys that differ only in dead components merge, and the maps shrink:
on the basic program the lumping cuts the peak entries by 30% at 1x and
(1e-6, 1e-12), and by 44% at 100x and (1e-4, 1e-6).  The masks and
clears are operations of the plan, so a closed segment's key (below)
holds them.

A kernel step whose kind zeroes both components of every operand (a
``Reset``) on a set that holds just its operands leaves its map at
exactly {I: 1.0}, and the map's old total moves into a run-level factor
that multiplies the retained and the surviving mass, one total at a time
in step order.  The set is then *closed*, and so is every set later split
off it, until the first operation on a set that is not closed.  The
operations on closed sets up to there make a *closed segment*, a
contiguous run of the plan; a full-set reset of another set while it is
open (such as the verifier's) closes that set too, as one of its inputs.
Its result depends only on its operations in local key positions and on
the thresholds, so the plan keys each segment on them (:class:`Segment`),
and :func:`execute` computes each key once per call and caches the
result: every segment with that key, the first too, installs copies of
the cached maps under its own set IDs and adds the cached peak entries,
``event_kernel`` calls and reset totals.  On the basic program 22 of the
24 ancilla preparations are replayed.

At threshold 0 the deferral, the masks, the clears and the replay are
exact.  With thresholds set, order matters.  Fusing a qubit's run of
one-qubit events prunes less, since the run is branched once rather
than once per event.  Holding a pair event past its two-qubit event
prunes more: other events branch the same map meanwhile, so its entries
shrink and more of them fall below the branch threshold.  Held until
the next other step on a member, it cut the basic program's crash rate
by 14% at 1x noise and thresholds (1e-4, 1e-8), and by 0.9% at 100x
and (1e-4, 1e-6).  So a pair event is applied where its two-qubit event
stands, as an unfused engine applies that event.  Restoring a reset
set's total to exactly 1 moves what is pruned a little too: by ulps
under preservation merging, and more under lossy merging, whose totals
fall well below 1.
"""

from __future__ import annotations

import math
import time
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import errormap, qecc
from .pauli import Pauli, PauliString
from .errormap import ErrorMap, MergeMode, QubitSet, Thresholds, event_patterns, merge, split
from .program import STEP_KINDS, Program, checked_steps, initial_labels, liveness


class Partition:
    """The machine's partition of qubits into QubitSets.

    ``members[sid]`` lists set ``sid``'s qubits in key order and ``loc[q]``
    is qubit q's (set ID, key position).  Each set's error map goes by
    the same ID, and the plan places the members of every QubitSet that
    a merge or split will return.
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
    deferred events took, and ``segments_replayed`` the closed segments
    installed from an earlier one with the same key; a replayed
    segment's calls and steps count as done.
    """

    survival_probability: float
    crash_probability: float
    discarded_mass: float
    peak_error_map_entries: int
    steps_executed: int
    wall_time_s: float
    branch_calls: int
    segments_replayed: int


# Plan operations, each a tuple led by its code; s, t are set IDs (local
# indices inside a segment's body):
#   (MERGE, s, t)          merge set t into set s
#   (SPLIT, s, positions, t)  split the qubits at key ``positions`` off set
#                          s into the new set t
#   (BRANCH, s, positions, f, weights)  branch set s's map on the event
#                          with outcome rows ``event_patterns(width,
#                          *positions)``: ``weights`` None for f/k each,
#                          else the bytes of a float64 array
#   (APPLY, s, calls)      run each (kernel, args) of ``calls`` on set s's
#                          keys, then sort them once; a kernel is named
#                          (module, name) and looked up at each use, so
#                          that a wrapper put in its place sees every call
#   (RESET, s)             set s's map to {I: 1.0}; its old total joins
#                          the run-level factor
#   (SEGMENT, segment)     a closed segment (:class:`Segment`)
MERGE, SPLIT, BRANCH, APPLY, RESET, SEGMENT = (
    "merge", "split", "branch", "apply", "reset", "segment")


@dataclass(frozen=True)
class Segment:
    """One closed segment of a plan.

    ``body`` holds its operations with each set ID replaced by a local
    index: first its ``inputs`` sets, each started by a full-set reset,
    in that order, then the sets it splits off; ``sids[i]`` is the set ID
    of local index i in this instance.  ``outputs`` lists the (local
    index, members) of its sets at its end, in local order.  Segments
    with equal ``key`` compute equal results (see :func:`_segment_key`).
    """

    key: Hashable
    body: tuple
    sids: tuple[int, ...]
    inputs: int
    outputs: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Plan:
    """The map operations of one analytical run, in order.

    Set ``i`` starts as ``groups[i]`` (the program's initial partition)
    with its qubits in that key order; ``ops`` are described next to the
    operation codes above.  ``blocks`` gives, by set ID at the end, the
    key positions of each crash block the set holds.
    """

    groups: tuple[tuple[int, ...], ...]
    ops: tuple
    blocks: dict[int, list[list[int]]]
    steps: int

    @property
    def segments(self) -> list[Segment]:
        """The plan's closed segments, in order."""
        return [op[1] for op in self.ops if op[0] == SEGMENT]


def _segment_key(widths: tuple[int, ...], body: tuple) -> Hashable:
    """What a closed segment's result depends on besides the thresholds:
    the widths of its input sets, which each start at {I: 1.0}, and its
    operations in local form."""
    return widths, body


def _depolarizing(f: float) -> np.ndarray:
    """A one-qubit depolarizing event's probabilities, by label."""
    return np.array([1.0 - f, f / 3, f / 3, f / 3])


# _MASKED[ma, mb][4 * a + b] is the pair label (a, b) with its bits
# outside the live masks ma and mb cleared
_LABELS = np.arange(16)
_MASKED = {(ma, mb): (_LABELS >> 2 & ma) << 2 | _LABELS & 3 & mb
           for ma in range(4) for mb in range(4)}


def _pair_branch(fa: float, fb: float, kind: type | None, g: float | None,
                 ma: int, mb: int) -> tuple[float, bytes | None]:
    """The branch probability and weights (see the plan operations) of
    the pair event with recipe (fa, fb, kind, g), masked to the live
    masks ma and mb of its qubits; probability 0.0 for an event with no
    weight left.  ``w[4 * a + b]`` is the probability of labels a and b
    on the pair, so ``w[1:]`` weights the rows of
    :func:`~paulitree.errormap.event_patterns` on it in order: the tensor
    product of lone depolarizing events fa and fb, conjugated by a
    two-qubit step of class ``kind`` on the pair, in its order, then
    followed by a two-qubit event of probability g on the pair."""
    w = np.multiply.outer(_depolarizing(fa), _depolarizing(fb)).ravel()
    if kind is not None:
        # gather w by the image of each label under the kind's own
        # kernel, run on the 16 label rows
        i = np.arange(16, dtype=np.uint64)
        rows = ((i >> np.uint64(2)) | ((i & np.uint64(3)) << np.uint64(2)))[:, None]
        STEP_KINDS[kind].function(rows, 0, 1)
        image = ((rows[:, 0] & np.uint64(3)) << np.uint64(2)) | (rows[:, 0] >> np.uint64(2))
        w = w[np.argsort(image.astype(np.intp))]
    if g is not None:
        w = (1.0 - g) * w + g / 15 * (w.sum() - w)
    w = np.bincount(_MASKED[ma, mb], w, 16)[1:]
    f = float(np.add.reduce(w))
    # rounding can carry the sum of a certain event's weights past 1
    return (min(1.0, f), w.tobytes()) if f > 0.0 else (0.0, None)


@dataclass
class _Draft:
    """The open closed segment: its operations so far, the (set ID,
    width) of each input set, in the order of their full-set resets, and
    every set it has held."""

    ops: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    sets: set = field(default_factory=set)


class _Planner:
    """Builds a :class:`Plan`: set placement, event deferral and closed
    segments, with no error map.  ``live`` holds each qubit's live mask
    (see :func:`~paulitree.program.liveness`) where the walk stands,
    which masks the events it flushes."""

    def __init__(self, groups: Iterable[Iterable[int]], live: list[int]):
        self.part = Partition(groups)
        self.live = live
        self.ops: list = []
        self.pending: dict[int, float] = {}  # qubit alone -> its deferred depolarizing f
        # pair member -> ((a, b), the recipe (fa, fb, kind, g) of the pair event held on it)
        self.pairs: dict[int, tuple] = {}
        self.branches: dict[tuple, tuple] = {}  # recipe + masks -> _pair_branch's result
        self.draft: _Draft | None = None  # the open closed segment

    # -- emission and closed segments ----------------------------------

    def emit(self, op: tuple, *sids: int) -> None:
        """Append ``op``, acting on the sets ``sids``, to the open segment
        if they are all its sets, else to the plan, closing the segment
        first.  An APPLY on the set of the APPLY before it joins that one,
        so that the map sorts its keys once for the run."""
        if self.draft is not None and not self.draft.sets.issuperset(sids):
            self.close()
        ops = self.ops if self.draft is None else self.draft.ops
        if op[0] == APPLY and ops and ops[-1][:2] == op[:2]:
            ops[-1] = op[:2] + (ops[-1][2] + op[2],)
        else:
            ops.append(op)
        if op[0] == SPLIT and self.draft is not None:
            self.draft.sets.add(op[3])

    def reset(self, sid: int) -> None:
        """Reset the whole set ``sid``: inside the open segment if it is
        one of its sets, else in the plan, making ``sid`` an input of the
        open segment, which it opens if none is."""
        draft = self.draft
        if draft is not None and sid in draft.sets:
            draft.ops.append((RESET, sid))
            return
        self.ops.append((RESET, sid))
        if draft is None:
            draft = self.draft = _Draft()
        draft.inputs.append((sid, len(self.part.members[sid])))
        draft.sets.add(sid)

    def close(self) -> None:
        """End the open segment: add it to the plan, in local form, and
        open its sets.  A segment with no operation leaves its fresh maps
        as they are and adds nothing."""
        draft, self.draft = self.draft, None
        if not draft.ops:
            return
        local = {sid: i for i, (sid, _) in enumerate(draft.inputs)}
        body = []
        for op in draft.ops:
            if op[0] == MERGE:
                op = (MERGE, local[op[1]], local[op[2]])
            elif op[0] == SPLIT:
                local[op[3]] = len(local)
                op = (SPLIT, local[op[1]], op[2], local[op[3]])
            else:
                op = (op[0], local[op[1]]) + op[2:]
            body.append(op)
        body = tuple(body)
        widths = tuple(width for _, width in draft.inputs)
        members = self.part.members
        # the sets it merged away are gone from the partition
        outputs = tuple((i, members[sid]) for sid, i in local.items() if sid in members)
        self.ops.append((SEGMENT, Segment(_segment_key(widths, body), body, tuple(local),
                                          len(draft.inputs), outputs)))

    # -- set placement ---------------------------------------------------

    def join(self, qubits: Sequence[int]) -> None:
        """Merge each qubit's set into the first qubit's, in order."""
        part = self.part
        sa = part.loc[qubits[0]][0]
        for q in qubits[1:]:
            sb = part.loc[q][0]
            if sb != sa:
                self.emit((MERGE, sa, sb), sa, sb)
                part.place(part.members[sa] + part.members.pop(sb), sa)

    def release(self, qubits: Sequence[int]) -> None:
        """Split ``qubits`` off their set into a set of their own."""
        part = self.part
        sid, locals_ = part.locate(qubits)
        members = part.members[sid]
        if len(qubits) < len(members):
            keep = sorted(locals_)
            part.place([q for i, q in enumerate(members) if i not in keep], sid)
            new = part.place([members[i] for i in keep])
            self.emit((SPLIT, sid, tuple(locals_), new), sid)

    # -- event deferral --------------------------------------------------

    def branch(self, qubits: Sequence[int], f: float, weights: bytes | None = None) -> None:
        """Join the sets of ``qubits`` and branch their map on an event
        on them."""
        self.join(qubits)
        sid, locals_ = self.part.locate(qubits)
        self.emit((BRANCH, sid, tuple(locals_), f, weights), sid)

    def flush(self, qubits: Sequence[int]) -> None:
        """Apply and forget the pending event of each of ``qubits``, masked
        to its live components: a pair event branches on its fifteen
        outcomes, a lone event with one component live on that one, with
        weight 2f/3.  An event with no weight left branches nothing.
        Each distinct recipe and masks make one :func:`_pair_branch` call
        per plan; floats key by value, so 0.0 and -0.0 share a result,
        which differs only in the sign of a zero weight, and the
        ``np.bincount`` there, summing from +0.0, drops that sign."""
        for q in qubits:
            held = self.pairs.get(q)
            if held is not None:
                (a, b), recipe = held
                del self.pairs[a], self.pairs[b]
                key = recipe + (self.live[a], self.live[b])
                value = self.branches.get(key)
                if value is None:
                    value = self.branches[key] = _pair_branch(*key)
                f, weights = value
                if f > 0.0:
                    self.branch((a, b), f, weights)
            elif q in self.pending:
                f, m = self.pending.pop(q), self.live[q]
                if m == 3:
                    self.branch((q,), f)
                elif m:
                    # X and Y, or Z and Y, flip the one live bit alike
                    w = f / 3 + f / 3
                    weights = (w, 0.0, 0.0) if m == 1 else (0.0, w, 0.0)
                    self.branch((q,), w, np.array(weights).tobytes())

    def hold(self, a: int, b: int, kind: type | None, g: float | None) -> None:
        """Hold a new pair event on (a, b), made of their lone events, once
        the pair events held on either are applied: its recipe is their
        lone f's, the class of the label-permuting step that made it, or
        None, and the probability of a two-qubit event composed into it,
        or None."""
        self.flush([q for q in (a, b) if q in self.pairs])
        recipe = (self.pending.pop(a, 0.0), self.pending.pop(b, 0.0), kind, g)
        self.pairs[a] = self.pairs[b] = ((a, b), recipe)

    # -- the walk ----------------------------------------------------------

    def walk(self, prog: Program, steps: Iterable[tuple], afters: Iterable[tuple]) -> Plan:
        """Plan ``steps``, the checked (kind, step, operands) of ``prog`` in
        order, then its crash blocks; ``afters`` gives each kernel step's
        operand masks after it (see :func:`~paulitree.program.liveness`).
        An event composes into its qubit's lone event, or its pair's held
        event, here: a one-qubit event once a pair event held on the qubit
        is applied, and a two-qubit event into the pair event held on its
        qubits, or a new one, which it then applies where it stands
        (held longer, it prunes more; see the module docstring).  A kernel
        step that zeroes both components of every operand, on a set that
        holds just its operands, resets that set whole."""
        part, live, afters = self.part, self.live, iter(afters)
        pending, pairs = self.pending, self.pairs
        for spec, step, qubits in steps:
            if spec.kernel is None:
                if len(qubits) == 2:
                    held = pairs.get(qubits[0])
                    if held is not None and held is pairs.get(qubits[1]):
                        # composition with a two-qubit event is symmetric
                        # in the pair's order
                        pairs[qubits[0]] = pairs[qubits[1]] = (
                            held[0], held[1][:3] + (step.f,))
                    else:
                        self.hold(*qubits, None, step.f)
                    self.flush(qubits)
                    continue
                q = qubits[0]
                if q in pairs:
                    self.flush(qubits)
                g, f = step.f, pending.get(q)
                # depolarizing channels compose exactly: 1 - 4f/3 multiplies
                pending[q] = g if f is None else g + f - 4 * g * f / 3
                continue
            zeroes = spec.zeroes(step)
            zeroes += (0,) * (len(qubits) - len(zeroes))
            if spec.permutes_labels and len(qubits) == 2:
                # the step's kind conjugates alike wherever its operands stand
                self.hold(*qubits, type(step), None)
            elif spec.permutes_labels:
                # a one-qubit Clifford leaves a depolarizing event as it is
                self.flush([q for q in qubits if q in pairs])
            else:
                self.flush(qubits)
            self.join(qubits)
            sid, locals_ = part.locate(qubits)
            after = next(afters)
            for q, m in zip(qubits, after):
                live[q] = m
            if min(zeroes) == 3 and len(part.members[sid]) == len(qubits):
                self.reset(sid)
            else:
                calls = ((spec.kernel, spec.args(step, tuple(locals_))),)
                if min(after) < 3:
                    # clear the components no later readout can see, but
                    # not those the kernel leaves at I
                    dead = [(p, d) for p, m, z in zip(locals_, after, zeroes)
                            if (d := 3 & ~(m | z))]
                    if dead:
                        calls += (((errormap, "clear_components_kernel"),
                                   tuple(zip(*dead))),)
                self.emit((APPLY, sid, calls), sid)
            for group in spec.releases(step):
                self.release(group)
        for block in prog.crash_blocks:
            self.flush(block)
            self.join(block)
        if self.draft is not None:
            self.close()
        blocks: dict[int, list[list[int]]] = {}
        for block in prog.crash_blocks:
            sid, locals_ = part.locate(block)
            blocks.setdefault(sid, []).append(locals_)
        return Plan(tuple(tuple(g) for g in prog.initial_partition),
                    tuple(self.ops), blocks, len(prog.steps))


def plan(prog: Program) -> Plan:
    """The map operations of a run of ``prog``, in order: set placement,
    event deferral, fusion and masking, component clears, and closed
    segments (see the module docstring).  It checks the program once,
    through :func:`~paulitree.program.checked_steps`, before the liveness
    pass and the walk: a step with a repeated or undeclared qubit raises
    :class:`~paulitree.program.ProgramError`, an event with a probability
    outside [0, 1] ValueError, the error of the first faulty step."""
    steps = list(checked_steps(prog))
    live, afters = liveness(prog, steps)
    return _Planner(prog.initial_partition, live).walk(prog, steps, afters)


class _Execution:
    """One :func:`execute` call's running totals and segment cache."""

    def __init__(self, th: Thresholds):
        self.th = th
        self.peak = 0
        self.calls = 0
        self.totals: list[float] = []  # reset totals, in step order
        self.replayed = 0
        self.cache: dict = {}  # segment key -> (peak, calls, totals, output maps)

    def run(self, ops: Iterable[tuple], sets: dict[int, QubitSet]) -> None:
        """Perform ``ops`` on ``sets``, set ID -> QubitSet, in place."""
        th = self.th
        for op in ops:
            kind = op[0]
            if kind == BRANCH:
                _, sid, positions, f, weights = op
                m = sets[sid].map
                m.event_kernel(event_patterns(m.width, *positions), f, th.event_branch,
                               None if weights is None else np.frombuffer(weights))
                self.calls += 1
                self.peak = max(self.peak, len(m))
            elif kind == APPLY:
                sets[op[1]].map.apply(*((getattr(module, name), *args)
                                        for (module, name), args in op[2]))
            elif kind == MERGE:
                _, sa, sb = op
                qs = sets[sa] = merge(sets[sa], sets.pop(sb), th)
                self.peak = max(self.peak, len(qs.map))
            elif kind == SPLIT:
                _, sid, positions, new = op
                keep, sets[sid] = split(sets[sid], positions)
                sets[new] = keep
            elif kind == RESET:
                qs = sets[op[1]]
                self.totals.append(qs.map.total())
                sets[op[1]] = QubitSet(qs.members, ErrorMap.identity(qs.map.width))
            else:
                self.segment(op[1], sets)

    def segment(self, seg: Segment, sets: dict[int, QubitSet]) -> None:
        """Install a closed segment's result, computed on first use of its
        key in a child run: every use, the first too, installs copies of
        the cached output maps under its own set IDs."""
        local = {i: sets.pop(sid) for i, sid in enumerate(seg.sids[:seg.inputs])}
        cached = self.cache.get(seg.key)
        if cached is None:
            child = _Execution(self.th)
            child.run(seg.body, local)
            cached = self.cache[seg.key] = (
                child.peak, child.calls, child.totals, [local[i].map for i, _ in seg.outputs])
        else:
            self.replayed += 1
        peak, calls, totals, maps = cached
        self.peak = max(self.peak, peak)
        self.calls += calls
        self.totals += totals
        for (i, members), m in zip(seg.outputs, maps):
            sets[seg.sids[i]] = QubitSet(members, m.copy())


def execute(p: Plan, th: Thresholds,
            labels: Mapping[int, Pauli] | None = None) -> FidelityReport:
    """Perform a plan's map operations at thresholds ``th`` and read off
    the crash probability.  ``labels`` (qubit -> label) puts
    deterministic Pauli faults into the initial state.  Each distinct
    closed segment is computed once per call."""
    start = time.perf_counter()
    labels = labels or {}
    sets = {sid: QubitSet(group, ErrorMap.from_dict(
                {PauliString.from_labels([labels.get(q, Pauli.I) for q in group]): 1.0}))
            for sid, group in enumerate(p.groups)}
    run = _Execution(th)
    run.peak = max(len(qs.map) for qs in sets.values())
    run.run(p.ops, sets)

    # total mass that survived pruning, as a product over independent
    # sets and the totals that full-set resets took out
    factor = math.prod(run.totals)
    totals = {sid: qs.map.total() for sid, qs in sets.items()}
    retained = factor * float(np.prod(list(totals.values())))
    survival = factor
    for sid, qs in sets.items():
        survival *= (qecc.surviving_mass(qs.map, p.blocks[sid]) if sid in p.blocks
                     else totals[sid])
    if th.merge_mode is MergeMode.PRESERVATION:
        discarded = 0.0
    else:
        discarded = max(0.0, 1.0 - retained)
    crash = max(0.0, retained - survival)
    return FidelityReport(
        survival_probability=survival,
        crash_probability=crash,
        discarded_mass=discarded,
        peak_error_map_entries=run.peak,
        steps_executed=p.steps,
        wall_time_s=time.perf_counter() - start,
        branch_calls=run.calls,
        segments_replayed=run.replayed,
    )


def run_analytical(prog: Program, th: Thresholds,
                   initial_errors: dict | None = None) -> FidelityReport:
    """Run the probability-tree model over a program:
    ``execute(plan(prog), th)``, timed as a whole.

    ``initial_errors`` injects a deterministic Pauli fault (qubit -> label)
    into the initial machine state, for exhaustive correction tests;
    see :func:`~paulitree.program.initial_labels` for what it may hold.
    """
    start = time.perf_counter()
    labels = initial_labels(prog, initial_errors)
    rep = execute(plan(prog), th, labels)
    return replace(rep, wall_time_s=time.perf_counter() - start)
