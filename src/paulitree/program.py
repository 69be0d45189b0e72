"""Program intermediate representation: error events, error tasks, and builders.

A simulated quantum program is an ordered sequence of steps over global
physical-qubit IDs.  Stochastic *events* branch error maps; *tasks*
(gates, reset, verification readout, syndrome measurement, correction)
transform them deterministically.  The analytical engine and the Monte
Carlo engine both interpret the identical step stream.

Every program is built here, cycle by cycle: :class:`Schedule` emits
the cycles, :func:`build_recovery` emits the recovery circuit from the
Steane code tables of :mod:`~paulitree.qecc`, and both benchmark
programs come from one builder loop.  A cycle's duration is that of its
longest operation (the two-bit op time when any CNOT is present, else
the one-bit op time); every qubit receives exactly one decoherence
event per cycle, against the operation decay constant if it was
operated on and the memory decay constant if it idled.  Gate
imprecision, measurement, and reset errors are separate events attached
to the operations themselves.

Every step kind has one entry in :data:`STEP_KINDS`: its text form, its
qubits, the qubit groups it releases, and for a deterministic kind the
key-array kernel both engines apply and the liveness rule that
:func:`liveness` runs backward over a program for both engines.  A kind
with no kernel is an error event, which both engines branch or sample
on the outcome table :func:`~paulitree.errormap.event_patterns` of its
qubits.  Each engine checks a program once per call, before it runs a
step, through one read of :func:`checked_steps`, which checks each
distinct step object once: the error of the first faulty step in
program order.  Neither branches on the kind; all they need is read
from the table.  The program holds no QubitSet structure: the
analytical engine merges a step's sets and releases its groups itself.

Steps are frozen, so a program holds one object per distinct step: the
basic program's 28,166 steps are 564 objects.  :meth:`Schedule.emit`
and :func:`parse_program` hand out the object already made for an equal
step, but only where the two print alike (0.0 and -0.0, or 0 and 0.0,
are equal yet keep their own objects), and :func:`serialize_program`
formats each object once.  Sharing changes no result: a program built
of fresh objects has the same text, hash and runs.

The text serialization (see :func:`serialize_program`) is line oriented,
one step per line, and round-trips exactly; its SHA-256 hash identifies
the program's step stream in experiment reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from . import errormap, qecc
from .noise import NoiseParams, decoherence_prob
from .pauli import Pauli


class ProgramError(RuntimeError):
    """Structurally invalid program or execution-order violation."""


# -- step kinds ---------------------------------------------------------


@dataclass(frozen=True)
class OneQubitEvent:
    qubit: int
    f: float


@dataclass(frozen=True)
class TwoQubitEvent:
    qubit_a: int
    qubit_b: int
    f: float


@dataclass(frozen=True)
class Hadamard:
    qubit: int


@dataclass(frozen=True)
class CNot:
    control: int
    target: int


@dataclass(frozen=True)
class Reset:
    """Re-initialize qubits to the error-free state."""

    qubits: tuple[int, ...]

    def __post_init__(self):
        if not self.qubits:
            raise ValueError("a reset takes at least one qubit, got none")


@dataclass(frozen=True)
class VerifyReadout:
    """Read the verifier; detected faults replace the ancilla block with a
    fresh (error-free) one, modeling retry-until-success."""

    block: tuple[int, ...]
    verifier: int

    def __post_init__(self):
        if not self.block:
            raise ValueError("a verification readout takes at least one qubit, got none")


def _check_block(block: tuple[int, ...], what: str) -> None:
    if len(block) != 7:
        raise ValueError("%s takes a 7-qubit block, got %d qubits" % (what, len(block)))


@dataclass(frozen=True)
class SyndromeMeasure:
    """Compute the 3-bit syndrome from the measured ancilla block and store
    it in the block's first three error-state slots (X encodes bit 1).

    The readout clears the whole block before it writes the syndrome, so
    positions 3-6 are I in every entry afterwards and are released right
    away; only the three stored slots stay with the data until
    :class:`Correct`."""

    block: tuple[int, ...]

    def __post_init__(self):
        _check_block(self.block, "a syndrome readout")


@dataclass(frozen=True)
class CosetReduce:
    """Replace the ancilla block's trivially-acting error component with
    its minimal coset representative.

    An encoded ancilla is an eigenstate of its stabilizers and of one
    logical operator, so error patterns in that group act as the
    identity and must not be propagated as if they were physical errors.
    ``basis`` "z" reduces the Z components (logical-zero ancilla), "x"
    the X components (logical-plus ancilla); the reduced pattern has
    weight at most one.
    """

    block: tuple[int, ...]
    basis: str

    def __post_init__(self):
        _check_block(self.block, "a coset reduction")
        if self.basis not in ("z", "x"):
            raise ValueError("basis must be 'z' or 'x', got %r" % (self.basis,))


@dataclass(frozen=True)
class Correct:
    """Majority-vote the three stored syndromes and apply the decoded
    single-qubit correction.

    ``ancilla_blocks`` lists, for each ancilla block, the three slots its
    :class:`SyndromeMeasure` stored the syndrome in (``block[:3]``): the
    step reads them, clears them and releases them."""

    data: tuple[int, ...]
    ancilla_blocks: tuple[tuple[int, ...], ...]
    phase: str  # "bit" corrects X errors, "phase" corrects Z errors

    def __post_init__(self):
        _check_block(self.data, "a correction")
        if len(self.ancilla_blocks) != 3 or any(len(b) != 3 for b in self.ancilla_blocks):
            raise ValueError("a correction reads three groups of 3 syndrome slots, got %r"
                             % (self.ancilla_blocks,))
        if self.phase not in ("bit", "phase"):
            raise ValueError("phase must be 'bit' or 'phase', got %r" % (self.phase,))


Step = Union[
    OneQubitEvent, TwoQubitEvent, Hadamard, CNot, Reset, VerifyReadout,
    SyndromeMeasure, CosetReduce, Correct,
]


def _ids(qubits: Iterable[int]) -> str:
    return ",".join(str(q) for q in qubits)


def _parse_ids(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _none(step) -> tuple:
    return ()


def _positions(step, q: Sequence[int]) -> Sequence[int]:
    return q


# Liveness transfer rules (``StepKind.live``): operand masks after a step
# to those before it.

def _live_cnot(step, after: tuple[int, ...]) -> tuple[int, ...]:
    """The control's X reaches both X bits and the target's Z both Z bits."""
    c, t = after
    return (c | t) & 1 | c & 2, t & 1 | (c | t) & 2


def _live_verify(step, after: tuple[int, ...]) -> tuple[int, ...]:
    """The verifier's X decides whether the block is replaced."""
    return after[:-1] + (1 if any(after[:-1]) else 0,)


_CHECK_ROWS = qecc.CHECK_MATRIX.tolist()


def _live_syndrome(step, after: tuple[int, ...]) -> tuple[int, ...]:
    """Each stored X is the parity of its check row's X bits."""
    rows = [_CHECK_ROWS[r] for r in range(3) if after[r] & 1]
    return tuple(int(any(row[j] for row in rows)) for j in range(7))


def _live_coset(step, after: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced component is a function of all of its bits."""
    bit = 2 if step.basis == "z" else 1
    read = bit if any(m & bit for m in after) else 0
    return tuple(m & ~bit | read for m in after)


def _live_correct(step, after: tuple[int, ...]) -> tuple[int, ...]:
    """The stored X bits choose the data position the correction flips."""
    bit = 1 if step.phase == "bit" else 2
    read = 1 if any(m & bit for m in after[:7]) else 0
    return after[:7] + (read,) * (len(after) - 7)


@dataclass(frozen=True)
class StepKind:
    """What the engines and the text format know about one step kind.

    ``text`` is the line format, keyword first, filled from
    ``fields(step)``; ``parse`` rebuilds the step from the line's operand
    tokens.  ``operands`` lists the step's qubits, which
    :func:`checked_steps` checks and which the analytical engine merges
    into one QubitSet before the step.  ``releases`` lists the qubit
    groups it splits off right after the step.  A deterministic kind
    names its key-array kernel as (module, function); ``args(step, q)``
    gives the kernel's arguments after the keys, where ``q`` holds the
    key positions of the operands in order.  A kernel may map two keys
    onto one; the error map sums them (see
    :meth:`~paulitree.errormap.ErrorMap.apply`).  A kind with no kernel
    is an error event with probability ``step.f``: both engines draw or
    branch on the rows of ``event_patterns(width, *q)``
    (:func:`~paulitree.errormap.event_patterns`), its equally likely
    outcomes.
    ``live(step, after)`` is a deterministic kind's liveness transfer
    rule: given a live mask per operand after the step (1 for its X
    component, 2 for its Z, 3 for both), the masks before it.  A bit is
    live if some later readout or the crash observable can read it; the
    kernel's output on live-after bits must depend on live-before bits
    only.  :func:`liveness` runs these rules backward over the program:
    the analytical engine masks events and clears components with the
    masks (see :mod:`~paulitree.engine`), and the Monte Carlo engine
    skips the draws of events on qubits with nothing live (see
    :mod:`~paulitree.montecarlo`).
    ``permutes_labels`` marks a Clifford gate whose kernel, given only the
    operands' positions, maps each Pauli label of its operands to one
    Pauli label: the analytical engine carries deferred one-qubit events
    through it instead of applying them, and holds the pair event a
    two-qubit one makes as a recipe that names the kind, whose kernel
    it runs on the 16 label rows at positions (0, 1).
    ``zeroes(step)`` gives, per operand in order, the components (mask
    as for ``live``) its kernel leaves at I in every key; a shorter
    tuple, none on the rest.  A released operand is zeroed whole.  The
    analytical engine clears only the dead components a kernel may
    leave set, and a step that zeroes both components (3) of every
    operand, on a set that holds just its operands, gives that set a
    fresh map (see :mod:`~paulitree.engine`).
    """

    text: str
    fields: Callable[[Any], Any]
    parse: Callable[..., Any]
    operands: Callable[[Any], tuple[int, ...]] = _none
    releases: Callable[[Any], tuple[tuple[int, ...], ...]] = _none
    kernel: tuple[ModuleType, str] | None = None
    args: Callable[[Any, Sequence[int]], tuple] = _positions
    live: Callable[[Any, tuple[int, ...]], tuple[int, ...]] | None = None
    permutes_labels: bool = False
    zeroes: Callable[[Any], tuple[int, ...]] = _none

    @property
    def function(self) -> Callable[..., None]:
        """The kernel, read from its module at each use, so that a wrapper
        put in the module's place (a profiler's) sees every call."""
        module, name = self.kernel
        return getattr(module, name)


STEP_KINDS: dict[type, StepKind] = {
    OneQubitEvent: StepKind(
        "e1 %d %s", lambda s: (s.qubit, repr(s.f)),
        lambda q, f: OneQubitEvent(int(q), float(f)),
        operands=lambda s: (s.qubit,)),
    TwoQubitEvent: StepKind(
        "e2 %d %d %s", lambda s: (s.qubit_a, s.qubit_b, repr(s.f)),
        lambda a, b, f: TwoQubitEvent(int(a), int(b), float(f)),
        operands=lambda s: (s.qubit_a, s.qubit_b)),
    Hadamard: StepKind(
        "h %d", lambda s: s.qubit, lambda q: Hadamard(int(q)),
        operands=lambda s: (s.qubit,),
        kernel=(errormap, "hadamard_kernel"),
        live=lambda s, a: (a[0] >> 1 | (a[0] & 1) << 1,), permutes_labels=True),
    CNot: StepKind(
        "cx %d %d", lambda s: (s.control, s.target),
        lambda c, t: CNot(int(c), int(t)),
        operands=lambda s: (s.control, s.target),
        kernel=(errormap, "cnot_kernel"), live=_live_cnot, permutes_labels=True),
    Reset: StepKind(
        "reset %s", lambda s: _ids(s.qubits), lambda ids: Reset(_parse_ids(ids)),
        operands=lambda s: s.qubits,
        kernel=(errormap, "clear_components_kernel"), args=lambda s, q: (q,),
        live=lambda s, a: (0,) * len(a), zeroes=lambda s: (3,) * len(s.qubits)),
    VerifyReadout: StepKind(
        "verify %d %s", lambda s: (s.verifier, _ids(s.block)),
        lambda v, ids: VerifyReadout(_parse_ids(ids), int(v)),
        operands=lambda s: s.block + (s.verifier,),
        releases=lambda s: ((s.verifier,),),
        kernel=(qecc, "verify_kernel"), args=lambda s, q: (q[:-1], q[-1]),
        live=_live_verify, zeroes=lambda s: (0,) * len(s.block) + (3,)),
    SyndromeMeasure: StepKind(
        "synd %s", lambda s: _ids(s.block), lambda ids: SyndromeMeasure(_parse_ids(ids)),
        operands=lambda s: s.block, releases=lambda s: (s.block[3:],),
        kernel=(qecc, "syndrome_kernel"), args=lambda s, q: (q,), live=_live_syndrome,
        zeroes=lambda s: (2, 2, 2, 3, 3, 3, 3)),
    CosetReduce: StepKind(
        "coset %s %s", lambda s: (s.basis, _ids(s.block)),
        lambda basis, ids: CosetReduce(_parse_ids(ids), basis),
        operands=lambda s: s.block,
        kernel=(qecc, "coset_reduce_kernel"), args=lambda s, q: (q, s.basis),
        live=_live_coset),
    Correct: StepKind(
        "correct %s %s %s",
        lambda s: (s.phase, _ids(s.data), ";".join(_ids(b) for b in s.ancilla_blocks)),
        lambda phase, data, anc: Correct(
            _parse_ids(data), tuple(_parse_ids(b) for b in anc.split(";")), phase),
        operands=lambda s: s.data + tuple(q for b in s.ancilla_blocks for q in b),
        releases=lambda s: s.ancilla_blocks,
        kernel=(qecc, "correct_kernel"),
        args=lambda s, q: (q[:7], tuple(q[7 + 3 * k:10 + 3 * k]
                                        for k in range(len(s.ancilla_blocks))), s.phase),
        live=_live_correct, zeroes=lambda s: (0,) * 7 + (3,) * 9),
}

_KIND_BY_KEYWORD = {kind.text.split(" ", 1)[0]: kind for kind in STEP_KINDS.values()}


def step_kind(step) -> StepKind:
    """The table entry of a step; ProgramError for an unknown kind."""
    try:
        return STEP_KINDS[type(step)]
    except KeyError:
        raise ProgramError("unknown step kind %r" % (step,)) from None


@dataclass(frozen=True)
class Program:
    """An ordered step sequence plus the machine and observable layout.

    ``initial_partition`` covers every qubit exactly once.  The crash
    observable is evaluated at the end of the run: the program survives
    iff every listed 7-qubit data block carries at most one errored
    qubit.  A block lists distinct qubits of the program.
    """

    name: str
    num_qubits: int
    initial_partition: tuple[tuple[int, ...], ...]
    steps: tuple[Step, ...]
    crash_blocks: tuple[tuple[int, ...], ...]
    num_logical: int
    num_cycles: int

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ProgramError("a program needs at least one qubit, got %d" % self.num_qubits)
        covered: set[int] = set()
        for group in self.initial_partition:
            if not group:
                raise ProgramError("initial partition has an empty set")
            if covered & set(group):
                raise ProgramError("initial partition has overlapping sets")
            covered |= set(group)
        if covered != set(range(self.num_qubits)):
            raise ProgramError("initial partition must cover every qubit exactly once")
        for block in self.crash_blocks:
            if not block or len(set(block)) != len(block) or not covered.issuperset(block):
                raise ProgramError("crash block %r must list distinct qubits of the program"
                                   % (block,))


def checked_steps(prog: Program) -> Iterator[tuple[StepKind, Step, tuple[int, ...]]]:
    """Each step of ``prog`` in order as (kind, step, operands), checked
    before it is yielded: ProgramError for an unknown kind or for a qubit
    outside the program or named twice, ValueError for an event
    probability outside [0, 1].  Each distinct step object is checked at
    its first occurrence, and every later occurrence yields the same
    tuple.  A generator, so that a caller keeping only some steps holds
    no list of them all."""
    # keyed by id for the generator's life, while prog.steps holds every
    # object: the basic program's 28,166 steps are 564 objects
    kinds, n, seen = STEP_KINDS, prog.num_qubits, {}
    get = seen.get
    for step in prog.steps:
        checked = get(id(step))
        if checked is None:
            kind = kinds.get(type(step)) or step_kind(step)
            qubits = kind.operands(step)
            for q in qubits:
                if not 0 <= q < n:
                    raise ProgramError("step %r references undeclared qubit %d" % (step, q))
            if len(set(qubits)) < len(qubits):
                raise ProgramError("step %r repeats a qubit" % (step,))
            if kind.kernel is None and not 0.0 <= step.f <= 1.0:
                errormap.check_event_probability(step.f)
            checked = seen[id(step)] = (kind, step, qubits)
        yield checked


def liveness(prog: Program, steps: Sequence[tuple]) -> tuple[list[int], list[tuple]]:
    """The backward liveness pass over the kernel steps of ``steps``, the
    (kind, step, operands) of ``prog`` read from :func:`checked_steps`:
    the live mask of every qubit at the start, and for each kernel step,
    in program order, its operands' masks after it, by the ``live`` rules
    of :data:`STEP_KINDS`.  Both components of every crash-block qubit
    are live at the end.  Walked forward, setting each kernel step's
    operands to their masks after it, the list holds at every point the
    mask of each qubit there; an event acts there on those masks."""
    live = [0] * prog.num_qubits
    for block in prog.crash_blocks:
        for q in block:
            live[q] = 3
    afters, get = [], live.__getitem__
    for spec, step, qubits in reversed([t for t in steps if t[0].kernel is not None]):
        after = tuple(map(get, qubits))
        afters.append(after)
        for q, m in zip(qubits, spec.live(step, after)):
            live[q] = m
    afters.reverse()
    return live, afters


def initial_labels(prog: Program, initial_errors: dict | None) -> dict[int, Pauli]:
    """The injected faults (qubit -> label) both engines start from,
    checked: ValueError for a qubit outside the program or a label that
    is not a :class:`~paulitree.pauli.Pauli`."""
    labels = {}
    for q, label in (initial_errors or {}).items():
        if q not in range(prog.num_qubits):
            raise ValueError("initial error on qubit %r, outside the program's %d qubits"
                             % (q, prog.num_qubits))
        labels[q] = Pauli(label)
    return labels


def _spelling(args: tuple):
    """What decides, beside equality, how equal ``args`` print: the type of
    each (0 and 0.0, 1 and True print apart), or their repr where a zero's
    sign or a tuple's items could differ too."""
    types = tuple(map(type, args))
    if tuple in types or 0 in args:
        return repr(args)
    return types


class Schedule:
    """Cycle-oriented step emitter shared by the program builders.

    Every step is made by :meth:`emit`, which hands out one object per
    distinct step."""

    def __init__(self, num_qubits: int, params: NoiseParams):
        self.num_qubits = num_qubits
        self.params = params.scaled()
        self.steps: list[Step] = []
        self.num_cycles = 0
        self._made: dict[tuple, Step] = {}
        self._tails: dict[tuple, list[Step]] = {}

    def emit(self, kind: type, *args) -> Step:
        """Append the step ``kind(*args)`` and return it: the object made
        for an earlier equal step that prints alike, if there is one."""
        key = (kind, args, _spelling(args))
        step = self._made.get(key)
        if step is None:
            step = self._made[key] = kind(*args)
        self.steps.append(step)
        return step

    def cycle(
        self,
        hadamards: Sequence[int] = (),
        cnots: Sequence[tuple[int, int]] = (),
        measures: Sequence[int] = (),
        resets: Sequence[int] = (),
        transport_um: float = 0.0,
    ) -> None:
        """Emit one machine cycle.

        Order within the cycle: resets, gate transforms, operation
        imprecision events, measurement-error events, optional transport
        decoherence, then one decoherence event per machine qubit.
        """
        p, emit = self.params, self.emit
        busy = set(hadamards).union(measures, resets, *cnots)  # both qubits of a CNOT
        if len(busy) != len(hadamards) + 2 * len(cnots) + len(measures) + len(resets):
            raise ProgramError("a qubit is operated twice in one cycle")

        if resets:
            emit(Reset, tuple(sorted(resets)))
            for q in sorted(resets):
                emit(OneQubitEvent, q, p.reset_error)
        for q in hadamards:
            emit(Hadamard, q)
        for c, t in cnots:
            emit(CNot, c, t)
        for q in hadamards:
            emit(OneQubitEvent, q, p.one_qubit_op_error)
        for c, t in cnots:
            emit(TwoQubitEvent, c, t, p.two_qubit_op_error)
        for q in sorted(measures):
            emit(OneQubitEvent, q, p.measurement_error)
        if transport_um > 0.0:
            t_s = transport_um / p.movement_speed_um_per_us * 1e-6
            f_t = decoherence_prob(t_s, p.transport_decay_s)
            for q in sorted(busy):
                emit(OneQubitEvent, q, f_t)

        # the decoherence events depend only on the busy qubits and on
        # whether a CNOT sets the duration: a cycle alike in both appends
        # the objects the first such cycle emitted
        tail_key = (frozenset(busy), bool(cnots))
        tail = self._tails.get(tail_key)
        if tail is None:
            duration_us = p.two_bit_op_time_us if cnots else p.one_bit_op_time_us
            f_op = decoherence_prob(duration_us * 1e-6, p.operation_decay_s)
            f_mem = decoherence_prob(duration_us * 1e-6, p.memory_decay_s)
            tail = self._tails[tail_key] = [emit(OneQubitEvent, q, f_op if q in busy else f_mem)
                                            for q in range(self.num_qubits)]
        else:
            self.steps += tail
        self.num_cycles += 1


# -- recovery circuit ----------------------------------------------------


def prepare_ancilla(sched: Schedule, block: tuple[int, ...], basis: str) -> None:
    """Encode a fresh logical ancilla in ``block``.

    ``basis`` "z" leaves the logical zero; "x" appends a transversal
    Hadamard for the logical plus state used by phase-error extraction.
    """
    sched.cycle(resets=block)
    sched.cycle(hadamards=[block[i] for i in qecc.ENCODER_HADAMARDS])
    for pairs in qecc.ENCODER_CNOT_CYCLES:
        sched.cycle(cnots=[(block[c], block[t]) for c, t in pairs])
    if basis == "x":
        sched.cycle(hadamards=block)
    elif basis != "z":
        raise ValueError("basis must be 'z' or 'x', got %r" % (basis,))


def verify_ancilla(sched: Schedule, block: tuple[int, ...], verifier: int,
                   basis: str) -> None:
    """Check the ancilla block for the error type that would propagate
    into the data during extraction, reusing one verifier qubit to
    measure the three parity checks of that type in sequence.

    A "z" ancilla is the extraction CNOT's target, so its Z errors copy
    back onto the data: per check row, the verifier starts in the plus
    state, controls a CNOT onto each row qubit to collect their Z
    parity, and is Hadamard-ed back for readout.  An "x" ancilla is the
    control, so its X errors copy forward: row-to-verifier CNOTs collect
    the X parity directly.  Measuring the full syndrome rather than one
    overall parity keeps the check distance-3, so every weight-1 or -2
    dangerous error from a single preparation fault is caught.  (Errors
    of the other type only corrupt this block's measured syndrome, which
    the three-way majority vote absorbs.)  A detected fault discards the
    block for a fresh one.
    """
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x', got %r" % (basis,))
    for row in qecc.CHECK_MATRIX:
        checked = [block[j] for j in range(7) if row[j]]
        sched.cycle(resets=[verifier])
        if basis == "z":
            sched.cycle(hadamards=[verifier])
            for q in checked:
                sched.cycle(cnots=[(verifier, q)])
            sched.cycle(hadamards=[verifier])
        else:
            for q in checked:
                sched.cycle(cnots=[(q, verifier)])
        sched.cycle(measures=[verifier])
        sched.emit(VerifyReadout, tuple(block), verifier)


def extract_syndrome(sched: Schedule, data: tuple[int, ...],
                     block: tuple[int, ...], phase: str) -> None:
    """Copy the data block's errors of one kind onto the ancilla and
    measure it, leaving the 3-bit syndrome stored in the block.

    The coset reduction beforehand removes accumulated ancilla error
    patterns that act trivially on the encoded ancilla state (stabilizer
    and trivial-logical combinations); physically those never existed,
    and without the reduction they would be wrongly copied into the data
    block by the extraction CNOTs.
    """
    if phase == "bit":
        sched.emit(CosetReduce, tuple(block), "z")
        sched.cycle(cnots=list(zip(data, block)))
    elif phase == "phase":
        sched.emit(CosetReduce, tuple(block), "x")
        sched.cycle(cnots=list(zip(block, data)))
        sched.cycle(hadamards=block)
    else:
        raise ValueError("phase must be 'bit' or 'phase', got %r" % (phase,))
    sched.cycle(measures=block)
    sched.emit(SyndromeMeasure, tuple(block))


def build_recovery(sched: Schedule, data: tuple[int, ...],
                   ancilla_blocks: tuple[tuple[int, ...], ...], verifier: int) -> None:
    """Full fault-tolerant recovery of one data block: bit phase then
    phase phase, three verified syndrome extractions each, then the
    majority vote and correction.  Recovery is local, so it carries no
    transport."""
    for phase, basis in (("bit", "z"), ("phase", "x")):
        for block in ancilla_blocks:
            prepare_ancilla(sched, block, basis)
            verify_ancilla(sched, block, verifier, basis)
            extract_syndrome(sched, data, block, phase)
        # the classical decode and the conditional corrective pulse take
        # one cycle; the correction itself is modeled error-free (its
        # imprecision is far below the decoherence accrued while decoding)
        sched.cycle()
        sched.emit(Correct, tuple(data), tuple(tuple(b[:3]) for b in ancilla_blocks), phase)


# -- benchmark program builders -----------------------------------------


def _build(name: str, n_logical: int, phases: list[list[tuple[int, int]]],
           idle_cycles: int, params: NoiseParams, transport_um: float) -> Program:
    """Per phase, a transversal logical CNOT (seven physical CNOTs in one
    cycle) on each pair of data blocks, each followed by recovery of both
    operand blocks, then ``idle_cycles`` idle cycles; finally one
    measurement of every data block.  The machine holds the data blocks,
    three reusable ancilla blocks and the verifier qubit, in that order."""
    data = [tuple(range(7 * b, 7 * b + 7)) for b in range(n_logical)]
    ancilla = [tuple(range(7 * (n_logical + k), 7 * (n_logical + k + 1))) for k in range(3)]
    verifier = 7 * n_logical + 21
    sched = Schedule(7 * n_logical + 22, params)
    for pairs in phases:
        for src, dst in pairs:
            sched.cycle(cnots=list(zip(data[src], data[dst])), transport_um=transport_um)
            for b in (src, dst):
                build_recovery(sched, data[b], ancilla, verifier)
        for _ in range(idle_cycles):
            sched.cycle()
    sched.cycle(measures=[q for block in data for q in block])
    return Program(
        name=name,
        num_qubits=sched.num_qubits,
        initial_partition=tuple(data) + tuple(ancilla) + ((verifier,),),
        steps=tuple(sched.steps),
        crash_blocks=tuple(data),
        num_logical=n_logical,
        num_cycles=sched.num_cycles,
    )


def build_basic_program(params: NoiseParams, transport_um: float = 0.0) -> Program:
    """The two-logical-qubit benchmark: logical CNOT, recovery of both
    blocks, a second logical CNOT, recovery, and final measurement."""
    return _build("basic", 2, [[(0, 1)], [(0, 1)]], 0, params, transport_um)


def scaling_phase_pairs(n_logical: int) -> list[list[tuple[int, int]]]:
    """Tree-structured entangling schedule: phase k pairs each already
    entangled root with one fresh block, until N-1 CNOTs are placed."""
    entangled = [0]
    fresh = list(range(1, n_logical))
    phases: list[list[tuple[int, int]]] = []
    while fresh:
        pairs = []
        for src in list(entangled):
            if not fresh:
                break
            dst = fresh.pop(0)
            pairs.append((src, dst))
        entangled.extend(dst for _, dst in pairs)
        phases.append(pairs)
    return phases


def build_scaling_program(n_logical: int, params: NoiseParams,
                          transport_um: float = 0.0) -> Program:
    """Scalability benchmark: N-1 logical CNOTs over ceil(log2 N) phases,
    recovery of both operand blocks after each CNOT, seven extra cycles
    of idle time per phase, and final measurement of every block."""
    if n_logical < 2:
        raise ValueError("scaling program needs at least 2 logical qubits")
    return _build("scaling", n_logical, scaling_phase_pairs(n_logical), 7, params,
                  transport_um)


def elaborate(prog: Program) -> Program:
    """The program unchanged.  Kept only because perfbench still times
    this call; a change to perfbench removes it."""
    return prog


# -- text serialization --------------------------------------------------


def serialize_program(prog: Program) -> str:
    """Line-oriented text form; one step per line, keyword plus operands."""
    lines = [
        "program %s" % prog.name,
        "logical %d" % prog.num_logical,
        "qubits %d" % prog.num_qubits,
        "cycles %d" % prog.num_cycles,
    ]
    for group in prog.initial_partition:
        lines.append("set %s" % _ids(group))
    for block in prog.crash_blocks:
        lines.append("block %s" % _ids(block))
    # steps are frozen: each distinct object is formatted once
    kinds, texts = STEP_KINDS, {}
    for step in prog.steps:
        text = texts.get(id(step))
        if text is None:
            kind = kinds.get(type(step)) or step_kind(step)
            text = texts[id(step)] = kind.text % kind.fields(step)
        lines.append(text)
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> Program:
    header: dict[str, Any] = {}
    partition: list[tuple[int, ...]] = []
    blocks: list[tuple[int, ...]] = []
    steps: list[Step] = []
    made: dict[str, Step] = {}  # one object per distinct step line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in made:
            steps.append(made[line])
            continue
        kw, _, rest = line.partition(" ")
        try:
            if kw in ("program", "logical", "qubits", "cycles"):
                header[kw] = rest if kw == "program" else int(rest)
            elif kw == "set":
                partition.append(_parse_ids(rest))
            elif kw == "block":
                blocks.append(_parse_ids(rest))
            elif kw in _KIND_BY_KEYWORD:
                kind = _KIND_BY_KEYWORD[kw]
                tokens = rest.split()
                arity = kind.text.count("%")
                if len(tokens) != arity:
                    raise ValueError("%s takes %d operands, got %d" % (kw, arity, len(tokens)))
                step = kind.parse(*tokens)
                operands = kind.operands(step)
                if len(set(operands)) != len(operands):
                    raise ValueError("%s repeats a qubit" % kw)
                if kind.kernel is None:
                    errormap.check_event_probability(step.f)
                steps.append(step)
                made[line] = step
            else:
                raise ValueError("unknown keyword %r" % kw)
        except (ValueError, IndexError) as exc:
            raise ProgramError("line %d: %s" % (lineno, exc))
    for key in ("program", "qubits"):
        if key not in header:
            raise ProgramError("missing %r header line" % key)
    return Program(
        name=header["program"],
        num_qubits=header["qubits"],
        initial_partition=tuple(partition),
        steps=tuple(steps),
        crash_blocks=tuple(blocks),
        num_logical=header.get("logical", 0),
        num_cycles=header.get("cycles", 0),
    )


def program_hash(prog: Program) -> str:
    """SHA-256 of the serialized text; identifies the exact event stream."""
    return hashlib.sha256(serialize_program(prog).encode()).hexdigest()
