"""Program intermediate representation: error events, error tasks, and builders.

A simulated quantum program is an ordered sequence of steps over global
physical-qubit IDs.  Stochastic *events* branch error maps; *tasks*
(verification readout, syndrome measurement, correction, merge, split,
reset) transform them deterministically.  The analytical engine and the
Monte Carlo engine both interpret the identical elaborated step stream.

Programs are built cycle by cycle.  A cycle's duration is that of its
longest operation (the two-bit op time when any CNOT is present, else
the one-bit op time); every qubit receives exactly one decoherence
event per cycle, against the operation decay constant if it was
operated on and the memory decay constant if it idled.  Gate
imprecision, measurement, and reset errors are separate events attached
to the operations themselves.

Every step kind has one entry in :data:`STEP_KINDS`: its text form, the
qubits that must share a QubitSet, the qubit groups it releases, and for
a deterministic kind the key-array kernel both engines apply.  The
engines branch only on the structural kinds (the two events,
``MergeSets`` and ``SplitOff``); everything else is read from the table.

The text serialization (see :func:`serialize_program`) is line oriented,
one step per line, and round-trips exactly; its SHA-256 hash identifies
an elaborated program in experiment reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterable, Sequence, Union

from . import errormap, qecc
from .noise import NoiseParams, decoherence_prob


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
class MergeSets:
    """Merge the QubitSets containing the two representative qubits."""

    qubit_a: int
    qubit_b: int


@dataclass(frozen=True)
class SplitOff:
    """Split the listed qubits out of their QubitSet into their own."""

    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Reset:
    """Re-initialize qubits to the error-free state."""

    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    """Classical readout marker; measurement-error events are separate."""

    qubits: tuple[int, ...]


@dataclass(frozen=True)
class VerifyReadout:
    """Read the verifier; detected faults replace the ancilla block with a
    fresh (error-free) one, modeling retry-until-success."""

    block: tuple[int, ...]
    verifier: int


@dataclass(frozen=True)
class SyndromeMeasure:
    """Compute the 3-bit syndrome from the measured ancilla block and store
    it in the block's first three error-state slots (X encodes bit 1)."""

    block: tuple[int, ...]
    slot: int


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


@dataclass(frozen=True)
class Correct:
    """Majority-vote the three stored syndromes and apply the decoded
    single-qubit correction; clears and releases the ancilla blocks."""

    data: tuple[int, ...]
    ancilla_blocks: tuple[tuple[int, ...], ...]
    phase: str  # "bit" corrects X errors, "phase" corrects Z errors


Step = Union[
    OneQubitEvent, TwoQubitEvent, Hadamard, CNot, MergeSets, SplitOff,
    Reset, Measure, VerifyReadout, SyndromeMeasure, CosetReduce, Correct,
]


def _ids(qubits: Iterable[int]) -> str:
    return ",".join(str(q) for q in qubits)


def _parse_ids(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _none(step) -> tuple:
    return ()


def _positions(step, q: Sequence[int]) -> Sequence[int]:
    return q


@dataclass(frozen=True)
class StepKind:
    """What the engines, :func:`elaborate` and the text format know about
    one step kind.

    ``text`` is the line format, keyword first, filled from
    ``fields(step)``; ``parse`` rebuilds the step from the line's operand
    tokens.  ``operands`` lists the qubits that must share a QubitSet
    when the step runs, and ``releases`` the qubit groups split off right
    after it.  A deterministic kind names its key-array kernel as
    (module, function); ``args(step, q)`` gives the kernel's arguments
    after the keys, where ``q`` holds the key positions of the operands
    in order.  ``collide`` says the kernel can map two keys onto one.
    """

    text: str
    fields: Callable[[Any], Any]
    parse: Callable[..., Any]
    operands: Callable[[Any], tuple[int, ...]] = _none
    releases: Callable[[Any], tuple[tuple[int, ...], ...]] = _none
    kernel: tuple[ModuleType, str] | None = None
    args: Callable[[Any, Sequence[int]], tuple] = _positions
    collide: bool = True

    @property
    def function(self) -> Callable[..., None]:
        """The kernel, read from its module at each use, so that a wrapper
        put in the module's place (a profiler's) sees every call."""
        module, name = self.kernel
        return getattr(module, name)


STEP_KINDS: dict[type, StepKind] = {
    OneQubitEvent: StepKind(
        "e1 %d %r", lambda s: (s.qubit, s.f),
        lambda q, f: OneQubitEvent(int(q), float(f)),
        operands=lambda s: (s.qubit,)),
    TwoQubitEvent: StepKind(
        "e2 %d %d %r", lambda s: (s.qubit_a, s.qubit_b, s.f),
        lambda a, b, f: TwoQubitEvent(int(a), int(b), float(f)),
        operands=lambda s: (s.qubit_a, s.qubit_b)),
    Hadamard: StepKind(
        "h %d", lambda s: s.qubit, lambda q: Hadamard(int(q)),
        operands=lambda s: (s.qubit,),
        kernel=(errormap, "hadamard_kernel"), collide=False),
    CNot: StepKind(
        "cx %d %d", lambda s: (s.control, s.target),
        lambda c, t: CNot(int(c), int(t)),
        operands=lambda s: (s.control, s.target),
        kernel=(errormap, "cnot_kernel"), collide=False),
    MergeSets: StepKind(
        "merge %d %d", lambda s: (s.qubit_a, s.qubit_b),
        lambda a, b: MergeSets(int(a), int(b))),
    SplitOff: StepKind(
        "split %s", lambda s: _ids(s.qubits), lambda ids: SplitOff(_parse_ids(ids))),
    Reset: StepKind(
        "reset %s", lambda s: _ids(s.qubits), lambda ids: Reset(_parse_ids(ids)),
        operands=lambda s: s.qubits,
        kernel=(errormap, "clear_kernel"), args=lambda s, q: (q,)),
    # a classical record: the measurement-error events before it did the work
    Measure: StepKind(
        "measure %s", lambda s: _ids(s.qubits), lambda ids: Measure(_parse_ids(ids))),
    VerifyReadout: StepKind(
        "verify %d %s", lambda s: (s.verifier, _ids(s.block)),
        lambda v, ids: VerifyReadout(_parse_ids(ids), int(v)),
        operands=lambda s: s.block + (s.verifier,),
        releases=lambda s: ((s.verifier,),),
        kernel=(qecc, "verify_kernel"), args=lambda s, q: (q[:-1], q[-1])),
    SyndromeMeasure: StepKind(
        "synd %d %s", lambda s: (s.slot, _ids(s.block)),
        lambda slot, ids: SyndromeMeasure(_parse_ids(ids), int(slot)),
        operands=lambda s: s.block,
        kernel=(qecc, "syndrome_kernel"), args=lambda s, q: (q,)),
    CosetReduce: StepKind(
        "coset %s %s", lambda s: (s.basis, _ids(s.block)),
        lambda basis, ids: CosetReduce(_parse_ids(ids), basis),
        operands=lambda s: s.block,
        kernel=(qecc, "coset_reduce_kernel"), args=lambda s, q: (q, s.basis)),
    Correct: StepKind(
        "correct %s %s %s",
        lambda s: (s.phase, _ids(s.data), ";".join(_ids(b) for b in s.ancilla_blocks)),
        lambda phase, data, anc: Correct(
            _parse_ids(data), tuple(_parse_ids(b) for b in anc.split(";")), phase),
        operands=lambda s: s.data + tuple(q for b in s.ancilla_blocks for q in b),
        releases=lambda s: s.ancilla_blocks,
        kernel=(qecc, "correct_kernel"),
        args=lambda s, q: (q[:7], [q[7 + 7 * k:14 + 7 * k]
                                   for k in range(len(s.ancilla_blocks))], s.phase)),
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
    qubit.
    """

    name: str
    num_qubits: int
    initial_partition: tuple[tuple[int, ...], ...]
    steps: tuple[Step, ...]
    crash_blocks: tuple[tuple[int, ...], ...]
    num_logical: int
    num_cycles: int
    elaborated: bool = False

    def __post_init__(self):
        covered: set[int] = set()
        for group in self.initial_partition:
            if covered & set(group):
                raise ProgramError("initial partition has overlapping sets")
            covered |= set(group)
        if covered != set(range(self.num_qubits)):
            raise ProgramError("initial partition must cover every qubit exactly once")


class Schedule:
    """Cycle-oriented step emitter shared by the program builders."""

    def __init__(self, num_qubits: int, params: NoiseParams):
        self.num_qubits = num_qubits
        self.params = params.scaled()
        self.steps: list[Step] = []
        self.num_cycles = 0

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
        p = self.params
        busy: set[int] = set()
        for q in hadamards:
            busy.add(q)
        for c, t in cnots:
            if c == t:
                raise ProgramError("CNOT control equals target")
            busy.add(c)
            busy.add(t)
        busy.update(measures)
        busy.update(resets)
        if len(busy) != len(hadamards) + 2 * len(cnots) + len(measures) + len(resets):
            raise ProgramError("a qubit is operated twice in one cycle")

        if resets:
            self.steps.append(Reset(tuple(sorted(resets))))
            for q in sorted(resets):
                self.steps.append(OneQubitEvent(q, p.reset_error))
        for q in hadamards:
            self.steps.append(Hadamard(q))
        for c, t in cnots:
            self.steps.append(CNot(c, t))
        for q in hadamards:
            self.steps.append(OneQubitEvent(q, p.one_qubit_op_error))
        for c, t in cnots:
            self.steps.append(TwoQubitEvent(c, t, p.two_qubit_op_error))
        if measures:
            for q in sorted(measures):
                self.steps.append(OneQubitEvent(q, p.measurement_error))
            self.steps.append(Measure(tuple(sorted(measures))))
        if transport_um > 0.0:
            t_s = transport_um / p.movement_speed_um_per_us * 1e-6
            f_t = decoherence_prob(t_s, p.transport_decay_s)
            for q in sorted(busy):
                self.steps.append(OneQubitEvent(q, f_t))

        duration_us = p.two_bit_op_time_us if cnots else p.one_bit_op_time_us
        f_op = decoherence_prob(duration_us * 1e-6, p.operation_decay_s)
        f_mem = decoherence_prob(duration_us * 1e-6, p.memory_decay_s)
        for q in range(self.num_qubits):
            self.steps.append(OneQubitEvent(q, f_op if q in busy else f_mem))
        self.num_cycles += 1

    def task(self, step: Step) -> None:
        self.steps.append(step)


# -- benchmark program builders -----------------------------------------


def _machine_layout(n_logical: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int]:
    """Data blocks, three reusable ancilla blocks, and the verifier qubit."""
    data = [tuple(range(7 * b, 7 * b + 7)) for b in range(n_logical)]
    base = 7 * n_logical
    ancilla = [tuple(range(base + 7 * k, base + 7 * k + 7)) for k in range(3)]
    verifier = base + 21
    return data, ancilla, verifier


def _initial_partition(n_logical: int) -> tuple[tuple[int, ...], ...]:
    data, ancilla, verifier = _machine_layout(n_logical)
    return tuple(data) + tuple(ancilla) + ((verifier,),)


def _logical_cnot(sched: Schedule, block_a: tuple[int, ...], block_b: tuple[int, ...],
                  transport_um: float) -> None:
    """Transversal logical CNOT: seven physical CNOTs in one cycle."""
    sched.cycle(cnots=list(zip(block_a, block_b)), transport_um=transport_um)


def build_basic_program(params: NoiseParams, transport_um: float = 0.0) -> Program:
    """The two-logical-qubit benchmark: logical CNOT, recovery of both
    blocks, a second logical CNOT, recovery, and final measurement."""
    n_logical = 2
    data, ancilla, verifier = _machine_layout(n_logical)
    sched = Schedule(7 * n_logical + 22, params)
    for _ in range(2):
        _logical_cnot(sched, data[0], data[1], transport_um)
        for block in data:
            qecc.build_recovery(sched, block, ancilla, verifier)
    sched.cycle(measures=[q for block in data for q in block])
    return Program(
        name="basic",
        num_qubits=sched.num_qubits,
        initial_partition=_initial_partition(n_logical),
        steps=tuple(sched.steps),
        crash_blocks=tuple(data),
        num_logical=n_logical,
        num_cycles=sched.num_cycles,
    )


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
    data, ancilla, verifier = _machine_layout(n_logical)
    sched = Schedule(7 * n_logical + 22, params)
    for pairs in scaling_phase_pairs(n_logical):
        for src, dst in pairs:
            _logical_cnot(sched, data[src], data[dst], transport_um)
            for b in (src, dst):
                qecc.build_recovery(sched, data[b], ancilla, verifier)
        for _ in range(7):
            sched.cycle()
    sched.cycle(measures=[q for block in data for q in block])
    return Program(
        name="scaling",
        num_qubits=sched.num_qubits,
        initial_partition=_initial_partition(n_logical),
        steps=tuple(sched.steps),
        crash_blocks=tuple(data),
        num_logical=n_logical,
        num_cycles=sched.num_cycles,
    )


# -- elaboration ---------------------------------------------------------


class _Partition:
    """Lightweight QubitSet-membership tracker for elaboration."""

    def __init__(self, groups: Iterable[Iterable[int]]):
        self.set_of: dict[int, int] = {}
        self.members: dict[int, set[int]] = {}
        for sid, group in enumerate(groups):
            self.members[sid] = set(group)
            for q in group:
                self.set_of[q] = sid
        self.next_id = len(self.members)

    def union(self, a: int, b: int) -> None:
        sa, sb = self.set_of[a], self.set_of[b]
        if sa == sb:
            return
        self.members[sa] |= self.members[sb]
        for q in self.members.pop(sb):
            self.set_of[q] = sa

    def split_off(self, qubits: Iterable[int]) -> None:
        qubits = set(qubits)
        sids = {self.set_of[q] for q in qubits}
        if len(sids) != 1:
            raise ProgramError("split operands span QubitSets")
        sid = sids.pop()
        if self.members[sid] == qubits:
            return
        self.members[sid] -= qubits
        nid = self.next_id
        self.next_id += 1
        self.members[nid] = qubits
        for q in qubits:
            self.set_of[q] = nid


def elaborate(prog: Program) -> Program:
    """Insert the MergeSets steps needed for co-residency and the SplitOff
    steps that release measured qubits.  Idempotent; the subsequence of
    non-merge/split steps is preserved exactly."""
    part = _Partition(prog.initial_partition)
    out: list[Step] = []
    steps = list(prog.steps)
    i = 0
    while i < len(steps):
        step = steps[i]
        if isinstance(step, MergeSets):
            part.union(step.qubit_a, step.qubit_b)
            out.append(step)
            i += 1
            continue
        if isinstance(step, SplitOff):
            part.split_off(step.qubits)
            out.append(step)
            i += 1
            continue
        kind = step_kind(step)
        group = kind.operands(step)
        for q in group:
            if q not in part.set_of:
                raise ProgramError("step references undeclared qubit %d" % q)
        for q in group[1:]:
            if part.set_of[q] != part.set_of[group[0]]:
                out.append(MergeSets(group[0], q))
                part.union(group[0], q)
        out.append(step)
        j = i + 1  # walk past splits already present from a prior elaboration
        for released in kind.releases(step):
            split_step = SplitOff(tuple(released))
            if j < len(steps) and steps[j] == split_step:
                j += 1
                continue
            part.split_off(split_step.qubits)
            out.append(split_step)
        i += 1
    return Program(
        name=prog.name,
        num_qubits=prog.num_qubits,
        initial_partition=prog.initial_partition,
        steps=tuple(out),
        crash_blocks=prog.crash_blocks,
        num_logical=prog.num_logical,
        num_cycles=prog.num_cycles,
        elaborated=True,
    )


# -- text serialization --------------------------------------------------


def serialize_program(prog: Program) -> str:
    """Line-oriented text form; one step per line, keyword plus operands."""
    lines = [
        "program %s" % prog.name,
        "logical %d" % prog.num_logical,
        "qubits %d" % prog.num_qubits,
        "cycles %d" % prog.num_cycles,
        "elaborated %d" % int(prog.elaborated),
    ]
    for group in prog.initial_partition:
        lines.append("set %s" % _ids(group))
    for block in prog.crash_blocks:
        lines.append("block %s" % _ids(block))
    kinds = STEP_KINDS
    for step in prog.steps:
        kind = kinds.get(type(step)) or step_kind(step)
        lines.append(kind.text % kind.fields(step))
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> Program:
    header: dict[str, str] = {}
    partition: list[tuple[int, ...]] = []
    blocks: list[tuple[int, ...]] = []
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kw, _, rest = line.partition(" ")
        try:
            if kw in ("program", "logical", "qubits", "cycles", "elaborated"):
                header[kw] = rest
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
                steps.append(kind.parse(*tokens))
            else:
                raise ValueError("unknown keyword %r" % kw)
        except (ValueError, IndexError) as exc:
            raise ProgramError("line %d: %s" % (lineno, exc))
    for key in ("program", "qubits"):
        if key not in header:
            raise ProgramError("missing %r header line" % key)
    return Program(
        name=header["program"],
        num_qubits=int(header["qubits"]),
        initial_partition=tuple(partition),
        steps=tuple(steps),
        crash_blocks=tuple(blocks),
        num_logical=int(header.get("logical", "0")),
        num_cycles=int(header.get("cycles", "0")),
        elaborated=bool(int(header.get("elaborated", "0"))),
    )


def program_hash(prog: Program) -> str:
    """SHA-256 of the serialized text; identifies the exact event stream."""
    return hashlib.sha256(serialize_program(prog).encode()).hexdigest()
