import itertools
import math
from dataclasses import dataclass

import pytest

from paulitree import engine, montecarlo
from paulitree.engine import run_analytical
from paulitree.errormap import Thresholds
from paulitree.montecarlo import run_mc
from paulitree.noise import NoiseParams, decoherence_prob
from paulitree.program import (
    CNot,
    Correct,
    CosetReduce,
    Hadamard,
    OneQubitEvent,
    Program,
    ProgramError,
    Reset,
    STEP_KINDS,
    Schedule,
    SyndromeMeasure,
    TwoQubitEvent,
    VerifyReadout,
    build_basic_program,
    build_scaling_program,
    checked_steps,
    parse_program,
    program_hash,
    scaling_phase_pairs,
    serialize_program,
)

QUIET = NoiseParams(
    memory_decay_s=math.inf,
    operation_decay_s=math.inf,
    transport_decay_s=math.inf,
    one_qubit_op_error=0.0,
    two_qubit_op_error=0.0,
    measurement_error=0.0,
    reset_error=0.0,
)


class TestSchedule:
    def test_cycle_emits_one_decoherence_event_per_qubit(self):
        sched = Schedule(3, NoiseParams())
        sched.cycle(hadamards=[1])
        events = [s for s in sched.steps if isinstance(s, OneQubitEvent)]
        # gate imprecision for the Hadamard plus one decoherence per qubit
        assert len(events) == 1 + 3
        assert sched.num_cycles == 1

    def test_busy_vs_idle_decay_constants(self):
        p = NoiseParams()
        sched = Schedule(2, p)
        sched.cycle(hadamards=[0])
        t = p.one_bit_op_time_us * 1e-6
        f_busy = decoherence_prob(t, p.operation_decay_s)
        f_idle = decoherence_prob(t, p.memory_decay_s)
        decs = [s for s in sched.steps if isinstance(s, OneQubitEvent)][-2:]
        assert decs[0] == OneQubitEvent(0, f_busy)
        assert decs[1] == OneQubitEvent(1, f_idle)

    def test_cnot_cycle_lasts_two_bit_op_time(self):
        p = NoiseParams()
        sched = Schedule(2, p)
        sched.cycle(cnots=[(0, 1)])
        f = decoherence_prob(p.two_bit_op_time_us * 1e-6, p.operation_decay_s)
        dec = [s for s in sched.steps if isinstance(s, OneQubitEvent)][-1]
        assert dec.f == f
        assert any(
            isinstance(s, TwoQubitEvent) and s.f == p.two_qubit_op_error
            for s in sched.steps
        )

    def test_measure_and_reset_event_attachment(self):
        p = NoiseParams()
        sched = Schedule(2, p)
        sched.cycle(measures=[0], resets=[1])
        assert Reset((1,)) in sched.steps
        assert OneQubitEvent(1, p.reset_error) in sched.steps
        # the measured qubit gets one measurement-error event, before the
        # cycle's decoherence events
        events = [s for s in sched.steps if isinstance(s, OneQubitEvent)]
        assert events.count(OneQubitEvent(0, p.measurement_error)) == 1
        assert events.index(OneQubitEvent(0, p.measurement_error)) < len(events) - 2

    def test_transport_adds_events_for_busy_qubits(self):
        p = NoiseParams()
        sched = Schedule(3, p)
        sched.cycle(cnots=[(0, 2)], transport_um=50.0)
        f_t = decoherence_prob(
            50.0 / p.movement_speed_um_per_us * 1e-6, p.transport_decay_s
        )
        transported = [s.qubit for s in sched.steps
                       if isinstance(s, OneQubitEvent) and s.f == f_t]
        assert transported == [0, 2]

    def test_double_operation_rejected(self):
        sched = Schedule(2, NoiseParams())
        with pytest.raises(ProgramError):
            sched.cycle(hadamards=[0], measures=[0])
        with pytest.raises(ProgramError):
            sched.cycle(cnots=[(0, 0)])

    def test_global_scale_folded_into_events(self):
        sched = Schedule(1, NoiseParams(global_scale=100.0))
        sched.cycle(measures=[0])
        assert OneQubitEvent(0, 1e-2) in sched.steps


class TestProgramValidation:
    def test_partition_must_cover_exactly(self):
        with pytest.raises(ProgramError, match="cover"):
            Program("t", 3, ((0, 1),), (), (), 0, 0)
        with pytest.raises(ProgramError, match="overlap"):
            Program("t", 3, ((0, 1), (1, 2)), (), (), 0, 0)

    @pytest.mark.parametrize("block", [(0, 9), (1, 1), (-1,), ()])
    def test_crash_blocks_list_distinct_program_qubits(self, block):
        with pytest.raises(ProgramError, match="crash block"):
            Program("t", 2, ((0, 1),), (), (block,), 0, 0)

    @pytest.mark.parametrize("num_qubits, partition, message", [
        (2, ((0, 1), ()), "empty set"),
        (2, ((), (0, 1)), "empty set"),
        (0, (), "at least one qubit, got 0"),
        (-1, (), "at least one qubit, got -1"),
    ])
    def test_rejects_empty_sets_and_programs_without_qubits(self, num_qubits, partition,
                                                            message):
        with pytest.raises(ProgramError, match=message):
            Program("t", num_qubits, partition, (), (), 0, 0)

    @pytest.mark.parametrize("text, message", [
        ("program t\nqubits 2\nset 0,1\nset\n", "empty set"),
        ("program t\nqubits 0\n", "at least one qubit, got 0"),
    ], ids=["bare-set-line", "no-qubits"])
    def test_parse_rejects_empty_sets_and_programs_without_qubits(self, text, message):
        with pytest.raises(ProgramError, match=message):
            parse_program(text)

    @pytest.mark.parametrize("make, what", [
        (lambda: Reset(()), "a reset"),
        (lambda: VerifyReadout((), 7), "a verification readout"),
    ], ids=["reset", "verify"])
    def test_reset_and_verification_name_at_least_one_qubit(self, make, what):
        with pytest.raises(ValueError, match=what + " takes at least one qubit"):
            make()


class TestBuilders:
    def test_basic_program_layout(self):
        prog = build_basic_program(NoiseParams())
        assert prog.name == "basic"
        assert prog.num_logical == 2
        # 2 data blocks + 3 ancilla blocks + 1 verifier
        assert prog.num_qubits == 14 + 21 + 1
        assert prog.crash_blocks == (tuple(range(7)), tuple(range(7, 14)))
        assert len(prog.initial_partition) == 6
        assert len(prog.steps) == 28166
        # two logical CNOTs, each followed by recovery of both blocks
        cnot_cycles = [s for s in prog.steps if isinstance(s, CNot)]
        assert len(cnot_cycles) > 14

    def test_scaling_phase_pairs_doubles_entangled_roots(self):
        assert scaling_phase_pairs(2) == [[(0, 1)]]
        assert scaling_phase_pairs(4) == [[(0, 1)], [(0, 2), (1, 3)]]
        phases = scaling_phase_pairs(8)
        assert len(phases) == 3
        targets = [dst for pairs in phases for _, dst in pairs]
        assert sorted(targets) == list(range(1, 8))

    def test_scaling_program_grows_with_n(self):
        p2 = build_scaling_program(2, QUIET)
        p4 = build_scaling_program(4, QUIET)
        assert p2.num_qubits == 36 and p4.num_qubits == 50
        assert len(p4.steps) > len(p2.steps)
        assert len(p4.crash_blocks) == 4
        with pytest.raises(ValueError):
            build_scaling_program(1, QUIET)

    def test_correct_reads_the_data_and_three_slots_per_ancilla_block(self):
        prog = build_basic_program(QUIET)
        ancilla = [tuple(range(14 + 7 * k, 21 + 7 * k)) for k in range(3)]
        corrects = [s for s in prog.steps if isinstance(s, Correct)]
        assert len(corrects) == 8  # 2 logical CNOTs x 2 blocks x 2 phases
        for step in corrects:
            assert len(step.data) == 7
            assert step.ancilla_blocks == tuple(b[:3] for b in ancilla)
            assert len(STEP_KINDS[Correct].operands(step)) == 7 + 3 * 3


class TestSerialization:
    def test_round_trip_identity(self):
        for prog in (
            build_basic_program(NoiseParams()),
            build_scaling_program(3, NoiseParams(global_scale=10.0)),
        ):
            assert parse_program(serialize_program(prog)) == prog

    def test_all_step_kinds_round_trip(self):
        steps = (
            OneQubitEvent(0, 0.125),
            TwoQubitEvent(0, 1, 1e-4),
            Hadamard(2),
            CNot(2, 0),
            Reset((0, 1)),
            VerifyReadout((0, 1), 2),
            SyndromeMeasure(tuple(range(7, 14))),
            CosetReduce(tuple(range(7, 14)), "z"),
            Correct(tuple(range(7)), ((7, 8, 9), (10, 11, 12), (13, 14, 15)), "phase"),
        )
        prog = Program("toy", 16, (tuple(range(7)), tuple(range(7, 16))), steps,
                       (tuple(range(7)),), 1, 4)
        assert parse_program(serialize_program(prog)) == prog

    def test_float_fidelity(self):
        prog = Program("toy", 1, ((0,),), (OneQubitEvent(0, 1e-17 / 3.0),), (), 0, 0)
        back = parse_program(serialize_program(prog))
        assert back.steps[0].f == prog.steps[0].f

    def test_equal_floats_keep_their_own_text(self):
        # the event text is memoised; 0.0 == -0.0 but they print differently
        fs = (0.001, 0.0, -0.0, 0.001, -0.0, 0.0)
        steps = tuple(OneQubitEvent(0, f) for f in fs) + tuple(
            TwoQubitEvent(0, 1, f) for f in fs)
        text = serialize_program(Program("toy", 2, ((0, 1),), steps, (), 0, 0))
        rows = [line.split()[-1] for line in text.splitlines() if line[:2] in ("e1", "e2")]
        assert rows == [repr(f) for f in fs] * 2
        assert [repr(s.f) for s in parse_program(text).steps] == rows

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ProgramError, match="line 1"):
            parse_program("bogus 1 2\n")
        with pytest.raises(ProgramError, match="line 2"):
            parse_program("program t\ne1 0\n")
        with pytest.raises(ProgramError, match="qubits"):
            parse_program("program t\n")

    @pytest.mark.parametrize("line", ["qubits abc", "logical yes", "cycles 1.5"])
    def test_parse_rejects_bad_header_values(self, line):
        with pytest.raises(ProgramError, match="line 3: invalid literal"):
            parse_program("program t\nqubits 1\n%s\nset 0\n" % line)

    @pytest.mark.parametrize("line", ["e1 0 %s", "e2 0 1 %s"])
    @pytest.mark.parametrize("f", ["nan", "1.5", "-0.2"])
    def test_parse_rejects_event_probability_outside_unit_interval(self, line, f):
        text = "program t\nqubits 2\nset 0,1\n%s\n" % (line % f)
        with pytest.raises(ProgramError, match=r"line 4: event probability must be in \[0, 1\]"):
            parse_program(text)

    @pytest.mark.parametrize("line, message", [
        ("synd 0,1,2", "7-qubit block, got 3"),
        ("coset z 0,1,2,3,4,5", "7-qubit block, got 6"),
        ("coset q 0,1,2,3,4,5,6", "basis must be 'z' or 'x'"),
        ("correct bit 0,1,2 3,4,5;6", "7-qubit block, got 3"),
        ("correct bit 0,1,2,3,4,5,6 7,8,9;10,11,12", "three groups of 3"),
        ("correct bit 0,1,2,3,4,5,6 7,8,9;10,11,12;13", "three groups of 3"),
        ("correct both 0,1,2,3,4,5,6 7,8,9;10,11,12;13,14,15", "phase must be"),
        ("synd 0 0,1,2,3,4,5,6", "synd takes 1 operands, got 2"),
        ("merge 0 1", "unknown keyword 'merge'"),
        ("split 3", "unknown keyword 'split'"),
        ("measure 0", "unknown keyword 'measure'"),
        ("elaborated 1", "unknown keyword 'elaborated'"),
        ("reset ,", "a reset takes at least one qubit"),
        ("verify 7 ,", "a verification readout takes at least one qubit"),
    ])
    def test_parse_rejects_malformed_readouts(self, line, message):
        # a malformed readout would parse and then fail inside both
        # engines; the last five are retired forms of the text format
        text = "program t\nqubits 16\nset %s\n%s\n" % (",".join(map(str, range(16))), line)
        with pytest.raises(ProgramError, match="line 4: .*" + message):
            parse_program(text)

    @pytest.mark.parametrize("line", ["cx 0 0", "e2 0 0 0.3", "verify 3 0,1,2,3,4,5,6"])
    def test_rejects_repeated_operands(self, line):
        text = "program t\nqubits 7\nset 0,1,2,3,4,5,6\n%s\n" % line
        with pytest.raises(ProgramError, match="line 4: .* repeats a qubit"):
            parse_program(text)

    def test_hash_is_stable_and_sensitive(self):
        a = build_basic_program(NoiseParams())
        b = build_basic_program(NoiseParams())
        c = build_basic_program(NoiseParams(two_qubit_op_error=2e-4))
        assert program_hash(a) == program_hash(b)
        assert program_hash(a) != program_hash(c)
        assert len(program_hash(a)) == 64


@dataclass(frozen=True)
class Teleport:
    """A step kind no table entry describes."""

    qubit: int


def test_unknown_step_kind_is_a_program_error():
    prog = Program("t", 1, ((0,),), (Teleport(0),), (), 0, 0)
    for call in (
        lambda: run_analytical(prog, Thresholds()),
        lambda: run_mc(prog, 8, seed=0),
        lambda: serialize_program(prog),
    ):
        with pytest.raises(ProgramError, match="unknown step kind"):
            call()


class TestCheckedSteps:
    STEPS = (OneQubitEvent(0, 0.125), CNot(0, 1), Reset((1, 2)), TwoQubitEvent(2, 0, 1e-3))

    @staticmethod
    def program(steps):
        return Program("t", 3, ((0, 1, 2),), tuple(steps), ((0, 1, 2),), 0, 0)

    def test_yields_each_step_in_order_with_its_kind_and_operands(self):
        assert list(checked_steps(self.program(self.STEPS))) == [
            (STEP_KINDS[OneQubitEvent], self.STEPS[0], (0,)),
            (STEP_KINDS[CNot], self.STEPS[1], (0, 1)),
            (STEP_KINDS[Reset], self.STEPS[2], (1, 2)),
            (STEP_KINDS[TwoQubitEvent], self.STEPS[3], (2, 0)),
        ]

    @pytest.mark.parametrize("step, error, message", [
        (CNot(0, 0), ProgramError, "repeats a qubit"),
        (TwoQubitEvent(1, 1, 0.3), ProgramError, "repeats a qubit"),
        (VerifyReadout((0, 1, 2), 2), ProgramError, "repeats a qubit"),
        (Hadamard(3), ProgramError, "undeclared qubit 3"),
        (Reset((-1,)), ProgramError, "undeclared qubit -1"),
        (OneQubitEvent(0, 1.5), ValueError, "event probability"),
        (TwoQubitEvent(0, 1, float("nan")), ValueError, "event probability"),
        (Teleport(0), ProgramError, "unknown step kind"),
    ])
    def test_yields_the_steps_before_a_faulty_third_step(self, step, error, message):
        # lazy: a caller that keeps only some steps holds no list of them all
        steps = checked_steps(self.program(self.STEPS[:2] + (step,) + self.STEPS[2:]))
        assert [s for _, s, _ in itertools.islice(steps, 2)] == list(self.STEPS[:2])
        with pytest.raises(error, match=message):
            next(steps)

    @pytest.mark.parametrize("module, run", [
        (engine, lambda prog: run_analytical(prog, Thresholds())),
        # three chunks
        (montecarlo, lambda prog: run_mc(prog, 2 * montecarlo._CHUNK + 1, seed=0)),
    ], ids=["analytical", "mc"])
    def test_each_engine_checks_the_program_once_per_call(self, monkeypatch, module, run):
        calls = []

        def spy(prog):
            calls.append(prog)
            return checked_steps(prog)

        monkeypatch.setattr(module, "checked_steps", spy)
        prog = self.program(self.STEPS)
        run(prog)
        assert calls == [prog]
