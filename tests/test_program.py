import math
from dataclasses import dataclass

import pytest

from paulitree.engine import run_analytical
from paulitree.errormap import Thresholds
from paulitree.montecarlo import run_mc
from paulitree.noise import NoiseParams, decoherence_prob
from paulitree.program import (
    CNot,
    Correct,
    CosetReduce,
    Hadamard,
    Measure,
    MergeSets,
    OneQubitEvent,
    Program,
    ProgramError,
    Reset,
    Schedule,
    SplitOff,
    SyndromeMeasure,
    TwoQubitEvent,
    VerifyReadout,
    build_basic_program,
    build_scaling_program,
    elaborate,
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
        assert Measure((0,)) in sched.steps
        assert OneQubitEvent(1, p.reset_error) in sched.steps
        assert OneQubitEvent(0, p.measurement_error) in sched.steps
        # the measurement-error event precedes the readout
        steps = list(sched.steps)
        assert steps.index(OneQubitEvent(0, p.measurement_error)) < steps.index(
            Measure((0,))
        )

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


class TestBuilders:
    def test_basic_program_layout(self):
        prog = build_basic_program(NoiseParams())
        assert prog.name == "basic"
        assert prog.num_logical == 2
        # 2 data blocks + 3 ancilla blocks + 1 verifier
        assert prog.num_qubits == 14 + 21 + 1
        assert prog.crash_blocks == (tuple(range(7)), tuple(range(7, 14)))
        assert len(prog.initial_partition) == 6
        assert not prog.elaborated
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


class TestElaborate:
    def test_inserts_merges_before_coresident_steps(self):
        prog = elaborate(build_basic_program(NoiseParams()))
        assert prog.elaborated
        # every CNOT between different initial sets is preceded by a merge
        assert any(isinstance(s, MergeSets) for s in prog.steps)
        assert any(isinstance(s, SplitOff) for s in prog.steps)

    def test_preserves_the_operational_subsequence(self):
        raw = build_basic_program(NoiseParams())
        cooked = elaborate(raw)
        strip = lambda steps: [
            s for s in steps if not isinstance(s, (MergeSets, SplitOff))
        ]
        assert strip(cooked.steps) == strip(raw.steps)

    def test_idempotent(self):
        once = elaborate(build_basic_program(NoiseParams()))
        twice = elaborate(once)
        assert twice.steps == once.steps
        assert program_hash(twice) == program_hash(once)

    def test_rejects_undeclared_qubits(self):
        prog = Program("t", 2, ((0,), (1,)), (CNot(0, 5),), (), 0, 0)
        with pytest.raises(ProgramError, match="undeclared"):
            elaborate(prog)

    def test_reset_operands_share_a_set(self):
        prog = elaborate(Program("t", 2, ((0,), (1,)), (Reset((0, 1)),), (), 0, 0))
        assert prog.steps == (MergeSets(0, 1), Reset((0, 1)))
        assert run_analytical(prog, Thresholds()).survival_probability == 1.0

    def test_correct_merges_data_with_all_ancilla_blocks(self):
        prog = elaborate(build_basic_program(QUIET))
        seen = set()
        for step in prog.steps:
            if isinstance(step, Correct):
                seen.add(len(step.ancilla_blocks))
        assert seen == {3}


class TestSerialization:
    def test_round_trip_identity(self):
        for prog in (
            build_basic_program(NoiseParams()),
            elaborate(build_scaling_program(3, NoiseParams(global_scale=10.0))),
        ):
            assert parse_program(serialize_program(prog)) == prog

    def test_all_step_kinds_round_trip(self):
        steps = (
            OneQubitEvent(0, 0.125),
            TwoQubitEvent(0, 1, 1e-4),
            Hadamard(2),
            CNot(2, 0),
            MergeSets(0, 2),
            SplitOff((2,)),
            Reset((0, 1)),
            Measure((1,)),
            VerifyReadout((0, 1), 2),
            SyndromeMeasure((0, 1), 1),
            CosetReduce((0, 1), "z"),
            Correct((0,), ((1,), (2,)), "phase"),
        )
        prog = Program("toy", 3, ((0, 1), (2,)), steps, ((0, 1),), 1, 4)
        assert parse_program(serialize_program(prog)) == prog

    def test_float_fidelity(self):
        prog = Program("toy", 1, ((0,),), (OneQubitEvent(0, 1e-17 / 3.0),), (), 0, 0)
        back = parse_program(serialize_program(prog))
        assert back.steps[0].f == prog.steps[0].f

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ProgramError, match="line 1"):
            parse_program("bogus 1 2\n")
        with pytest.raises(ProgramError, match="line 2"):
            parse_program("program t\ne1 0\n")
        with pytest.raises(ProgramError, match="qubits"):
            parse_program("program t\n")

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
    prog = Program("t", 1, ((0,),), (Teleport(0),), (), 0, 0, elaborated=True)
    for call in (
        lambda: run_analytical(prog, Thresholds()),
        lambda: run_mc(prog, 8, seed=0),
        lambda: serialize_program(prog),
        lambda: elaborate(prog),
    ):
        with pytest.raises(ProgramError, match="unknown step kind"):
            call()
