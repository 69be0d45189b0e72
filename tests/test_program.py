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
    Partition,
    Program,
    ProgramError,
    Reset,
    STEP_KINDS,
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

    @pytest.mark.parametrize("block", [(0, 9), (1, 1), (-1,), ()])
    def test_crash_blocks_list_distinct_program_qubits(self, block):
        with pytest.raises(ProgramError, match="crash block"):
            Program("t", 2, ((0, 1),), (), (block,), 0, 0)


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
        for step in (CNot(0, 5), MergeSets(0, 9), Measure((0, 9))):
            prog = Program("t", 2, ((0,), (1,)), (step,), (), 0, 0)
            with pytest.raises(ProgramError, match="undeclared"):
                elaborate(prog)

    @pytest.mark.parametrize("line, step", [
        ("cx 0 0", CNot(0, 0)),
        ("e2 0 0 0.3", TwoQubitEvent(0, 0, 0.3)),
        ("verify 3 0,1,2,3,4,5,6", VerifyReadout(tuple(range(7)), 3)),
        ("merge 0 0", MergeSets(0, 0)),
        ("measure 1,1", Measure((1, 1))),
    ])
    def test_rejects_repeated_operands(self, line, step):
        text = "program t\nqubits 7\nset 0,1,2,3,4,5,6\n%s\n" % line
        with pytest.raises(ProgramError, match="line 4: .* repeats a qubit"):
            parse_program(text)
        prog = Program("t", 7, (tuple(range(7)),), (step,), (), 0, 0)
        with pytest.raises(ProgramError, match="repeats a qubit"):
            elaborate(prog)

    def test_joins_the_sets_of_each_crash_block(self):
        raw = Program("t", 3, ((0,), (1,), (2,)), (OneQubitEvent(0, 0.6),), ((0, 1, 2),), 0, 0)
        once = elaborate(raw)
        assert once.steps == (OneQubitEvent(0, 0.6), MergeSets(0, 1), MergeSets(0, 2))
        assert elaborate(once) == once

    def test_reset_operands_share_a_set(self):
        prog = elaborate(Program("t", 2, ((0,), (1,)), (Reset((0, 1)),), (), 0, 0))
        assert prog.steps == (MergeSets(0, 1), Reset((0, 1)))
        assert run_analytical(prog, Thresholds()).survival_probability == 1.0

    def test_correct_reads_the_data_and_three_slots_per_ancilla_block(self):
        prog = elaborate(build_basic_program(QUIET))
        ancilla = [tuple(range(14 + 7 * k, 21 + 7 * k)) for k in range(3)]
        corrects = [s for s in prog.steps if isinstance(s, Correct)]
        assert len(corrects) == 8  # 2 logical CNOTs x 2 blocks x 2 phases
        for step in corrects:
            assert len(step.data) == 7
            assert step.ancilla_blocks == tuple(b[:3] for b in ancilla)
            assert len(STEP_KINDS[Correct].operands(step)) == 7 + 3 * 3

    def test_syndrome_readout_releases_the_cleared_slots(self):
        steps = elaborate(build_basic_program(QUIET)).steps
        synds = [i for i, s in enumerate(steps) if isinstance(s, SyndromeMeasure)]
        assert len(synds) == 24
        for i in synds:
            assert steps[i + 1] == SplitOff(steps[i].block[3:])

    def test_basic_program_sets_fit_one_key_word(self):
        # every set stays within one 32-qubit key word (27 at most today)
        prog = elaborate(build_basic_program(NoiseParams()))
        part = Partition(prog.initial_partition)
        widest = 0
        for step in prog.steps:
            if type(step) is MergeSets:
                sa, sb = part.loc[step.qubit_a][0], part.loc[step.qubit_b][0]
                if sa != sb:
                    part.place(part.members[sa] + part.members.pop(sb), sa)
            elif type(step) is SplitOff:
                sid, _ = part.locate(step.qubits)
                if len(step.qubits) < len(part.members[sid]):
                    part.place([q for q in part.members[sid] if q not in step.qubits], sid)
                    part.place(step.qubits)
            widest = max(widest, max(len(m) for m in part.members.values()))
        assert 14 < widest <= 32


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
            SyndromeMeasure(tuple(range(7, 14)), 1),
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

    @pytest.mark.parametrize("line", ["qubits abc", "elaborated yes", "cycles 1.5"])
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
        ("synd 0 0,1,2", "7-qubit block, got 3"),
        ("coset z 0,1,2,3,4,5", "7-qubit block, got 6"),
        ("coset q 0,1,2,3,4,5,6", "basis must be 'z' or 'x'"),
        ("correct bit 0,1,2 3,4,5;6", "7-qubit block, got 3"),
        ("correct bit 0,1,2,3,4,5,6 7,8,9;10,11,12", "three groups of 3"),
        ("correct bit 0,1,2,3,4,5,6 7,8,9;10,11,12;13", "three groups of 3"),
        ("correct both 0,1,2,3,4,5,6 7,8,9;10,11,12;13,14,15", "phase must be"),
    ])
    def test_parse_rejects_malformed_readouts(self, line, message):
        # each would parse and then fail inside both engines
        text = "program t\nqubits 16\nset %s\n%s\n" % (",".join(map(str, range(16))), line)
        with pytest.raises(ProgramError, match="line 4: .*" + message):
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
    prog = Program("t", 1, ((0,),), (Teleport(0),), (), 0, 0, elaborated=True)
    for call in (
        lambda: run_analytical(prog, Thresholds()),
        lambda: run_mc(prog, 8, seed=0),
        lambda: serialize_program(prog),
        lambda: elaborate(prog),
    ):
        with pytest.raises(ProgramError, match="unknown step kind"):
            call()
