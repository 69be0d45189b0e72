import math

import pytest

from paulitree import engine
from paulitree.engine import Partition, run_analytical
from paulitree.errormap import ErrorMap, MergeMode, Thresholds, merge, split
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    CNot,
    Correct,
    Hadamard,
    OneQubitEvent,
    Program,
    ProgramError,
    Reset,
    SyndromeMeasure,
    TwoQubitEvent,
    VerifyReadout,
    build_basic_program,
)
from tests import oracle

TH0 = Thresholds()
QUIET = NoiseParams(
    memory_decay_s=math.inf,
    operation_decay_s=math.inf,
    transport_decay_s=math.inf,
    one_qubit_op_error=0.0,
    two_qubit_op_error=0.0,
    measurement_error=0.0,
    reset_error=0.0,
)


def toy(steps, num_qubits=2, blocks=((0, 1),), partition=None):
    """Toy program for direct engine checks, in one set by default."""
    partition = partition or (tuple(range(num_qubits)),)
    return Program(
        name="toy",
        num_qubits=num_qubits,
        initial_partition=partition,
        steps=tuple(steps),
        crash_blocks=tuple(tuple(b) for b in blocks),
        num_logical=0,
        num_cycles=0,
    )


class TestToyPrograms:
    def test_two_qubit_event_crash_mass_is_exact(self):
        # 9 of the 15 equally likely outcomes error both block qubits
        prog = toy([TwoQubitEvent(0, 1, 0.3)])
        rep = run_analytical(prog, TH0)
        assert rep.crash_probability == pytest.approx(0.3 * 9 / 15, abs=1e-15)
        assert rep.survival_probability == pytest.approx(1 - 0.18, abs=1e-15)
        assert rep.discarded_mass == 0.0

    def test_gates_relocate_the_crash_mass(self):
        # an X on qubit 0 spreads to qubit 1 through the CNOT: weight 2
        prog = toy([OneQubitEvent(0, 0.3), CNot(0, 1)])
        rep = run_analytical(prog, TH0)
        # X and Y branches spread; the Z branch stays weight 1
        assert rep.crash_probability == pytest.approx(0.2, abs=1e-15)

    def test_crash_blocks_are_independent(self):
        prog = toy(
            [TwoQubitEvent(0, 1, 0.3), TwoQubitEvent(2, 3, 0.3)],
            num_qubits=4,
            blocks=((0, 1), (2, 3)),
        )
        rep = run_analytical(prog, TH0)
        per_block = 0.3 * 9 / 15
        assert rep.crash_probability == pytest.approx(
            1 - (1 - per_block) ** 2, abs=1e-15
        )

    def test_single_qubit_block_cannot_crash(self):
        prog = toy([OneQubitEvent(0, 0.3)], blocks=((0,),))
        rep = run_analytical(prog, TH0)
        assert rep.survival_probability == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("steps", [
        [OneQubitEvent(0, 0.3), CNot(0, 1), OneQubitEvent(1, 0.2), OneQubitEvent(2, 0.4)],
        [TwoQubitEvent(1, 2, 0.3), OneQubitEvent(0, 0.4)],
        [OneQubitEvent(0, 0.3), OneQubitEvent(1, 0.4), Reset((1, 0)), OneQubitEvent(1, 0.2),
         OneQubitEvent(2, 0.5)],
        [OneQubitEvent(0, 0.6), OneQubitEvent(1, 0.6), OneQubitEvent(2, 0.6)],
    ], ids=["cnot", "two-qubit-event", "reset", "crash-block"])
    def test_steps_across_sets_match_the_oracle(self, steps):
        # each qubit starts in a set of its own: the engine merges the
        # sets a step spans before it, and the crash block's at the end
        prog = toy(steps, num_qubits=3, blocks=((0, 1, 2),), partition=((0,), (1,), (2,)))
        rep = run_analytical(prog, TH0)
        assert rep.survival_probability == pytest.approx(
            oracle.survival_probability(prog), abs=1e-15)
        assert rep.crash_probability == pytest.approx(1.0 - rep.survival_probability, abs=1e-15)

    def test_injected_fault(self):
        prog = toy([CNot(0, 1)])
        rep = run_analytical(prog, TH0, initial_errors={0: Pauli.X})
        assert rep.crash_probability == 1.0  # X spreads to both qubits
        rep = run_analytical(prog, TH0, initial_errors={0: Pauli.Z})
        assert rep.survival_probability == 1.0  # Z stays on the control


class TestRunValidation:
    @pytest.mark.parametrize("errors, message", [
        ({0: 5}, "not a valid Pauli"),
        ({2: Pauli.X}, "outside"),
        ({-1: Pauli.X}, "outside"),
    ])
    def test_initial_errors_are_checked(self, errors, message):
        with pytest.raises(ValueError, match=message):
            run_analytical(toy([CNot(0, 1)]), TH0, initial_errors=errors)

    @pytest.mark.parametrize("step, message", [
        (CNot(0, 0), "repeats a qubit"),
        (TwoQubitEvent(1, 1, 0.3), "repeats a qubit"),
        (OneQubitEvent(2, 0.3), "undeclared"),
        (Hadamard(-1), "undeclared"),
        (Reset((0, 0)), "repeats a qubit"),
        (Reset((1, 2)), "undeclared"),
        (VerifyReadout((0, 1), 1), "repeats a qubit"),
        (SyndromeMeasure(tuple(range(7))), "undeclared"),
    ])
    def test_repeated_or_undeclared_operands_rejected(self, step, message):
        with pytest.raises(ProgramError, match=message):
            run_analytical(toy([step]), TH0)


def record_set_moves(monkeypatch):
    """Wrap the engine's merge and split; return the list they append to:
    ("merge", members of a, members of b) and ("split", kept, rest)."""
    moves = []

    def record_merge(a, b, th):
        moves.append(("merge", a.members, b.members))
        return merge(a, b, th)

    def record_split(qs, keep):
        kept, rest = split(qs, keep)
        moves.append(("split", kept.members, rest.members))
        return kept, rest

    monkeypatch.setattr(engine, "merge", record_merge)
    monkeypatch.setattr(engine, "split", record_split)
    return moves


class TestSetPlacement:
    def test_partition_places_groups_under_fresh_ids(self):
        part = Partition([(3, 1), (0, 2)])
        assert part.members == {0: (3, 1), 1: (0, 2)}
        assert part.loc == {3: (0, 0), 1: (0, 1), 0: (1, 0), 2: (1, 1)}
        assert part.locate([2, 0]) == (1, [1, 0])
        assert part.place((4,)) == 2

    def test_partition_place_under_an_existing_id_relocates_its_members(self):
        part = Partition([(0,), (1, 2)])
        assert part.place((2, 0), 0) == 0
        assert part.members[0] == (2, 0)
        assert part.locate([0, 2]) == (0, [1, 0])
        assert part.next_id == 2

    def test_operand_sets_merge_into_the_first_operands_set_in_order(self, monkeypatch):
        moves = record_set_moves(monkeypatch)
        prog = toy([Reset((2, 0, 1))], num_qubits=3, blocks=((2, 0, 1),),
                   partition=((0,), (1,), (2,)))
        run_analytical(prog, TH0)
        assert [m[0] for m in moves] == ["merge", "merge"]
        assert moves[0][1:] == ((2,), (0,))
        assert sorted(moves[1][1]) == [0, 2] and moves[1][2] == (1,)

    def test_steps_within_one_set_move_no_set(self, monkeypatch):
        moves = record_set_moves(monkeypatch)
        prog = toy([OneQubitEvent(0, 0.3), CNot(0, 1), TwoQubitEvent(1, 0, 0.2)])
        run_analytical(prog, TH0)
        assert moves == []

    def test_crash_blocks_are_joined_after_the_last_step(self, monkeypatch):
        moves = record_set_moves(monkeypatch)
        prog = toy([OneQubitEvent(q, 0.6) for q in range(4)], num_qubits=4,
                   blocks=((0, 1, 2), (3,)), partition=((0,), (1,), (2,), (3,)))
        rep = run_analytical(prog, TH0)
        # only the three-qubit block is joined; qubit 3's set stays apart
        assert [m[1:] for m in moves] == [((0,), (1,)), (moves[1][1], (2,))]
        assert sorted(moves[1][1]) == [0, 1]
        assert rep.survival_probability == pytest.approx(
            oracle.survival_probability(prog), abs=1e-15)

    def test_a_released_group_is_merged_back_when_a_step_needs_it(self, monkeypatch):
        moves = record_set_moves(monkeypatch)
        block = tuple(range(7))
        prog = toy([VerifyReadout(block, 7), CNot(7, 0)], num_qubits=8, blocks=(block,))
        run_analytical(prog, TH0)
        assert [m[0] for m in moves] == ["split", "merge"]
        assert moves[0][1] == (7,) and sorted(moves[0][2]) == list(block)
        assert {moves[1][1], moves[1][2]} == {moves[0][1], moves[0][2]}


def spy_event_kernel(monkeypatch):
    """Wrap ErrorMap.event_kernel; return the list it appends each
    call's (number of outcome patterns, f) to."""
    calls = []
    kernel = ErrorMap.event_kernel

    def spy(self, patterns, f, event_branch):
        calls.append((patterns.shape[0], f))
        return kernel(self, patterns, f, event_branch)

    monkeypatch.setattr(ErrorMap, "event_kernel", spy)
    return calls


def fused(*fs):
    """The one depolarizing event a run of them composes to."""
    return 0.75 * (1.0 - math.prod(1.0 - 4.0 * f / 3.0 for f in fs))


class TestEventFusion:
    # q0's run of three events is interleaved with other qubits' steps and
    # ends at a step that reads q0, or at the end of the program; every
    # qubit starts in a set of its own.  Every rate has a dyadic third and
    # complement, and so has every run's fused rate: the oracle's sum over
    # thousands of leaves is then exact, and 1e-15 measures the engine.
    @pytest.mark.parametrize("steps, one_qubit_fs", [
        ([OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.75), OneQubitEvent(0, 0.1875),
          CNot(1, 2), OneQubitEvent(0, 0.09375), TwoQubitEvent(1, 2, 0.46875),
          OneQubitEvent(2, 0.046875)],
         [0.75, fused(0.375, 0.1875, 0.09375), 0.046875]),
        ([OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.75), OneQubitEvent(0, 0.1875),
          OneQubitEvent(0, 0.09375), Reset((0,)), OneQubitEvent(0, 0.5625)],
         [fused(0.375, 0.1875, 0.09375), 0.5625, 0.75]),
        ([OneQubitEvent(0, 0.375), OneQubitEvent(2, 0.046875), OneQubitEvent(0, 0.1875),
          OneQubitEvent(0, 0.09375), TwoQubitEvent(0, 1, 0.46875)],
         [fused(0.375, 0.1875, 0.09375), 0.046875]),
        ([OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.75), OneQubitEvent(0, 0.1875),
          OneQubitEvent(2, 0.046875), OneQubitEvent(0, 0.09375)],
         [fused(0.375, 0.1875, 0.09375), 0.75, 0.046875]),
    ], ids=["cnot", "reset", "two-qubit-event", "crash-block"])
    def test_a_run_of_events_on_one_qubit_makes_one_call(self, monkeypatch, steps,
                                                         one_qubit_fs):
        calls = spy_event_kernel(monkeypatch)
        prog = toy(steps, num_qubits=3, blocks=((0, 1, 2),), partition=((0,), (1,), (2,)))
        rep = run_analytical(prog, TH0)
        assert [f for k, f in calls if k == 3] == pytest.approx(one_qubit_fs, abs=1e-15)
        assert rep.survival_probability == pytest.approx(
            oracle.survival_probability(prog), abs=1e-15)

    def test_a_lone_event_reaches_the_kernel_unchanged(self, monkeypatch):
        calls = spy_event_kernel(monkeypatch)
        lone = 0.1234567890123
        run_analytical(toy([OneQubitEvent(0, lone), OneQubitEvent(1, 0.3),
                            OneQubitEvent(1, 0.3)]), TH0)
        assert len(calls) == 2
        assert calls[0][1] == lone

    @pytest.mark.parametrize("partition", [((0,), (1,), (2,)), ((0, 1, 2),)],
                             ids=["own-set", "shared-set"])
    def test_events_outside_every_crash_block_make_no_call(self, monkeypatch, partition):
        # q2 is in no crash block and no later step reads it
        calls = spy_event_kernel(monkeypatch)
        prog = toy([OneQubitEvent(2, 0.3), OneQubitEvent(0, 0.1), OneQubitEvent(2, 0.4),
                    CNot(0, 1), OneQubitEvent(2, 0.5)], num_qubits=3, partition=partition)
        rep = run_analytical(prog, TH0)
        assert calls == [(3, 0.1)]
        assert rep.survival_probability == pytest.approx(
            oracle.survival_probability(prog), abs=1e-15)

    @pytest.mark.parametrize("f", [-0.1, 1.5, math.nan])
    def test_deferred_events_are_still_validated(self, f):
        # even an event the engine would drop, on a qubit in no crash block
        prog = toy([OneQubitEvent(2, f)], num_qubits=3)
        with pytest.raises(ValueError, match=r"event probability must be in \[0, 1\]"):
            run_analytical(prog, TH0)

    def test_basic_program_makes_one_call_per_run(self, monkeypatch):
        calls = spy_event_kernel(monkeypatch)
        prog = build_basic_program(NoiseParams())
        run_analytical(prog, Thresholds(1e-4, 1e-8))
        # every two-qubit event still makes its own call; the 26,258
        # one-qubit events fuse into 2,555 runs
        assert sum(isinstance(s, TwoQubitEvent) for s in prog.steps) == 686
        assert sum(isinstance(s, OneQubitEvent) for s in prog.steps) == 26258
        assert sum(k == 15 for k, _ in calls) == 686
        assert sum(k == 3 for k, _ in calls) == 2555


class TestBasicProgram:
    def test_zero_noise_survives_exactly(self):
        prog = build_basic_program(QUIET)
        rep = run_analytical(prog, TH0)
        assert rep.survival_probability == 1.0
        assert rep.crash_probability == 0.0
        assert rep.discarded_mass == 0.0
        assert rep.steps_executed == len(prog.steps)

    def test_deterministic_reports(self):
        prog = build_basic_program(NoiseParams())
        th = Thresholds(1e-5, 1e-10, MergeMode.PRESERVATION)
        a = run_analytical(prog, th)
        b = run_analytical(prog, th)
        assert a.survival_probability == b.survival_probability
        assert a.crash_probability == b.crash_probability
        assert a.peak_error_map_entries == b.peak_error_map_entries

    def test_mass_accounting_both_merge_modes(self):
        prog = build_basic_program(NoiseParams())
        for mode in (MergeMode.PRESERVATION, MergeMode.LOSSY):
            rep = run_analytical(prog, Thresholds(1e-5, 1e-10, mode))
            total = (
                rep.survival_probability
                + rep.crash_probability
                + rep.discarded_mass
            )
            assert total == pytest.approx(1.0, abs=1e-9)
            if mode is MergeMode.PRESERVATION:
                assert rep.discarded_mass == 0.0

    def test_coarser_event_threshold_prunes_harder(self):
        prog = build_basic_program(NoiseParams())
        coarse = run_analytical(prog, Thresholds(1e-4, 1e-8))
        fine = run_analytical(prog, Thresholds(1e-5, 1e-8))
        assert coarse.peak_error_map_entries <= fine.peak_error_map_entries
        # harder pruning can only miss crash mass, never invent it
        assert 0.0 < coarse.crash_probability <= fine.crash_probability


    def test_sets_merge_and_release_where_the_steps_say(self, monkeypatch):
        merged, released = [], []

        def record_merge(a, b, th):
            qs = merge(a, b, th)
            merged.append(qs.members)
            return qs

        def record_split(qs, keep):
            kept, rest = split(qs, keep)
            released.append(tuple(sorted(kept.members)))
            return kept, rest

        monkeypatch.setattr(engine, "merge", record_merge)
        monkeypatch.setattr(engine, "split", record_split)
        prog = build_basic_program(NoiseParams())
        run_analytical(prog, Thresholds(1e-4, 1e-8))
        # every set stays within one 32-qubit key word (27 at most today)
        assert 14 < max(len(m) for m in merged) <= 32
        # a syndrome readout releases the four positions it clears
        synds = [s for s in prog.steps if isinstance(s, SyndromeMeasure)]
        assert len(synds) == 24
        assert [g for g in released if len(g) == 4] == [s.block[3:] for s in synds]
        # a correction releases the nine syndrome slots it reads
        corrects = [s for s in prog.steps if isinstance(s, Correct)]
        assert [g for g in released if len(g) == 3] == [
            b for s in corrects for b in s.ancilla_blocks]
