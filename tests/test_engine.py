import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitree import engine, errormap, qecc
from paulitree.engine import Partition, run_analytical
from paulitree.errormap import ErrorMap, MergeMode, Thresholds, merge, split
from paulitree.montecarlo import run_mc
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli, PauliString
from paulitree.program import (
    CNot,
    Correct,
    Hadamard,
    OneQubitEvent,
    Program,
    ProgramError,
    Reset,
    STEP_KINDS,
    SyndromeMeasure,
    TwoQubitEvent,
    VerifyReadout,
    build_basic_program,
    build_scaling_program,
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

    @pytest.mark.parametrize("run", [
        lambda prog: run_analytical(prog, TH0),
        lambda prog: run_mc(prog, 8, seed=0),
    ], ids=["analytical", "mc"])
    @pytest.mark.parametrize("first, error, message", [
        (OneQubitEvent(0, 1.5), ValueError, "event probability"),
        (OneQubitEvent(2, 0.3), ProgramError, "undeclared"),
        (Hadamard(-1), ProgramError, "undeclared"),
    ])
    def test_the_first_faulty_step_is_reported(self, run, first, error, message):
        # the liveness pass keeps only the kernel steps: a faulty kernel
        # step later on must not hide an earlier faulty step, and both
        # engines must report the same one
        with pytest.raises(error, match=message):
            run(toy([first, OneQubitEvent(1, 0.3), CNot(0, 0)]))


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

    def spy(self, patterns, f, event_branch, weights=None):
        calls.append((patterns.shape[0], f))
        return kernel(self, patterns, f, event_branch, weights)

    monkeypatch.setattr(ErrorMap, "event_kernel", spy)
    return calls


def fused(*fs):
    """The one depolarizing event a run of them composes to."""
    return 0.75 * (1.0 - math.prod(1.0 - 4.0 * f / 3.0 for f in fs))


def event_f(prog, qubits, n=None):
    """The f of an event on ``qubits`` that holds every event the
    program's first n steps (all by default) put on them: by the oracle,
    1 - P(every one of them ends at I)."""
    states = oracle.final_states(dataclasses.replace(prog, steps=prog.steps[:n]), exact=True)
    return float(1 - sum(p for s, p in states.items() if all(s[q] == "I" for q in qubits)))


def pair_f(prog, a, b, n=None):
    """The f of a pair event on (a, b): :func:`event_f` of both."""
    return event_f(prog, (a, b), n)


def assert_calls(calls, prog, expected):
    """``calls`` match ``expected`` in order: (k, f) for an event with k
    outcomes, or (15, (a, b)) or (15, (a, b, n)) for a pair event on a
    and b, its f by :func:`pair_f`."""
    assert [k for k, _ in calls] == [k for k, _ in expected]
    for (_, f), (k, want) in zip(calls, expected):
        assert f == pytest.approx(pair_f(prog, *want) if isinstance(want, tuple) else want,
                                  abs=1e-15)


def every_segment_misses(monkeypatch):
    """Key every closed segment apart, so that each one is computed."""
    monkeypatch.setattr(engine, "_segment_key", lambda widths, body: object())


def assert_matches_oracle(prog, rep):
    assert rep.survival_probability == pytest.approx(
        oracle.survival_probability(prog), abs=1e-15)


class TestEventFusion:
    # q0's run of three events is interleaved with other qubits' steps and
    # ends at a step that reads q0, or at the end of the program; every
    # qubit starts in a set of its own.  Every rate has a dyadic third and
    # complement, and so has every run's fused rate: the oracle's sum over
    # thousands of leaves is then exact, and 1e-15 measures the engine.
    @pytest.mark.parametrize("steps, expected", [
        # q1's event is carried through the CNOT into a pair event, which
        # the two-qubit event composes into and applies; q2's later event
        # runs alone
        ([OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.75), OneQubitEvent(0, 0.1875),
          CNot(1, 2), OneQubitEvent(0, 0.09375), TwoQubitEvent(1, 2, 0.46875),
          OneQubitEvent(2, 0.046875)],
         [(15, (1, 2, 6)), (3, fused(0.375, 0.1875, 0.09375)), (3, 0.046875)]),
        # the reset erases q0's run, so it is dropped unapplied; the reset
        # clears q0's whole set and opens a closed segment, which holds the
        # crash block's flush of q0's later event.  The segment is a run of
        # the plan built in step order, so its call comes first, and q1's
        # flush, on a set that is not closed, ends it
        ([OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.75), OneQubitEvent(0, 0.1875),
          OneQubitEvent(0, 0.09375), Reset((0,)), OneQubitEvent(0, 0.5625)],
         [(3, 0.5625), (3, 0.75)]),
        # q0's run composes into the two-qubit event's pair event
        ([OneQubitEvent(0, 0.375), OneQubitEvent(2, 0.046875), OneQubitEvent(0, 0.1875),
          OneQubitEvent(0, 0.09375), TwoQubitEvent(0, 1, 0.46875)],
         [(15, (0, 1)), (3, 0.046875)]),
        ([OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.75), OneQubitEvent(0, 0.1875),
          OneQubitEvent(2, 0.046875), OneQubitEvent(0, 0.09375)],
         [(3, fused(0.375, 0.1875, 0.09375)), (3, 0.75), (3, 0.046875)]),
    ], ids=["cnot", "reset", "two-qubit-event", "crash-block"])
    def test_a_run_of_events_on_one_qubit_makes_one_call(self, monkeypatch, steps, expected):
        calls = spy_event_kernel(monkeypatch)
        prog = toy(steps, num_qubits=3, blocks=((0, 1, 2),), partition=((0,), (1,), (2,)))
        rep = run_analytical(prog, TH0)
        assert_calls(calls, prog, expected)
        assert rep.branch_calls == len(expected)
        assert_matches_oracle(prog, rep)

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
        # q2 is in no crash block and no later step reads it; q0's event
        # is carried through the CNOT into a pair event on (0, 1)
        calls = spy_event_kernel(monkeypatch)
        prog = toy([OneQubitEvent(2, 0.3), OneQubitEvent(0, 0.1), OneQubitEvent(2, 0.4),
                    CNot(0, 1), OneQubitEvent(2, 0.5)], num_qubits=3, partition=partition)
        rep = run_analytical(prog, TH0)
        assert calls == [(15, 0.1)]
        assert rep.survival_probability == pytest.approx(
            oracle.survival_probability(prog), abs=1e-15)

    @pytest.mark.parametrize("f", [-0.1, 1.5, math.nan])
    def test_deferred_events_are_still_validated(self, f):
        # even an event the engine would drop, on a qubit in no crash block
        prog = toy([OneQubitEvent(2, f)], num_qubits=3)
        with pytest.raises(ValueError, match=r"event probability must be in \[0, 1\]"):
            run_analytical(prog, TH0)

    @pytest.mark.parametrize("f", [-0.1, 1.5, math.nan])
    def test_deferred_two_qubit_events_are_still_validated(self, f):
        # on qubits in no crash block, composed into a pair event
        prog = toy([TwoQubitEvent(2, 3, f)], num_qubits=4)
        with pytest.raises(ValueError, match=r"event probability must be in \[0, 1\]"):
            run_analytical(prog, TH0)

    @pytest.mark.parametrize("build, pairs, ones, lone_calls", [
        (build_basic_program, 686, 26258, 886),
        (lambda p: build_scaling_program(2, p), 343, 13406, 450),
    ], ids=["basic", "scaling-2"])
    def test_basic_program_makes_one_call_per_run(self, monkeypatch, build, pairs, ones,
                                                  lone_calls):
        calls = spy_event_kernel(monkeypatch)
        every_segment_misses(monkeypatch)
        prog = build(NoiseParams())
        rep = run_analytical(prog, Thresholds(1e-4, 1e-8))
        # each two-qubit event follows a CNOT on its pair and makes one
        # pair-event call together with the CNOT's operands' events, so a
        # pair that outlived its two-qubit event would add calls; the
        # other one-qubit runs are flushed as calls of their own, and on
        # the basic program 174 more runs are dropped by the resets that
        # clear their qubits
        assert sum(isinstance(s, TwoQubitEvent) for s in prog.steps) == pairs
        assert sum(isinstance(s, OneQubitEvent) for s in prog.steps) == ones
        assert sum(k == 15 for k, _ in calls) == pairs
        assert sum(k == 3 for k, _ in calls) == lone_calls
        assert rep.branch_calls == len(calls) == pairs + lone_calls


def spy_apply(monkeypatch):
    """Wrap ErrorMap.apply; return the list it appends each call's
    number of kernels to."""
    runs = []
    apply = ErrorMap.apply

    def spy(self, *calls):
        runs.append(len(calls))
        return apply(self, *calls)

    monkeypatch.setattr(ErrorMap, "apply", spy)
    return runs


class TestKernelRuns:
    def test_adjacent_kernels_on_one_set_are_joined(self):
        a, b, c, d = (((errormap, "cnot_kernel"), (i, i + 1)) for i in range(4))
        branch = (engine.BRANCH, 0, (0,), 0.25, None)
        ops = [(engine.APPLY, 0, (a,)), (engine.APPLY, 0, (b,)), (engine.APPLY, 1, (c,)),
               branch, (engine.APPLY, 1, (d,)), (engine.APPLY, 0, (a,))]
        planner = engine._Planner([(0,), (1,)], [3, 3])
        for op in ops:
            planner.emit(op, op[1])
        assert planner.ops == [
            (engine.APPLY, 0, (a, b)), (engine.APPLY, 1, (c,)), branch,
            (engine.APPLY, 1, (d,)), (engine.APPLY, 0, (a,))]

    @pytest.mark.parametrize("build", [
        build_basic_program, lambda p: build_scaling_program(2, p),
    ], ids=["basic", "scaling-2"])
    def test_no_two_adjacent_kernel_operations_share_a_set(self, build):
        p = engine.plan(build(NoiseParams()))
        assert p.segments
        for ops in [p.ops] + [seg.body for seg in p.segments]:
            assert any(op[0] == engine.APPLY for op in ops)
            assert not any(x[0] == y[0] == engine.APPLY and x[1] == y[1]
                           for x, y in zip(ops, ops[1:]))

    def test_a_run_of_gates_makes_one_apply_call_and_one_aggregation(self, monkeypatch):
        prog = toy([CNot(i % 3, (i + 1) % 3) for i in range(7)] + [OneQubitEvent(0, 0.375)],
                   num_qubits=3, blocks=((0, 1, 2),))
        p = engine.plan(prog)
        assert [len(op[2]) for op in p.ops if op[0] == engine.APPLY] == [7]
        runs = spy_apply(monkeypatch)
        rows = []
        aggregate = errormap._aggregate

        def spy_aggregate(keys, probs):
            rows.append(keys.shape[0])
            return aggregate(keys, probs)

        monkeypatch.setattr(errormap, "_aggregate", spy_aggregate)
        rep = engine.execute(p, TH0)
        assert runs == [7]
        # the initial map, the run of seven CNOTs, the event's three branches
        assert rows == [1, 1, 3]
        assert_matches_oracle(prog, rep)

    def test_basic_program_makes_one_apply_call_per_run(self, monkeypatch):
        runs = spy_apply(monkeypatch)
        rep = run_analytical(build_basic_program(NoiseParams()), Thresholds(1e-6, 1e-12))
        # 70 runs at top level and 25 and 20 in the two computed segments;
        # 261 of their kernels clear components no later readout can see
        assert (len(runs), sum(runs)) == (115, 628)
        assert (rep.segments_replayed, rep.branch_calls) == (22, 1572)

    def test_no_component_clear_follows_a_syndrome_readout(self):
        # the readout leaves the Z bits of its stored slots at I already
        p = engine.plan(build_basic_program(NoiseParams()))
        names = [[name for (_, name), _ in op[2]]
                 for ops in [p.ops] + [seg.body for seg in p.segments]
                 for op in ops if op[0] == engine.APPLY]
        after = [run[i + 1] if i + 1 < len(run) else None
                 for run in names for i, name in enumerate(run) if name == "syndrome_kernel"]
        assert len(after) == 24
        assert "clear_components_kernel" not in after
        # other readouts still clear the components no later readout sees
        assert any("clear_components_kernel" in run for run in names)


class TestResets:
    """A kernel step whose kind zeroes every operand whole, on a set that
    holds just its operands, becomes a RESET."""

    def test_every_basic_reset_clears_a_whole_set(self):
        prog = build_basic_program(NoiseParams())
        p = engine.plan(prog)
        runs = [p.ops] + [seg.body for seg in p.segments]
        resets = [sum(op[0] == engine.RESET for op in ops) for ops in runs]
        assert sum(isinstance(step, Reset) for step in prog.steps) == 96
        # each ancilla preparation's segment starts with the resets of its
        # block and of its verifier, and holds the verifier's two later ones
        assert (resets[0], sum(resets[1:])) == (48, 48)
        # no Reset stays an APPLY: its clear takes the positions alone, a
        # clear of dead components takes (positions, bits)
        assert not any(name == "clear_components_kernel" and len(args) == 1
                       for ops in runs for op in ops if op[0] == engine.APPLY
                       for (_, name), args in op[2])

    def test_a_reset_of_part_of_a_set_applies_the_clear_kernel(self):
        prog = toy([OneQubitEvent(0, 0.375), CNot(0, 2), Reset((0, 1)),
                    OneQubitEvent(1, 0.1875)], num_qubits=3, blocks=((0, 1, 2),))
        p = engine.plan(prog)
        assert not any(op[0] in (engine.RESET, engine.SEGMENT) for op in p.ops)
        calls = [call for op in p.ops if op[0] == engine.APPLY for call in op[2]]
        assert calls[-1] == ((errormap, "clear_components_kernel"), ((0, 1),))
        assert_matches_oracle(prog, run_analytical(prog, TH0))


class TestCarriedEvents:
    """Pending events carried through Hadamards and CNOTs.  A pair event
    is held from its CNOT to the next step that names a member, which
    applies it unless it is the two-qubit event on the pair.  Rates are
    dyadic as in :class:`TestEventFusion`, so 1e-15 measures the engine."""

    def run(self, monkeypatch, steps, num_qubits=3, blocks=((0, 1, 2),)):
        calls = spy_event_kernel(monkeypatch)
        prog = toy(steps, num_qubits=num_qubits, blocks=blocks,
                   partition=tuple((q,) for q in range(num_qubits)))
        rep = run_analytical(prog, TH0)
        assert_matches_oracle(prog, rep)
        assert rep.branch_calls == len(calls)
        return prog, calls

    def test_a_cnot_absorbs_both_operands_events(self, monkeypatch):
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.1875), OneQubitEvent(0, 0.75),
            CNot(0, 1)])
        assert_calls(calls, prog, [(15, (0, 1))])

    @pytest.mark.parametrize("event", [TwoQubitEvent(0, 1, 0.46875),
                                       TwoQubitEvent(1, 0, 0.46875)], ids=["ab", "ba"])
    def test_a_following_two_qubit_event_composes_into_the_pair_and_applies_it(
            self, monkeypatch, event):
        # the pair is applied at the two-qubit event, before q2's earlier
        # event and q1's later one, which run alone at the end
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), OneQubitEvent(2, 0.75), OneQubitEvent(1, 0.1875),
            CNot(0, 1), event, OneQubitEvent(1, 0.5625)])
        assert_calls(calls, prog, [(15, (0, 1, 5)), (3, 0.5625), (3, 0.75)])

    def test_an_idle_event_on_a_pair_member_applies_the_pair_first(self, monkeypatch):
        # the pair from the CNOT is applied at q1's event; the events
        # after it fuse per qubit and compose into the two-qubit event
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), CNot(0, 1), OneQubitEvent(1, 0.1875),
            OneQubitEvent(0, 0.09375), OneQubitEvent(1, 0.5625), TwoQubitEvent(0, 1, 0.234375),
            OneQubitEvent(0, 0.046875)])
        idle = dataclasses.replace(prog, steps=prog.steps[2:6])
        assert_calls(calls, prog, [(15, (0, 1, 2)), (15, pair_f(idle, 0, 1)), (3, 0.046875)])

    def test_a_hadamard_carries_a_single_event(self, monkeypatch):
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), Hadamard(0), OneQubitEvent(0, 0.1875), Hadamard(0),
            OneQubitEvent(1, 0.75)])
        assert_calls(calls, prog, [(3, fused(0.375, 0.1875)), (3, 0.75)])

    @pytest.mark.parametrize("target", [0, 1])
    def test_a_hadamard_on_a_pair_member_applies_the_pair_first(self, monkeypatch, target):
        # X on the control spreads to the target, so each pair is not
        # symmetric and a wrong gather would show; the second pair holds
        # q1's event alone, conjugated, so its f is q1's
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), CNot(0, 1), Hadamard(target),
            OneQubitEvent(1, 0.1875), CNot(1, 0), Hadamard(1 - target)])
        assert_calls(calls, prog, [(15, (0, 1, 2)), (15, 0.1875)])

    def test_a_cnot_onto_a_third_qubit_flushes_the_pair(self, monkeypatch):
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.1875), CNot(0, 1),
            OneQubitEvent(2, 0.75), CNot(0, 2), OneQubitEvent(1, 0.09375)])
        # (0, 1) is flushed at the second CNOT with both first events;
        # (0, 2) then holds only q2's event, conjugated, and q1's later
        # event runs alone, after the pair in the crash block's order
        assert calls == [(15, pytest.approx(1 - 0.625 * 0.8125, abs=1e-15)),
                         (15, pytest.approx(0.75, abs=1e-15)), (3, 0.09375)]

    @pytest.mark.parametrize("member", [0, 1])
    def test_a_reset_of_one_member_applies_the_pair_on_its_masked_weights(
            self, monkeypatch, member):
        # the reset kills both components of the member, so the pair
        # branches on its fifteen outcomes with only the other member's
        # marginal left
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.09375), CNot(0, 1),
            Reset((member,)), OneQubitEvent(member, 0.1875)])
        assert_calls(calls, prog, [(15, event_f(prog, (1 - member,), 3)), (3, 0.1875)])

    def test_a_second_cnot_on_the_pair_applies_it_first(self, monkeypatch):
        # the second CNOT starts a pair of its own, with no event, which
        # the two-qubit event composes into
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), OneQubitEvent(1, 0.1875), CNot(0, 1), CNot(1, 0),
            TwoQubitEvent(0, 1, 0.46875)])
        assert_calls(calls, prog, [(15, (0, 1, 3)), (15, 0.46875)])

    def test_a_readout_of_one_member_flushes_the_pair_first(self, monkeypatch):
        # the oracle has no readouts: check that the pair event is applied,
        # once, before the readout kernel runs
        log = []
        kernel, readout = ErrorMap.event_kernel, qecc.verify_kernel

        def spy(self, patterns, f, event_branch, weights=None):
            log.append(patterns.shape[0])
            return kernel(self, patterns, f, event_branch, weights)

        def spy_readout(keys, block, verifier):
            log.append("verify")
            return readout(keys, block, verifier)

        monkeypatch.setattr(ErrorMap, "event_kernel", spy)
        monkeypatch.setattr(qecc, "verify_kernel", spy_readout)
        block = tuple(range(7))
        prog = toy([OneQubitEvent(0, 0.375), OneQubitEvent(7, 0.1875), CNot(0, 7),
                    VerifyReadout(block, 7)], num_qubits=8, blocks=(block,))
        rep = run_analytical(prog, TH0)
        assert log == [15, "verify"]
        assert rep.branch_calls == 1

    def test_pairs_at_the_end_are_flushed_only_if_they_reach_a_crash_block(self, monkeypatch):
        # (0, 2) reaches the block (0, 1) through q0, and nothing reads
        # q2, so it branches on its fifteen outcomes with only q0's
        # marginal left; (3, 4) reaches none
        prog, calls = self.run(monkeypatch, [
            OneQubitEvent(0, 0.375), CNot(0, 2), OneQubitEvent(3, 0.1875),
            OneQubitEvent(4, 0.09375), CNot(3, 4)], num_qubits=5, blocks=((0, 1),))
        assert_calls(calls, prog, [(15, event_f(prog, (0,)))])

    def test_random_programs_match_the_oracle(self):
        # seeded sweep of 4-qubit programs: at most 5 events, at most 2 of
        # them two-qubit, so the oracle's 16 * 16 * 4 ** 3 leaves stay few
        rng = random.Random(2008)
        for _ in range(100):
            steps, events, pairs = [], 0, 0
            for _ in range(rng.randint(3, 12)):
                r = rng.random()
                a, b = rng.sample(range(4), 2)
                if r < 0.35 and events < 5:
                    steps.append(OneQubitEvent(a, rng.choice(DYADIC_ONE)))
                    events += 1
                elif r < 0.5 and events < 5 and pairs < 2:
                    steps.append(TwoQubitEvent(a, b, rng.choice(DYADIC_TWO)))
                    events, pairs = events + 1, pairs + 1
                elif r < 0.75:
                    steps.append(CNot(a, b))
                elif r < 0.9:
                    steps.append(Hadamard(a))
                else:
                    steps.append(Reset((a,)))
            blocks = rng.choice([((0, 1, 2),), ((0, 1), (2, 3)), ((1, 3),)])
            partition = rng.choice([((0,), (1,), (2,), (3,)), ((0, 1, 2, 3),), ((2, 0), (3, 1))])
            prog = toy(steps, num_qubits=4, blocks=blocks, partition=partition)
            assert_matches_oracle(prog, run_analytical(prog, TH0))


# rates whose third (one-qubit) or fifteenth (two-qubit) and complement are dyadic
DYADIC_ONE = (0.75, 0.375, 0.1875, 0.09375, 0.5625, 0.046875)
DYADIC_TWO = (0.9375, 0.46875, 0.234375)


def reference_pair_branch(fa, fb, kind, g, ma, mb):
    """:func:`engine._pair_branch` by brute force: each of the 16 label
    pairs pushed through ``errormap.cnot_kernel`` on a packed row, g as
    the uniform channel on the 15 non-identity label pairs, then the
    weights summed by masked label; the 15 weights after I."""
    one = [[1.0 - f, f / 3, f / 3, f / 3] for f in (fa, fb)]
    w = np.zeros(16)
    for a in range(4):
        for b in range(4):
            row = np.array([[a | b << 2]], dtype=np.uint64)
            if kind is not None:
                errormap.cnot_kernel(row, 0, 1)
            label = int(row[0, 0])
            w[4 * (label & 3) + (label >> 2)] += one[0][a] * one[1][b]
    if g is not None:
        # the index packs label a above label b, so XOR composes both
        w = (1.0 - g) * w + sum(g / 15 * w[np.arange(16) ^ d] for d in range(1, 16))
    masked = np.zeros(16)
    for i in range(16):
        masked[4 * (i >> 2 & ma) + (i & 3 & mb)] += w[i]
    return masked[1:]


class TestPairBranch:
    """A pair event is held as its recipe (fa, fb, kind, g), and
    :func:`engine._pair_branch` computes its masked branch once per plan
    for each distinct recipe and live masks."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.75), st.floats(0.0, 0.75), st.sampled_from([None, CNot]),
           st.none() | st.floats(0.0, 1.0), st.integers(0, 3), st.integers(0, 3))
    def test_matches_the_brute_force_channel(self, fa, fb, kind, g, ma, mb):
        want = reference_pair_branch(fa, fb, kind, g, ma, mb)
        f, weights = engine._pair_branch(fa, fb, kind, g, ma, mb)
        if not want.any():
            assert (f, weights) == (0.0, None)
            return
        assert np.frombuffer(weights) == pytest.approx(want, abs=1e-15)
        assert f == pytest.approx(min(1.0, want.sum()), abs=1e-15)

    def test_label_permuting_kernels_take_only_their_operands_positions(self):
        # _pair_branch runs a kind's kernel on the label rows as
        # function(rows, 0, 1), with no step to read arguments from
        steps = {Hadamard: Hadamard(3), CNot: CNot(3, 5)}
        assert {k for k, spec in STEP_KINDS.items() if spec.permutes_labels} == set(steps)
        for kind, step in steps.items():
            spec = STEP_KINDS[kind]
            n = len(spec.operands(step))
            for q in ((0, 1)[:n], (7, 2)[:n]):
                assert spec.args(step, q) is q

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_each_distinct_pair_event_is_computed_once_per_plan(self, monkeypatch, scale):
        made = []
        pair_branch = engine._pair_branch

        def spy(*key):
            made.append(key)
            return pair_branch(*key)

        monkeypatch.setattr(engine, "_pair_branch", spy)
        prog = build_basic_program(NoiseParams(global_scale=scale))
        p = engine.plan(prog)
        pairs = [op for ops in [p.ops] + [seg.body for seg in p.segments]
                 for op in ops if op[0] == engine.BRANCH and len(op[2]) == 2]
        assert (len(made), len(set(made)), len(pairs)) == (27, 27, 686)
        # a second plan makes its own calls: nothing is kept across calls
        assert engine.plan(prog) == p
        assert len(made) == 2 * 27


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

    @pytest.mark.parametrize("scale, th", [(1.0, (1e-6, 1e-12)), (100.0, (1e-4, 1e-6))],
                             ids=["1x", "100x"])
    def test_every_split_releases_a_single_all_i_entry(self, monkeypatch, scale, th):
        # so a split drops no correlation between the two sides
        released = []

        def record_split(qs, keep):
            kept, rest = split(qs, keep)
            released.append((kept.map.width, dict(kept.map.items())))
            return kept, rest

        monkeypatch.setattr(engine, "split", record_split)
        run_analytical(build_basic_program(NoiseParams(global_scale=scale)), Thresholds(*th))
        # 54 computed splits; those in replayed segments are not called
        assert len(released) == 54
        assert all(entries == {PauliString.identity(width): 1.0}
                   for width, entries in released)


def report_fields(rep):
    return (rep.survival_probability, rep.crash_probability, rep.discarded_mass,
            rep.peak_error_map_entries, rep.branch_calls, rep.steps_executed)


def preparations(f_second):
    """Data qubit 0 and two ancilla pairs, (1, 2) and (3, 4), each in a set
    of its own.  Each pair is reset whole, which starts a closed segment,
    prepared by an event, a CNOT and a two-qubit event, and entangled
    with the data qubit, which ends the segment.  The second pair's
    first event has probability ``f_second``, the first pair's 0.375."""
    def prepare(a, b, f):
        return [Reset((a, b)), OneQubitEvent(a, f), CNot(a, b), TwoQubitEvent(a, b, 0.46875)]

    steps = ([OneQubitEvent(0, 0.09375)] + prepare(1, 2, 0.375) + [CNot(0, 1)]
             + prepare(3, 4, f_second) + [CNot(0, 3)])
    return toy(steps, num_qubits=5, blocks=((0, 1, 3),), partition=((0,), (1, 2), (3, 4)))


class TestClosedSegments:
    """Closed segments are computed once per key and replayed after.
    Rates are dyadic as in :class:`TestEventFusion`."""

    @pytest.mark.parametrize("build, scale, th, replayed", [
        (build_basic_program, 1.0, Thresholds(1e-4, 1e-8), 22),
        (build_basic_program, 100.0, Thresholds(1e-2, 1e-4), 22),
        (build_basic_program, 100.0, Thresholds(1e-2, 1e-4, MergeMode.LOSSY), 22),
        (lambda p: build_scaling_program(2, p), 1.0, Thresholds(1e-4, 1e-8), 10),
    ], ids=["1x", "100x-preservation", "100x-lossy", "scaling-2"])
    def test_replay_is_bit_identical_to_computing_every_segment(
            self, monkeypatch, build, scale, th, replayed):
        prog = build(NoiseParams(global_scale=scale))
        cached = run_analytical(prog, th)
        every_segment_misses(monkeypatch)
        computed = run_analytical(prog, th)
        assert report_fields(cached) == report_fields(computed)
        assert (cached.segments_replayed, computed.segments_replayed) == (replayed, 0)

    def test_a_second_identical_preparation_is_replayed(self, monkeypatch):
        prog = preparations(0.375)
        missed = spy_event_kernel(monkeypatch)
        every_segment_misses(monkeypatch)
        computed = run_analytical(prog, TH0)
        monkeypatch.undo()
        calls = spy_event_kernel(monkeypatch)
        rep = run_analytical(prog, TH0)
        assert_matches_oracle(prog, rep)
        assert report_fields(rep) == report_fields(computed)
        # computed: the first preparation, the second, then the data pair
        # (0, 1) flushed at the second CNOT onto the data.  That flush is
        # on a set that is not closed, so it ends the second preparation's
        # segment, whose call runs first; replayed, that call is not made
        assert len(missed) == 3 and missed[1] == missed[0]
        assert calls == [missed[0], missed[2]]
        assert (rep.segments_replayed, rep.branch_calls) == (1, 3)

    def test_preparations_that_differ_in_one_f_both_compute(self, monkeypatch):
        prog = preparations(0.1875)
        calls = spy_event_kernel(monkeypatch)
        rep = run_analytical(prog, TH0)
        assert_matches_oracle(prog, rep)
        assert len({seg.key for seg in engine.plan(prog).segments}) == 2
        assert rep.segments_replayed == 0
        assert rep.branch_calls == len(calls) == 3

    @pytest.mark.parametrize("misses", [False, True], ids=["cached", "computed"])
    def test_an_operation_on_an_open_set_ends_the_segment(self, monkeypatch, misses):
        # the Hadamard on data qubit 0 falls inside the preparation of the
        # pair (1, 2): it ends the segment, which holds the first CNOT
        # alone, and the preparation's event and second CNOT follow it at
        # top level, on a set that is no longer closed
        prog = toy([OneQubitEvent(0, 0.375), Reset((1, 2)), CNot(1, 2), Hadamard(0),
                    OneQubitEvent(1, 0.1875), CNot(1, 2), TwoQubitEvent(1, 2, 0.46875),
                    CNot(0, 1)], num_qubits=3, blocks=((0, 1, 2),),
                   partition=((0,), (1, 2)))
        p = engine.plan(prog)
        assert [op[0] if op[0] == engine.SEGMENT else op[:2] for op in p.ops[:5]] == [
            (engine.RESET, 1), engine.SEGMENT, (engine.APPLY, 0), (engine.APPLY, 1),
            (engine.BRANCH, 1)]
        (seg,) = p.segments
        assert [op[:2] for op in seg.body] == [(engine.APPLY, 0)]
        if misses:
            every_segment_misses(monkeypatch)
        assert_matches_oracle(prog, run_analytical(prog, TH0))

    @pytest.mark.parametrize("build, segments", [
        (build_basic_program, 24),
        (lambda p: build_scaling_program(2, p), 12),
        (lambda p: build_scaling_program(4, p), 36),
        (lambda p: build_scaling_program(8, p), 84),
    ], ids=["basic", "scaling-2", "scaling-4", "scaling-8"])
    def test_every_ancilla_preparation_is_a_segment_of_one_of_two_kinds(
            self, build, segments):
        # one segment per preparation and verification of an ancilla
        # block; the bases z and x make the two kinds
        segs = engine.plan(build(NoiseParams())).segments
        assert len(segs) == segments
        assert len({seg.key for seg in segs}) == 2

    @pytest.mark.parametrize("misses", [False, True], ids=["cached", "computed"])
    def test_installed_outputs_share_no_array(self, monkeypatch, misses):
        # each segment's output maps, computed or replayed, are copies:
        # neither the cached maps nor views of another set's arrays
        installed = []
        segment = engine._Execution.segment

        def spy(self, seg, sets):
            segment(self, seg, sets)
            cached = [m for _, _, _, maps in self.cache.values() for m in maps]
            outputs = [sets[seg.sids[i]].map for i, _ in seg.outputs]
            installed.append(len(outputs))
            for m in outputs:
                assert not any(m is c for c in cached)
                others = [qs.map for qs in sets.values() if qs.map is not m] + cached
                assert not any(np.shares_memory(m._keys, o._keys)
                               or np.shares_memory(m._probs, o._probs) for o in others)

        monkeypatch.setattr(engine._Execution, "segment", spy)
        if misses:
            every_segment_misses(monkeypatch)
        rep = run_analytical(build_basic_program(NoiseParams()), Thresholds(1e-4, 1e-8))
        assert len(installed) == 24 and all(installed)
        assert rep.segments_replayed == (0 if misses else 22)

    def test_no_state_is_kept_across_calls(self, monkeypatch):
        calls = spy_event_kernel(monkeypatch)
        prog = build_basic_program(NoiseParams())
        first = run_analytical(prog, Thresholds(1e-4, 1e-8))
        made = len(calls)
        second = run_analytical(prog, Thresholds(1e-4, 1e-8))
        assert len(calls) == 2 * made < first.branch_calls + second.branch_calls
        assert report_fields(first) == report_fields(second)
