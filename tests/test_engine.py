import math

import pytest

from paulitree.engine import run_analytical
from paulitree.errormap import MergeMode, Thresholds
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    CNot,
    Hadamard,
    Measure,
    MergeSets,
    OneQubitEvent,
    Program,
    ProgramError,
    SplitOff,
    TwoQubitEvent,
    build_basic_program,
    elaborate,
)

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
    """Single-set already-elaborated program for direct engine checks."""
    partition = partition or (tuple(range(num_qubits)),)
    return Program(
        name="toy",
        num_qubits=num_qubits,
        initial_partition=partition,
        steps=tuple(steps),
        crash_blocks=tuple(tuple(b) for b in blocks),
        num_logical=0,
        num_cycles=0,
        elaborated=True,
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

    def test_merge_and_split_bookkeeping(self):
        prog = toy(
            [
                OneQubitEvent(0, 0.2),
                MergeSets(0, 1),
                CNot(0, 1),
                SplitOff((1,)),
                Hadamard(1),
                MergeSets(0, 1),  # the crash block must end in one set
            ],
            partition=((0,), (1,)),
        )
        rep = run_analytical(prog, TH0)
        total = rep.survival_probability + rep.crash_probability
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_injected_fault(self):
        prog = toy([CNot(0, 1)])
        rep = run_analytical(prog, TH0, initial_errors={0: Pauli.X})
        assert rep.crash_probability == 1.0  # X spreads to both qubits
        rep = run_analytical(prog, TH0, initial_errors={0: Pauli.Z})
        assert rep.survival_probability == 1.0  # Z stays on the control


class TestRunValidation:
    def test_requires_elaboration(self):
        prog = build_basic_program(QUIET)
        with pytest.raises(ProgramError, match="elaborated"):
            run_analytical(prog, TH0)

    @pytest.mark.parametrize("errors, message", [
        ({0: 5}, "not a valid Pauli"),
        ({2: Pauli.X}, "outside"),
        ({-1: Pauli.X}, "outside"),
    ])
    def test_initial_errors_are_checked(self, errors, message):
        with pytest.raises(ValueError, match=message):
            run_analytical(toy([CNot(0, 1)]), TH0, initial_errors=errors)

    def test_unelaborated_cross_set_step_rejected(self):
        prog = toy([CNot(0, 1)], partition=((0,), (1,)))
        with pytest.raises(ProgramError, match="span"):
            run_analytical(prog, TH0)

    @pytest.mark.parametrize("step, message", [
        (CNot(0, 0), "repeats a qubit"),
        (TwoQubitEvent(1, 1, 0.3), "repeats a qubit"),
        (OneQubitEvent(2, 0.3), "undeclared"),
        (Hadamard(-1), "undeclared"),
        (MergeSets(0, 9), "undeclared"),
        (MergeSets(1, 1), "repeats a qubit"),
        (Measure((0, 9)), "undeclared"),
        (Measure((1, 1)), "repeats a qubit"),
    ])
    def test_repeated_or_undeclared_operands_rejected(self, step, message):
        # toy programs are built elaborated, so elaborate's checks never run
        with pytest.raises(ProgramError, match=message):
            run_analytical(toy([step]), TH0)

    def test_crash_block_must_end_in_one_set(self):
        events = (OneQubitEvent(0, 0.6), OneQubitEvent(1, 0.6))
        with pytest.raises(ProgramError, match="span"):
            run_analytical(toy(events, partition=((0,), (1,))), TH0)
        # elaborate joins the block's sets: both qubits fail with 0.6 each
        prog = elaborate(Program("t", 2, ((0,), (1,)), events, ((0, 1),), 0, 0))
        assert run_analytical(prog, TH0).crash_probability == pytest.approx(0.36, abs=1e-15)


class TestBasicProgram:
    def test_zero_noise_survives_exactly(self):
        prog = elaborate(build_basic_program(QUIET))
        rep = run_analytical(prog, TH0)
        assert rep.survival_probability == 1.0
        assert rep.crash_probability == 0.0
        assert rep.discarded_mass == 0.0
        assert rep.steps_executed == len(prog.steps)

    def test_deterministic_reports(self):
        prog = elaborate(build_basic_program(NoiseParams()))
        th = Thresholds(1e-5, 1e-10, MergeMode.PRESERVATION)
        a = run_analytical(prog, th)
        b = run_analytical(prog, th)
        assert a.survival_probability == b.survival_probability
        assert a.crash_probability == b.crash_probability
        assert a.peak_error_map_entries == b.peak_error_map_entries

    def test_mass_accounting_both_merge_modes(self):
        prog = elaborate(build_basic_program(NoiseParams()))
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
        prog = elaborate(build_basic_program(NoiseParams()))
        coarse = run_analytical(prog, Thresholds(1e-4, 1e-8))
        fine = run_analytical(prog, Thresholds(1e-5, 1e-8))
        assert coarse.peak_error_map_entries <= fine.peak_error_map_entries
        # harder pruning can only miss crash mass, never invent it
        assert 0.0 < coarse.crash_probability <= fine.crash_probability

