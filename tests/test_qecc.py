import math

import numpy as np
import pytest
from hypothesis import given, settings

from paulitree.errormap import ErrorMap, _slot, cnot_kernel
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli, PauliString
from paulitree.program import (
    CNot,
    CosetReduce,
    OneQubitEvent,
    Schedule,
    SyndromeMeasure,
    VerifyReadout,
    extract_syndrome,
    prepare_ancilla,
    verify_ancilla,
)
from paulitree.qecc import (
    CHECK_MATRIX,
    ENCODER_CNOT_CYCLES,
    ENCODER_HADAMARDS,
    correct_kernel,
    correctable,
    coset_reduce_kernel,
    count_nonfailing_states,
    decode_table,
    decode_table_text,
    surviving_mass,
    syndrome_kernel,
    verify_kernel,
)
from tests.test_errormap import assert_kernel_matches, kernel_case


def emap(entries):
    return ErrorMap.from_dict(entries)


def as_strs(m):
    return {str(s): p for s, p in m.items()}


class TestCodeTables:
    def test_check_matrix_columns_count_in_binary(self):
        for j in range(7):
            value = 4 * CHECK_MATRIX[0, j] + 2 * CHECK_MATRIX[1, j] + CHECK_MATRIX[2, j]
            assert value == j + 1

    def test_decode_table(self):
        table = decode_table()
        assert table[0] is None
        for v in range(1, 8):
            assert table[v] == v - 1

    def test_decode_table_text(self):
        text = decode_table_text()
        assert "000 -> none" in text
        assert "101 -> qubit 4" in text
        assert len(text.splitlines()) == 8

    def test_nonfailing_state_counts(self):
        assert count_nonfailing_states("steane713") == 22
        assert count_nonfailing_states("golay2135") == 1954
        assert count_nonfailing_states(7, 1) == 22
        assert count_nonfailing_states(21, 2) == 1954
        # degenerate and exhaustive ends of the formula
        assert count_nonfailing_states(5, 0) == 1
        assert count_nonfailing_states(3, 3) == 4**3
        with pytest.raises(ValueError):
            count_nonfailing_states("surface17")
        with pytest.raises(ValueError):
            count_nonfailing_states(7)

    def test_encoder_generators_spread_to_stabilizer_supports(self):
        # an X on a generator qubit must propagate to the X stabilizer
        # whose support is the matching check-matrix row
        expected_rows = {3: 0, 1: 1, 0: 2}
        for gen in ENCODER_HADAMARDS:
            # one packed 7-qubit key: 2 bits per qubit in a single word
            keys = np.array([[int(Pauli.X) << (2 * gen)]], dtype=np.uint64)
            for cycle in ENCODER_CNOT_CYCLES:
                for c, t in cycle:
                    cnot_kernel(keys, c, t)
            s = PauliString(int(keys[0, 0]), 7)
            support = tuple(q for q in range(7) if s.label(q) != Pauli.I)
            row = CHECK_MATRIX[expected_rows[gen]]
            assert support == tuple(q for q in range(7) if row[q])
            assert all(s.label(q) == Pauli.X for q in support)


class TestCircuitEmission:
    def test_prepare_ancilla_cycle_count(self):
        sched = Schedule(7, NoiseParams())
        prepare_ancilla(sched, tuple(range(7)), "z")
        assert sched.num_cycles == 5  # reset, Hadamards, 3 CNOT cycles
        sched_x = Schedule(7, NoiseParams())
        prepare_ancilla(sched_x, tuple(range(7)), "x")
        assert sched_x.num_cycles == 6  # + transversal Hadamard
        with pytest.raises(ValueError):
            prepare_ancilla(Schedule(7, NoiseParams()), tuple(range(7)), "y")

    def test_verify_ancilla_reads_three_checks(self):
        for basis in ("z", "x"):
            # a measurement-error rate no other event of the check has
            sched = Schedule(8, NoiseParams(measurement_error=3e-4))
            verify_ancilla(sched, tuple(range(7)), 7, basis)
            readouts = [s for s in sched.steps if isinstance(s, VerifyReadout)]
            assert len(readouts) == 3
            assert all(r.verifier == 7 for r in readouts)
            # one verifier measurement per check row
            assert sched.steps.count(OneQubitEvent(7, 3e-4)) == 3

    def test_extract_syndrome_direction_and_coset_task(self):
        data = tuple(range(7))
        block = tuple(range(7, 14))
        bit = Schedule(14, NoiseParams())
        extract_syndrome(bit, data, block, "bit")
        cnots = [s for s in bit.steps if isinstance(s, CNot)]
        assert all(s.control in data and s.target in block for s in cnots)
        assert bit.steps[0] == CosetReduce(block, "z")
        assert any(s == SyndromeMeasure(block) for s in bit.steps)

        ph = Schedule(14, NoiseParams())
        extract_syndrome(ph, data, block, "phase")
        cnots = [s for s in ph.steps if isinstance(s, CNot)]
        assert all(s.control in block and s.target in data for s in cnots)
        assert ph.steps[0] == CosetReduce(block, "x")

        with pytest.raises(ValueError):
            extract_syndrome(Schedule(14, NoiseParams()), data, block, "both")


class TestVerifyKernel:
    def test_detection_discards_the_block(self):
        m = emap({"IIIIIIIX": 0.1, "XXIIIIII": 0.2, "IIIIIIII": 0.7})
        m.apply((verify_kernel, list(range(7)), 7))
        got = as_strs(m)
        # detected entry replaced by a clean block; undetected one kept
        assert got["IIIIIIII"] == pytest.approx(0.8)
        assert got["XXIIIIII"] == pytest.approx(0.2)

    def test_verifier_z_is_not_a_detection(self):
        m = emap({"XIIIIIIZ": 1.0})
        m.apply((verify_kernel, list(range(7)), 7))
        assert as_strs(m) == {"XIIIIIII": pytest.approx(1.0)}


class TestSyndromeKernel:
    def test_single_error_positions(self):
        for pos in range(7):
            key = ["I"] * 7
            key[pos] = "X"
            m = emap({"".join(key): 1.0})
            m.apply((syndrome_kernel, list(range(7))))
            (out,) = as_strs(m)
            value = 4 * (out[0] == "X") + 2 * (out[1] == "X") + (out[2] == "X")
            assert value == pos + 1

    def test_linearity_over_composition(self):
        def syndrome_of(key):
            m = emap({key: 1.0})
            m.apply((syndrome_kernel, list(range(7))))
            (out,) = as_strs(m)
            return tuple(c == "X" for c in out[:3])

        s14 = syndrome_of("IXIIXII")
        s1 = syndrome_of("IXIIIII")
        s4 = syndrome_of("IIIIXII")
        assert s14 == tuple(a ^ b for a, b in zip(s1, s4))

    def test_z_errors_do_not_register(self):
        m = emap({"ZZZIIII": 1.0})
        m.apply((syndrome_kernel, list(range(7))))
        assert as_strs(m) == {"IIIIIII": pytest.approx(1.0)}

    @pytest.mark.parametrize("seed", range(6))
    def test_clears_block_positions_3_to_6_in_every_row(self, seed):
        # the premise of releasing block[3:] right after the readout
        rng = np.random.default_rng(seed)
        nwords = int(rng.integers(2, 4))
        keys = rng.integers(0, 2 ** 64, size=(64, nwords), dtype=np.uint64)
        block = [int(q) for q in rng.choice(32 * nwords, 7, replace=False)]
        before = keys.copy()
        syndrome_kernel(keys, block)
        outside = clear_mask(nwords, block)
        assert np.array_equal(keys & outside, before & outside)
        for q in block[3:]:
            w, s = _slot(q)
            assert not ((keys[:, w] >> np.uint64(s)) & np.uint64(3)).any()


class TestCosetReduceKernel:
    def test_stabilizer_and_logical_patterns_vanish(self):
        # Z on a check row's support, and the all-Z logical, act as the
        # identity on the encoded zero ancilla
        for key in ("IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "ZZZZZZZ"):
            m = emap({key: 1.0})
            m.apply((coset_reduce_kernel, list(range(7)), "z"))
            assert as_strs(m) == {"IIIIIII": pytest.approx(1.0)}

    def test_single_error_is_fixed_point(self):
        m = emap({"IIIIZII": 1.0})
        m.apply((coset_reduce_kernel, list(range(7)), "z"))
        assert as_strs(m) == {"IIIIZII": pytest.approx(1.0)}

    def test_coset_shift_recovers_representative(self):
        # stabilizer IIIZZZZ composed with Z at position 1
        m = emap({"IZIZZZZ": 1.0})
        m.apply((coset_reduce_kernel, list(range(7)), "z"))
        assert as_strs(m) == {"IZIIIII": pytest.approx(1.0)}

    def test_other_component_untouched(self):
        # z reduction: the Z part of YZ at {0,1} decodes to Z at 2,
        # the X part at 0 stays where it is
        m = emap({"YZIIIII": 1.0})
        m.apply((coset_reduce_kernel, list(range(7)), "z"))
        assert as_strs(m) == {"XIZIIII": pytest.approx(1.0)}

    def test_x_basis_mirrors_z_basis(self):
        m = emap({"IIIXXXX": 0.5, "XIIIIII": 0.5})
        m.apply((coset_reduce_kernel, list(range(7)), "x"))
        got = as_strs(m)
        assert got["IIIIIII"] == pytest.approx(0.5)
        assert got["XIIIIII"] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            emap({"I": 1.0}).apply((coset_reduce_kernel, [0], "bit"))


def syndrome_block(value):
    """7-character ancilla block holding a measured 3-bit syndrome."""
    chars = ["I"] * 7
    for bit, pos in ((4, 0), (2, 1), (1, 2)):
        if value & bit:
            chars[pos] = "X"
    return "".join(chars)


def correction_state(data, votes):
    return data + "".join(syndrome_block(v) for v in votes)


class TestCorrectKernel:
    BLOCKS = [list(range(7 + 7 * k, 14 + 7 * k)) for k in range(3)]

    def run(self, data, votes, phase="bit"):
        m = emap({correction_state(data, votes): 1.0})
        m.apply((correct_kernel, list(range(7)), self.BLOCKS, phase))
        (out,) = as_strs(m)
        assert out[7:] == "I" * 21  # ancillas cleared for reuse
        return out[:7]

    def test_unanimous_vote_corrects(self):
        assert self.run("IIXIIII", (3, 3, 3)) == "IIIIIII"

    def test_majority_overrules_one_bad_syndrome(self):
        assert self.run("IIXIIII", (3, 5, 3)) == "IIIIIII"

    def test_three_way_disagreement_does_nothing(self):
        assert self.run("IIXIIII", (3, 5, 6)) == "IIXIIII"

    def test_phase_phase_applies_z(self):
        # a Z at position 6 (syndrome 7) is cancelled; on a Y it leaves X
        assert self.run("IIIIIIZ", (7, 7, 7), phase="phase") == "IIIIIII"
        assert self.run("IIIIIIY", (7, 7, 7), phase="phase") == "IIIIIIX"
        with pytest.raises(ValueError):
            self.run("IIIIIII", (0, 0, 0), phase="flip")

    def test_wrong_vote_makes_things_worse(self):
        # a corrupted majority adds an error instead of removing one
        assert self.run("IIIIIII", (4, 4, 2)) == "IIIXIII"


class TestObservables:
    def test_surviving_mass_weight_rule(self):
        rows = {
            "I" * 14: 0.5,
            "XIIIIII" + "IIIIIIZ": 0.3,  # one error in each block: fine
            "XXIIIII" + "I" * 7: 0.1,  # two in block 0: failed
            "XZIIIII" + "I" * 7: 0.05,  # two of different kinds: failed
            "I" * 7 + "YIIIIIZ": 0.05,  # two in block 1: failed
        }
        blocks = [list(range(7)), list(range(7, 14))]
        assert surviving_mass(emap(rows), blocks) == pytest.approx(0.8)
        # the per-row mask behind it, as Monte Carlo uses it
        keys = np.array([[PauliString.from_str(r).bits] for r in rows], dtype=np.uint64)
        assert correctable(keys, blocks).tolist() == [True, True, False, False, False]
        assert correctable(keys, []).all()



# -- the readout kernels against the per-position versions they replaced
#
# The word-parallel kernels count a check's parity by popcount and decode
# through cached tables; the references below read and write one key
# position at a time.  Each comparison is bit for bit, on the widths,
# positions and layouts of ``kernel_case`` (see tests/test_errormap.py).


def clear_mask(nwords, positions):
    """Word mask that is 0 at both label bits of every listed position."""
    mask = np.full(nwords, ~np.uint64(0), dtype=np.uint64)
    for q in positions:
        w, s = _slot(q)
        mask[w] &= ~(np.uint64(3) << np.uint64(s))
    return mask


def reference_bits(keys, q, shift=0):
    w, s = _slot(q)
    return (keys[:, w] >> np.uint64(s + shift)) & np.uint64(1)


def reference_checks(keys, block, shift=0):
    bits = [reference_bits(keys, q, shift) for q in block]
    return [
        np.bitwise_xor.reduce([bits[j] for j in range(7) if CHECK_MATRIX[r, j]])
        for r in range(3)
    ]


def reference_verify(keys, block, verifier):
    detected = reference_bits(keys, verifier) != 0
    if detected.any():
        keys[detected] &= clear_mask(keys.shape[1], block)
    keys &= clear_mask(keys.shape[1], [verifier])


def reference_syndrome(keys, block):
    syndrome = reference_checks(keys, block)
    keys &= clear_mask(keys.shape[1], block)
    for r in range(3):
        w, s = _slot(block[r])
        keys[:, w] |= syndrome[r] << np.uint64(s)


def reference_coset(keys, block, basis):
    shift = {"z": 1, "x": 0}[basis]
    syndrome = reference_checks(keys, block, shift)
    value = (4 * syndrome[0] + 2 * syndrome[1] + syndrome[2]).astype(np.int64)
    for j, q in enumerate(block):
        w, s = _slot(q)
        keys[:, w] &= ~(np.uint64(1) << np.uint64(s + shift))
        hit = value == j + 1
        if hit.any():
            keys[hit, w] |= np.uint64(1) << np.uint64(s + shift)


def reference_majority(keys, blocks):
    v0, v1, v2 = [
        (4 * reference_bits(keys, b[0]) + 2 * reference_bits(keys, b[1])
         + reference_bits(keys, b[2])).astype(np.int64)
        for b in blocks
    ]
    return np.where((v0 == v1) | (v0 == v2), v0, np.where(v1 == v2, v1, 0))


def reference_correct(keys, data, ancilla_blocks, phase):
    label = {"bit": int(Pauli.X), "phase": int(Pauli.Z)}[phase]
    maj = reference_majority(keys, ancilla_blocks)
    for pos in range(7):
        hit = maj == pos + 1
        if hit.any():
            w, s = _slot(data[pos])
            keys[hit, w] ^= np.uint64(label) << np.uint64(s)
    keys &= clear_mask(keys.shape[1], [q for b in ancilla_blocks for q in b])


def reference_correctable(keys, blocks):
    ok = np.ones(keys.shape[0], dtype=bool)
    for block in blocks:
        weight = np.zeros(keys.shape[0], dtype=np.int64)
        for q in block:
            w, s = _slot(q)
            weight += ((keys[:, w] >> np.uint64(s)) & np.uint64(3)) != 0
        ok &= weight <= 1
    return ok


@settings(deadline=None, max_examples=150)
@given(case=kernel_case(8))
def test_verify_kernel_matches_the_per_position_one(case):
    positions, keys = case
    assert_kernel_matches(verify_kernel, reference_verify, keys, positions[:7], positions[7])


@settings(deadline=None, max_examples=150)
@given(case=kernel_case(7))
def test_syndrome_kernel_matches_the_per_position_one(case):
    block, keys = case
    assert_kernel_matches(syndrome_kernel, reference_syndrome, keys, block)


@pytest.mark.parametrize("basis", ["z", "x"])
@settings(deadline=None, max_examples=150)
@given(case=kernel_case(7))
def test_coset_reduce_kernel_matches_the_per_position_one(basis, case):
    block, keys = case
    assert_kernel_matches(coset_reduce_kernel, reference_coset, keys, block, basis)


@pytest.mark.parametrize("phase", ["bit", "phase"])
@settings(deadline=None, max_examples=150)
@given(case=kernel_case(16))
def test_correct_kernel_matches_the_per_position_one(phase, case):
    positions, keys = case
    # the data block, then three ancilla blocks of three syndrome slots
    blocks = tuple(tuple(positions[i:i + 3]) for i in (7, 10, 13))
    assert_kernel_matches(correct_kernel, reference_correct, keys, positions[:7], blocks,
                          phase)


@settings(deadline=None, max_examples=150)
@given(case=kernel_case(14))
def test_correctable_matches_the_per_position_one(case):
    positions, keys = case
    blocks = [positions[:7], positions[7:]]
    assert_kernel_matches(correctable, reference_correctable, keys, blocks)
