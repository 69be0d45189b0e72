import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitree.errormap import (
    ErrorMap,
    MergeMode,
    QubitSet,
    Thresholds,
    apply_cnot,
    apply_hadamard,
    apply_one_qubit_event,
    apply_two_qubit_event,
    cnot_kernel,
    hadamard_kernel,
    merge,
    split,
    sum_matching,
    total_probability,
)
from paulitree.pauli import Pauli, PauliString

TH0 = Thresholds()


def as_strs(qs):
    return {str(s): p for s, p in qs.map.items()}


def qset(entries, members=None):
    m = ErrorMap.from_dict(entries)
    members = tuple(range(m.width)) if members is None else tuple(members)
    return QubitSet(members, m)


def assert_map_close(qs, expected, tol=1e-12):
    got = as_strs(qs)
    assert set(got) == set(expected)
    for k, v in expected.items():
        assert got[k] == pytest.approx(v, abs=tol)


class TestThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(event_branch=-0.1)
        with pytest.raises(ValueError):
            Thresholds(merge=1.5)
        with pytest.raises(ValueError):
            Thresholds(merge_mode="preservation")


class TestOneQubitEvent:
    def test_expands_error_free_state(self):
        # event at the rightmost bit of a 3-qubit set, f = 0.3
        qs = qset({"III": 1.0})
        out = apply_one_qubit_event(qs, 2, 0.3, Thresholds(event_branch=0.1))
        assert_map_close(out, {"III": 0.7, "IIX": 0.1, "IIY": 0.1, "IIZ": 0.1})

    def test_zero_probability_event(self):
        qs = qset({"III": 1.0})
        out = apply_one_qubit_event(qs, 1, 0.0, TH0)
        assert_map_close(out, {"III": 1.0})

    def test_below_threshold_passes_through_and_collides(self):
        qs = qset({"III": 0.9, "IIX": 0.05})
        out = apply_one_qubit_event(qs, 2, 0.3, Thresholds(event_branch=0.1))
        assert_map_close(
            out, {"III": 0.63, "IIX": 0.09 + 0.05, "IIY": 0.09, "IIZ": 0.09}
        )

    def test_conserves_mass_for_any_threshold(self):
        for th in (0.0, 1e-3, 0.5, 1.0):
            qs = qset({"II": 0.6, "XI": 0.3, "YZ": 0.1})
            out = apply_one_qubit_event(qs, 0, 0.25, Thresholds(event_branch=th))
            assert total_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        qs = qset({"II": 1.0})
        with pytest.raises(IndexError):
            apply_one_qubit_event(qs, 2, 0.1, TH0)
        with pytest.raises(ValueError):
            apply_one_qubit_event(qs, 0, 1.5, TH0)

    def test_input_not_mutated(self):
        qs = qset({"II": 1.0})
        apply_one_qubit_event(qs, 0, 0.5, TH0)
        assert_map_close(qs, {"II": 1.0})


class TestTwoQubitEvent:
    def test_fifteen_equal_branches(self):
        qs = qset({"II": 1.0})
        out = apply_two_qubit_event(qs, 0, 1, 0.15, TH0)
        expected = {"II": 0.85}
        for a in "IXYZ":
            for b in "IXYZ":
                if a + b != "II":
                    expected[a + b] = 0.01
        assert_map_close(out, expected)

    def test_zero_event(self):
        out = apply_two_qubit_event(qset({"II": 1.0}), 0, 1, 0.0, TH0)
        assert_map_close(out, {"II": 1.0})

    def test_composes_onto_existing_error(self):
        out = apply_two_qubit_event(qset({"XI": 1.0}), 0, 1, 0.15, TH0)
        assert as_strs(out)["XX"] == pytest.approx(0.01)
        assert total_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_same_operand_rejected(self):
        with pytest.raises(ValueError):
            apply_two_qubit_event(qset({"II": 1.0}), 1, 1, 0.1, TH0)


# hand-enumerated two-qubit CNOT conjugation table (control = qubit 0)
CNOT_TABLE = {
    "II": "II", "IX": "IX", "IZ": "ZZ", "IY": "ZY",
    "XI": "XX", "XX": "XI", "XZ": "YY", "XY": "YZ",
    "ZI": "ZI", "ZX": "ZX", "ZZ": "IZ", "ZY": "IY",
    "YI": "YX", "YX": "YI", "YZ": "XY", "YY": "XZ",
}

# conjugation by a Hadamard; HYH = -Y and the phase is discarded
HADAMARD_TABLE = {"I": "I", "X": "Z", "Z": "X", "Y": "Y"}


def packed(strings):
    """One packed key row per string (at most 32 qubits)."""
    return np.array([[PauliString.from_str(t).bits] for t in strings], dtype=np.uint64)


def unpacked(keys, n):
    return [str(PauliString(int(row[0]), n)) for row in keys]


class TestGates:
    def test_hadamard_swaps_x_and_z(self):
        out = apply_hadamard(qset({"IXI": 0.5, "IZI": 0.3, "IYI": 0.2}), 1)
        assert_map_close(out, {"IZI": 0.5, "IXI": 0.3, "IYI": 0.2})
        # the kernel on each label at each of three positions, the others
        # at I: I stays I and an error stays an error, so weight is kept
        for q in range(3):
            src = ["I" * q + lab + "I" * (2 - q) for lab in HADAMARD_TABLE]
            keys = packed(src)
            hadamard_kernel(keys, q)
            assert unpacked(keys, 3) == [
                "I" * q + HADAMARD_TABLE[lab] + "I" * (2 - q) for lab in HADAMARD_TABLE
            ]
            hadamard_kernel(keys, q)
            assert unpacked(keys, 3) == src
        with pytest.raises(IndexError):
            apply_hadamard(qset({"III": 1.0}), 3)

    def test_cnot_propagates(self):
        out = apply_cnot(qset({"XII": 0.5, "IIZ": 0.5}), 0, 2)
        assert_map_close(out, {"XIX": 0.5, "ZIZ": 0.5})
        with pytest.raises(ValueError):
            apply_cnot(qset({"II": 1.0}), 1, 1)
        with pytest.raises(IndexError):
            apply_cnot(qset({"II": 1.0}), 0, 5)

    def test_cnot_collisionless_bijection(self):
        entries = {"II": 0.4, "XI": 0.3, "IZ": 0.2, "YY": 0.1}
        out = apply_cnot(qset(entries), 0, 1)
        assert len(as_strs(out)) == 4
        assert total_probability(out) == pytest.approx(1.0, abs=1e-15)
        # the full conjugation table, on the kernel and then on a map whose
        # distinct probabilities trace every entry; twice is the identity
        keys = packed(CNOT_TABLE)
        cnot_kernel(keys, 0, 1)
        assert unpacked(keys, 2) == list(CNOT_TABLE.values())
        cnot_kernel(keys, 0, 1)
        assert unpacked(keys, 2) == list(CNOT_TABLE)
        src = {k: (i + 1) / 136.0 for i, k in enumerate(CNOT_TABLE)}
        out = apply_cnot(qset(src), 0, 1)
        assert_map_close(out, {CNOT_TABLE[k]: p for k, p in src.items()}, tol=0.0)


class TestMerge:
    def test_exact_cross_product(self):
        a = qset({"I": 0.9, "X": 0.1}, members=[0])
        b = qset({"I": 0.8, "Z": 0.2}, members=[1])
        out = merge(a, b, TH0)
        assert out.members == (0, 1)
        assert_map_close(out, {"II": 0.72, "IZ": 0.18, "XI": 0.08, "XZ": 0.02})

    def test_error_free_merge(self):
        out = merge(QubitSet.error_free([0, 1]), QubitSet.error_free([2]), TH0)
        assert_map_close(out, {"III": 1.0})

    def test_preservation_zeroes_less_probable_side(self):
        # the merged state IXXYI at 0.005 falls below the 0.01 threshold;
        # preservation keeps its mass as IIIYI, lossy discards it
        a = qset({"III": 0.95, "IXX": 0.05}, members=[0, 1, 2])
        b = qset({"II": 0.9, "YI": 0.1}, members=[3, 4])
        th_p = Thresholds(merge=0.01, merge_mode=MergeMode.PRESERVATION)
        out = merge(a, b, th_p)
        got = as_strs(out)
        # 0.95*0.1 lands on IIIYI above threshold; the collapsed 0.005 joins it
        assert got["IIIYI"] == pytest.approx(0.095 + 0.005)
        assert "IXXYI" not in got
        assert total_probability(out) == pytest.approx(1.0, abs=1e-12)

        th_l = Thresholds(merge=0.01, merge_mode=MergeMode.LOSSY)
        out_l = merge(a, b, th_l)
        got_l = as_strs(out_l)
        assert "IXXYI" not in got_l
        assert got_l["IIIYI"] == pytest.approx(0.095)
        assert total_probability(out_l) == pytest.approx(1.0 - 0.005, abs=1e-12)

    def test_tie_zeroes_state_from_b(self):
        a = qset({"I": 0.9, "X": 0.1}, members=[0])
        b = qset({"I": 0.9, "Z": 0.1}, members=[1])
        th = Thresholds(merge=0.02, merge_mode=MergeMode.PRESERVATION)
        out = merge(a, b, th)
        got = as_strs(out)
        # the 0.1 x 0.1 pair ties: b's Z is zeroed, a's X is kept
        assert got["XI"] == pytest.approx(0.09 + 0.01)
        assert got["IZ"] == pytest.approx(0.09)
        assert "XZ" not in got
        assert total_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            merge(QubitSet.error_free([0, 1]), QubitSet.error_free([1, 2]), TH0)


class TestSplit:
    def test_inverse_of_independent_merge(self):
        left, right = split(
            qset({"II": 0.72, "IZ": 0.18, "XI": 0.08, "XZ": 0.02}, members=[5, 9]),
            keep=[0],
        )
        assert left.members == (5,)
        assert right.members == (9,)
        assert_map_close(left, {"I": 0.9, "X": 0.1})
        assert_map_close(right, {"I": 0.8, "Z": 0.2})

    def test_trivial_split(self):
        left, right = split(qset({"III": 1.0}), keep=[0, 1])
        assert_map_close(left, {"II": 1.0})
        assert_map_close(right, {"I": 1.0})

    def test_correlation_lost_by_design(self):
        left, right = split(qset({"II": 0.5, "XX": 0.5}), keep=[0])
        assert_map_close(left, {"I": 0.5, "X": 0.5})
        assert_map_close(right, {"I": 0.5, "X": 0.5})

    def test_marginal_totals(self):
        qs = qset({"II": 0.4, "XZ": 0.25, "YI": 0.2, "IZ": 0.15})
        left, right = split(qs, keep=[1])
        assert total_probability(left) == pytest.approx(1.0, abs=1e-12)
        assert total_probability(right) == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        qs = qset({"II": 1.0})
        with pytest.raises(ValueError):
            split(qs, keep=[])
        with pytest.raises(ValueError):
            split(qs, keep=[0, 1])


class TestSummaries:
    def test_total_probability(self):
        assert total_probability(qset({"III": 1.0})) == pytest.approx(1.0)

    def test_sum_matching(self):
        qs = qset({"III": 0.7, "IIX": 0.1, "XXI": 0.2})

        def weight(s):
            return sum(lab != Pauli.I for lab in s.labels())

        assert sum_matching(qs, lambda s: weight(s) <= 1) == pytest.approx(0.8)
        assert sum_matching(qs, lambda s: True) == pytest.approx(1.0)
        assert sum_matching(qs, lambda s: weight(s) == 0) == pytest.approx(0.7)


class TestDump:
    def test_format_and_ordering(self):
        m = ErrorMap.from_dict({"XI": 0.25, "II": 0.5, "IZ": 0.25})
        lines = m.dump().splitlines()
        assert lines[0].split("\t")[0] == "II"
        assert lines[1].split("\t")[0] == "IZ"
        assert lines[2].split("\t")[0] == "XI"
        assert float(lines[0].split("\t")[1]) == 0.5
        # 17 significant digits
        assert len(lines[0].split("\t")[1].split("e")[0].replace("-", "").replace(".", "")) == 17


class TestWideSets:
    def test_multiword_keys(self):
        # 40 qubits spans two 64-bit words
        n = 40
        s = "I" * 35 + "X" + "I" * 4
        qs = qset({("I" * n): 0.9, s: 0.1})
        out = apply_one_qubit_event(qs, 38, 0.5, TH0)
        assert total_probability(out) == pytest.approx(1.0, abs=1e-12)
        out2 = apply_cnot(out, 35, 38)
        assert total_probability(out2) == pytest.approx(1.0, abs=1e-12)

    def test_multiword_merge_boundary_shift(self):
        # 20 + 20 qubits: b's bits straddle the word boundary after the shift
        a = qset({"I" * 20: 0.7, "X" + "I" * 19: 0.3}, members=range(20))
        b = qset({"I" * 20: 0.6, "I" * 19 + "Z": 0.4}, members=range(20, 40))
        out = merge(a, b, TH0)
        got = as_strs(out)
        assert got["I" * 40] == pytest.approx(0.42)
        assert got["X" + "I" * 38 + "Z"] == pytest.approx(0.12)
        left, right = split(out, keep=range(20))
        assert_map_close(left, {"I" * 20: 0.7, "X" + "I" * 19: 0.3})
        assert_map_close(right, {"I" * 20: 0.6, "I" * 19 + "Z": 0.4})


@st.composite
def random_maps(draw, max_qubits=4, max_entries=6):
    n = draw(st.integers(1, max_qubits))
    count = draw(st.integers(1, min(max_entries, 4 ** n)))
    keys = draw(
        st.lists(
            st.integers(0, 4 ** n - 1), min_size=count, max_size=count, unique=True
        )
    )
    raw = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=count, max_size=count
        )
    )
    total = sum(raw)
    return ErrorMap.from_dict(
        {PauliString(k, n): p / total for k, p in zip(keys, raw)}
    )


@settings(deadline=None, max_examples=60)
@given(random_maps(), st.floats(0.0, 1.0), st.floats(0.0, 0.01), st.data())
def test_events_conserve_mass_property(m, f, th, data):
    qs = QubitSet(tuple(range(m.width)), m)
    q = data.draw(st.integers(0, m.width - 1))
    before = total_probability(qs)
    out = apply_one_qubit_event(qs, q, f, Thresholds(event_branch=th))
    assert total_probability(out) == pytest.approx(before, abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(random_maps(max_qubits=3), random_maps(max_qubits=3))
def test_merge_then_split_recovers_independent_marginals(ma, mb):
    a = QubitSet(tuple(range(ma.width)), ma)
    b = QubitSet(tuple(range(100, 100 + mb.width)), mb)
    merged = merge(a, b, TH0)
    left, right = split(merged, keep=range(ma.width))
    got_a = {str(s): p for s, p in left.map.items()}
    want_a = {str(s): p * mb.total() for s, p in ma.items()}
    assert set(got_a) == set(want_a)
    for k in want_a:
        assert got_a[k] == pytest.approx(want_a[k], rel=1e-9)


@settings(deadline=None, max_examples=40)
@given(random_maps(max_qubits=3), random_maps(max_qubits=3), st.floats(0.0, 0.2))
def test_preservation_merge_conserves_lossy_never_gains(ma, mb, th):
    a = QubitSet(tuple(range(ma.width)), ma)
    b = QubitSet(tuple(range(100, 100 + mb.width)), mb)
    product = ma.total() * mb.total()
    kept = merge(a, b, Thresholds(merge=th, merge_mode=MergeMode.PRESERVATION))
    assert total_probability(kept) == pytest.approx(product, abs=1e-9)
    lost = merge(a, b, Thresholds(merge=th, merge_mode=MergeMode.LOSSY))
    assert total_probability(lost) <= product + 1e-9


@settings(deadline=None, max_examples=40)
@given(random_maps(max_qubits=3), random_maps(max_qubits=3), st.floats(1e-4, 0.2))
def test_preservation_merge_matches_brute_force(ma, mb, th):
    a = QubitSet(tuple(range(ma.width)), ma)
    b = QubitSet(tuple(range(100, 100 + mb.width)), mb)
    expected = {}
    for sa, pa in ma.items():
        for sb, pb in mb.items():
            p = pa * pb
            if p >= th:
                key = str(sa) + str(sb)
            elif pb <= pa:
                key = str(sa) + "I" * mb.width
            else:
                key = "I" * ma.width + str(sb)
            expected[key] = expected.get(key, 0.0) + p
    out = merge(a, b, Thresholds(merge=th, merge_mode=MergeMode.PRESERVATION))
    got = as_strs(out)
    assert set(got) == {k for k, v in expected.items() if v > 0}
    for k in got:
        assert got[k] == pytest.approx(expected[k], rel=1e-9, abs=1e-15)


def test_pruning_monotonicity():
    # lowering the event threshold never decreases the state count
    qs = qset({"III": 0.9, "XII": 0.06, "IZI": 0.04})
    counts = []
    for th in (0.5, 0.05, 0.01, 0.0):
        out = apply_one_qubit_event(qs, 1, 0.3, Thresholds(event_branch=th))
        counts.append(len(as_strs(out)))
    assert counts == sorted(counts)
