import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paulitree import engine
from paulitree.errormap import (
    ErrorMap,
    _aggregate,
    _int_from_row,
    _row_from_int,
    _sort_view,
    MergeMode,
    QubitSet,
    Thresholds,
    clear_kernel,
    cnot_kernel,
    hadamard_kernel,
    event_patterns,
    merge,
    split,
)
from paulitree.pauli import Pauli, PauliString
from paulitree.qecc import correctable, syndrome_kernel, verify_kernel

TH0 = Thresholds()
emap = ErrorMap.from_dict


def as_strs(m):
    return {str(s): p for s, p in m.items()}


def qset(entries, members=None):
    m = ErrorMap.from_dict(entries)
    members = tuple(range(m.width)) if members is None else tuple(members)
    return QubitSet(members, m)


def assert_map_close(m, expected, tol=1e-12):
    got = as_strs(m)
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
        m = emap({"III": 1.0})
        m.event_kernel(event_patterns(3, 2), 0.3, 0.1)
        assert_map_close(m, {"III": 0.7, "IIX": 0.1, "IIY": 0.1, "IIZ": 0.1})

    def test_zero_probability_event(self):
        m = emap({"III": 1.0})
        m.event_kernel(event_patterns(3, 1), 0.0, 0.0)
        assert_map_close(m, {"III": 1.0})

    def test_below_threshold_passes_through_and_collides(self):
        m = emap({"III": 0.9, "IIX": 0.05})
        m.event_kernel(event_patterns(3, 2), 0.3, 0.1)
        assert_map_close(
            m, {"III": 0.63, "IIX": 0.09 + 0.05, "IIY": 0.09, "IIZ": 0.09}
        )

    def test_no_entry_at_the_branch_threshold_leaves_the_map_unchanged(self):
        before = emap({"III": 0.9, "IIX": 0.1}).dump()
        for f in (0.3, 1.0):
            m = emap({"III": 0.9, "IIX": 0.1})
            m.event_kernel(event_patterns(3, 2), f, 0.95)
            assert m.dump() == before

    def test_conserves_mass_for_any_threshold(self):
        for th in (0.0, 1e-3, 0.5, 1.0):
            m = emap({"II": 0.6, "XI": 0.3, "YZ": 0.1})
            m.event_kernel(event_patterns(2, 0), 0.25, th)
            assert m.total() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("width, q", [(1, 0), (40, 35)])
    def test_certain_event_drops_the_emptied_source(self, width, q):
        m = ErrorMap.identity(width)
        m.event_kernel(event_patterns(width, q), 1.0, 0.0)
        assert len(m) == 3
        assert (m._probs > 0.0).all()
        base = "I" * width
        assert_map_close(m, {base[:q] + lab + base[q + 1:]: 1 / 3 for lab in "XYZ"})

    def test_certain_event_can_land_on_an_emptied_source(self):
        # the I source empties, then the X source's X branch lands on it
        m = emap({"I": 0.5, "X": 0.5})
        m.event_kernel(event_patterns(1, 0), 1.0, 0.0)
        assert_map_close(m, {"I": 1 / 6, "X": 1 / 6, "Y": 1 / 3, "Z": 1 / 3})

    def test_errors(self):
        with pytest.raises(IndexError):
            event_patterns(2, 2)
        with pytest.raises(ValueError):
            emap({"II": 1.0}).event_kernel(event_patterns(2, 0), 1.5, 0.0)


class TestTwoQubitEvent:
    def test_fifteen_equal_branches(self):
        m = emap({"II": 1.0})
        m.event_kernel(event_patterns(2, 0, 1), 0.15, 0.0)
        expected = {"II": 0.85}
        for a in "IXYZ":
            for b in "IXYZ":
                if a + b != "II":
                    expected[a + b] = 0.01
        assert_map_close(m, expected)

    def test_zero_event(self):
        m = emap({"II": 1.0})
        m.event_kernel(event_patterns(2, 0, 1), 0.0, 0.0)
        assert_map_close(m, {"II": 1.0})

    def test_composes_onto_existing_error(self):
        m = emap({"XI": 1.0})
        m.event_kernel(event_patterns(2, 0, 1), 0.15, 0.0)
        assert as_strs(m)["XX"] == pytest.approx(0.01)
        assert m.total() == pytest.approx(1.0, abs=1e-12)

    def test_same_operand_rejected(self):
        # three of the fifteen rows would be all-zero, moving 1/5 of the
        # event's mass onto "no error"
        for width, q in ((2, 1), (4, 1), (40, 35)):
            event_patterns(width, 0, q)  # a valid entry in the cache first
            with pytest.raises(ValueError, match="must differ"):
                event_patterns(width, q, q)


class TestWeightedEvent:
    @pytest.mark.parametrize("patterns", [event_patterns(3, 1),
                                          event_patterns(3, 2, 0)], ids=["3", "15"])
    @pytest.mark.parametrize("f, th", [(0.3, 0.0), (0.1234567890123, 0.05), (1.0, 0.0)])
    def test_uniform_weights_are_the_default_bit_for_bit(self, patterns, f, th):
        entries = {"III": 0.6, "XIZ": 0.25, "YYI": 0.1, "IZX": 0.05}
        default, weighted = emap(entries), emap(entries)
        default.event_kernel(patterns, f, th)
        k = patterns.shape[0]
        weighted.event_kernel(patterns, f, th, np.full(k, f / k))
        assert (weighted._keys == default._keys).all()
        assert weighted._probs.tobytes() == default._probs.tobytes()

    def test_weights_give_each_outcome_its_own_probability(self):
        m = emap({"II": 0.75, "XI": 0.25})
        weights = np.zeros(15)
        weights[[0, 3]] = 0.125, 0.375  # IX and XI
        m.event_kernel(event_patterns(2, 0, 1), 0.5, 0.0, weights)
        assert_map_close(m, {"II": 0.375 + 0.25 * 0.375, "XI": 0.125 + 0.75 * 0.375,
                             "IX": 0.75 * 0.125, "XX": 0.25 * 0.125})

    @pytest.mark.parametrize("weights, message", [
        (np.array([0.2, -0.1, 0.2]), "non-negative"),
        (np.array([0.1, 0.1, 0.1 + 2e-12]), "sum to"),
        (np.array([0.1, 0.1, math.nan]), "non-negative"),
        (np.array([0.15, 0.15]), "non-negative"),
    ], ids=["negative", "off-sum", "nan", "count"])
    def test_bad_weights_are_rejected(self, weights, message):
        m = emap({"II": 1.0})
        before = m.dump()
        with pytest.raises(ValueError, match=message):
            m.event_kernel(event_patterns(2, 0), 0.3, 0.0, weights)
        assert m.dump() == before

    @pytest.mark.parametrize("width, positions", [(3, (2, 0)), (40, (33, 5))],
                             ids=["one-word", "two-word"])
    @pytest.mark.parametrize("th", [0.0, 0.02])
    def test_zero_weight_rows_give_the_map_of_the_nonzero_rows_bit_for_bit(
            self, width, positions, th):
        rng = np.random.default_rng(22)
        labels = rng.integers(0, 4, size=(30, width))
        keys = np.array([_row_from_int(sum(int(lab) << 2 * q for q, lab in enumerate(row)),
                                       (width + 31) // 32) for row in labels])
        probs = rng.random(30)
        patterns = event_patterns(width, *positions)
        weights = rng.random(15) * (rng.random(15) < 0.5)
        weights *= 0.3 / weights.sum()
        f = float(weights.sum())
        live = weights > 0.0
        assert 0 < live.sum() < 15
        full, nonzero = (ErrorMap(width, keys, probs / probs.sum()) for _ in range(2))
        full.event_kernel(patterns, f, th, weights)
        nonzero.event_kernel(patterns[live], f, th, weights[live])
        assert full._keys.tobytes() == nonzero._keys.tobytes()
        assert full._probs.tobytes() == nonzero._probs.tobytes()

    def test_certain_event_drops_the_branched_sources(self):
        m = emap({"II": 0.5, "XI": 0.5})
        weights = np.zeros(15)
        weights[[0, 1]] = 0.25, 0.75  # IX, IZ
        m.event_kernel(event_patterns(2, 0, 1), 1.0, 0.0, weights)
        assert len(m) == 4
        assert (m._probs > 0.0).all()
        assert_map_close(m, {"IX": 0.125, "IZ": 0.375, "XX": 0.125, "XZ": 0.375})


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
        m = emap({"IXI": 0.5, "IZI": 0.3, "IYI": 0.2})
        m.apply((hadamard_kernel, 1))
        assert_map_close(m, {"IZI": 0.5, "IXI": 0.3, "IYI": 0.2})
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

    def test_cnot_propagates(self):
        m = emap({"XII": 0.5, "IIZ": 0.5})
        m.apply((cnot_kernel, 0, 2))
        assert_map_close(m, {"XIX": 0.5, "ZIZ": 0.5})

    def test_cnot_collisionless_bijection(self):
        m = emap({"II": 0.4, "XI": 0.3, "IZ": 0.2, "YY": 0.1})
        m.apply((cnot_kernel, 0, 1))
        assert len(m) == 4
        assert m.total() == pytest.approx(1.0, abs=1e-15)
        # the full conjugation table, on the kernel and then on a map whose
        # distinct probabilities trace every entry; twice is the identity
        keys = packed(CNOT_TABLE)
        cnot_kernel(keys, 0, 1)
        assert unpacked(keys, 2) == list(CNOT_TABLE.values())
        cnot_kernel(keys, 0, 1)
        assert unpacked(keys, 2) == list(CNOT_TABLE)
        src = {k: (i + 1) / 136.0 for i, k in enumerate(CNOT_TABLE)}
        m = emap(src)
        m.apply((cnot_kernel, 0, 1))
        assert_map_close(m, {CNOT_TABLE[k]: p for k, p in src.items()}, tol=0.0)


class TestMerge:
    def test_exact_cross_product(self):
        a = qset({"I": 0.9, "X": 0.1}, members=[0])
        b = qset({"I": 0.8, "Z": 0.2}, members=[1])
        out = merge(a, b, TH0)
        assert out.members == (0, 1)
        assert_map_close(out.map, {"II": 0.72, "IZ": 0.18, "XI": 0.08, "XZ": 0.02})

    def test_error_free_merge(self):
        out = merge(qset({"II": 1.0}), qset({"I": 1.0}, members=[2]), TH0)
        assert_map_close(out.map, {"III": 1.0})

    def test_preservation_zeroes_less_probable_side(self):
        # the merged state IXXYI at 0.005 falls below the 0.01 threshold;
        # preservation keeps its mass as IIIYI, lossy discards it
        a = qset({"III": 0.95, "IXX": 0.05}, members=[0, 1, 2])
        b = qset({"II": 0.9, "YI": 0.1}, members=[3, 4])
        th_p = Thresholds(merge=0.01, merge_mode=MergeMode.PRESERVATION)
        out = merge(a, b, th_p)
        got = as_strs(out.map)
        # 0.95*0.1 lands on IIIYI above threshold; the collapsed 0.005 joins it
        assert got["IIIYI"] == pytest.approx(0.095 + 0.005)
        assert "IXXYI" not in got
        assert out.map.total() == pytest.approx(1.0, abs=1e-12)

        th_l = Thresholds(merge=0.01, merge_mode=MergeMode.LOSSY)
        out_l = merge(a, b, th_l)
        got_l = as_strs(out_l.map)
        assert "IXXYI" not in got_l
        assert got_l["IIIYI"] == pytest.approx(0.095)
        assert out_l.map.total() == pytest.approx(1.0 - 0.005, abs=1e-12)

    def test_tie_zeroes_state_from_b(self):
        a = qset({"I": 0.9, "X": 0.1}, members=[0])
        b = qset({"I": 0.9, "Z": 0.1}, members=[1])
        th = Thresholds(merge=0.02, merge_mode=MergeMode.PRESERVATION)
        out = merge(a, b, th)
        got = as_strs(out.map)
        # the 0.1 x 0.1 pair ties: b's Z is zeroed, a's X is kept
        assert got["XI"] == pytest.approx(0.09 + 0.01)
        assert got["IZ"] == pytest.approx(0.09)
        assert "XZ" not in got
        assert out.map.total() == pytest.approx(1.0, abs=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            merge(qset({"II": 1.0}), qset({"II": 1.0}, members=[1, 2]), TH0)

    @pytest.mark.parametrize("mode", list(MergeMode))
    @pytest.mark.parametrize("threshold", [0.0, 0.01])
    def test_empty_map_merges_to_an_empty_map(self, mode, threshold):
        # a lossy merge can leave an empty map; merging it keeps it empty
        th = Thresholds(merge=threshold, merge_mode=mode)
        empty = QubitSet((0, 1), ErrorMap(2))
        other = qset({"III": 0.9, "XYZ": 0.1}, members=[2, 3, 4])
        for a, b in ((empty, other), (other, empty)):
            out = merge(a, b, th)
            assert out.members == a.members + b.members
            assert out.map.width == 5 and len(out.map) == 0


class TestSplit:
    def test_inverse_of_independent_merge(self):
        left, right = split(
            qset({"II": 0.72, "IZ": 0.18, "XI": 0.08, "XZ": 0.02}, members=[5, 9]),
            keep=[0],
        )
        assert left.members == (5,)
        assert right.members == (9,)
        assert_map_close(left.map, {"I": 0.9, "X": 0.1})
        assert_map_close(right.map, {"I": 0.8, "Z": 0.2})

    def test_trivial_split(self):
        left, right = split(qset({"III": 1.0}), keep=[0, 1])
        assert_map_close(left.map, {"II": 1.0})
        assert_map_close(right.map, {"I": 1.0})

    def test_correlation_lost_by_design(self):
        left, right = split(qset({"II": 0.5, "XX": 0.5}), keep=[0])
        assert_map_close(left.map, {"I": 0.5, "X": 0.5})
        assert_map_close(right.map, {"I": 0.5, "X": 0.5})

    def test_marginal_totals(self):
        qs = qset({"II": 0.4, "XZ": 0.25, "YI": 0.2, "IZ": 0.15})
        left, right = split(qs, keep=[1])
        assert left.map.total() == pytest.approx(1.0, abs=1e-12)
        assert right.map.total() == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        qs = qset({"II": 1.0})
        with pytest.raises(ValueError):
            split(qs, keep=[])
        with pytest.raises(ValueError):
            split(qs, keep=[0, 1])


class TestSummaries:
    def test_total_probability(self):
        assert emap({"III": 1.0}).total() == pytest.approx(1.0)

    def test_mass_where(self):
        m = emap({"III": 0.7, "IIX": 0.1, "XXI": 0.2})
        # correctable on one block is weight <= 1
        assert m.mass_where(correctable, [[0, 1, 2]]) == pytest.approx(0.8)
        assert m.mass_where(lambda keys: np.ones(len(keys), dtype=bool)) == pytest.approx(1.0)
        assert m.mass_where(lambda keys: ~keys.any(axis=1)) == pytest.approx(0.7)


    @pytest.mark.parametrize("p", [-0.1, -math.inf, math.nan, math.inf])
    def test_from_dict_rejects_a_negative_or_non_finite_probability(self, p):
        with pytest.raises(ValueError, match="finite and non-negative"):
            emap({"II": 0.5, "XI": p})


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
        m = emap({("I" * n): 0.9, s: 0.1})
        m.event_kernel(event_patterns(n, 38), 0.5, 0.0)
        assert m.total() == pytest.approx(1.0, abs=1e-12)
        m.apply((cnot_kernel, 35, 38))
        assert m.total() == pytest.approx(1.0, abs=1e-12)

    def test_multiword_merge_boundary_shift(self):
        # 20 + 20 qubits: b's bits straddle the word boundary after the shift
        a = qset({"I" * 20: 0.7, "X" + "I" * 19: 0.3}, members=range(20))
        b = qset({"I" * 20: 0.6, "I" * 19 + "Z": 0.4}, members=range(20, 40))
        out = merge(a, b, TH0)
        got = as_strs(out.map)
        assert got["I" * 40] == pytest.approx(0.42)
        assert got["X" + "I" * 38 + "Z"] == pytest.approx(0.12)
        left, right = split(out, keep=range(20))
        assert_map_close(left.map, {"I" * 20: 0.7, "X" + "I" * 19: 0.3})
        assert_map_close(right.map, {"I" * 20: 0.6, "I" * 19 + "Z": 0.4})


class TestPatternCache:
    def test_cached_patterns_are_read_only(self):
        for pats in (event_patterns(5, 2), event_patterns(5, 1, 3)):
            with pytest.raises(ValueError):
                pats[0, 0] = 0
        # a second call returns the same, unchanged array
        assert event_patterns(5, 2) is event_patterns(5, 2)
        assert [int(r[0]) for r in event_patterns(5, 2)] == [
            int(lab) << 4 for lab in (Pauli.X, Pauli.Z, Pauli.Y)]

    def test_out_of_range_still_raises_once_cached(self):
        event_patterns(3, 2)
        event_patterns(3, 0, 2)
        with pytest.raises(IndexError):
            event_patterns(3, 3)
        with pytest.raises(IndexError):
            event_patterns(3, -1)
        with pytest.raises(IndexError):
            event_patterns(3, 0, 3)

    def test_event_same_with_cold_and_warm_cache(self):
        event_patterns.cache_clear()
        dumps = []
        for _ in range(2):
            m = emap({"II": 0.7, "XZ": 0.3})
            m.event_kernel(event_patterns(2, 1), 0.3, 0.0)
            dumps.append(m.dump())
        cold, warm = dumps
        assert cold == warm
        assert event_patterns.cache_info().hits >= 1


def reference_patterns(width, *positions):
    """The two hand-written outcome tables event_patterns replaced:
    outcome i is label i + 1 at q, and labels divmod(i + 1, 4) on (q1, q2)."""
    if len(positions) == 1:
        labels = [(i + 1,) for i in range(3)]
    else:
        labels = [divmod(i + 1, 4) for i in range(15)]
    return np.array([_row_from_int(sum(lab << (2 * q) for lab, q in zip(labs, positions)),
                                   (width + 31) // 32) for labs in labels])


class TestOutcomeTable:
    @pytest.mark.parametrize("width", range(1, 66))
    def test_matches_the_one_and_two_qubit_tables(self, width):
        # positions in key words 0, 1 and 2, where the width reaches them
        picks = {q for q in (0, 1, 30, 31, 32, 33, 63, 64) if q < width} | {width - 1}
        for q in picks:
            assert (event_patterns(width, q) == reference_patterns(width, q)).all()
        for q1 in picks:
            for q2 in picks:
                if q1 != q2:
                    assert (event_patterns(width, q1, q2)
                            == reference_patterns(width, q1, q2)).all()
            with pytest.raises(ValueError, match="must differ"):
                event_patterns(width, q1, q1)

    def test_row_4a_plus_b_minus_1_is_the_pair_event_outcome_a_b(self):
        # the planner weights row 4a + b - 1 with _PairEvent.w[4a + b],
        # the probability of label a on its first qubit and b on its second
        # (both qubits fully live, so nothing is masked)
        pats = event_patterns(2, 0, 1)
        for a in range(4):
            for b in range(4):
                if a or b:
                    assert int(pats[4 * a + b - 1, 0]) == a | b << 2
                    planner = engine._Planner([(0,), (1,)], [3, 3])
                    w = np.zeros(16)
                    w[4 * a + b] = 1.0
                    pair = engine._PairEvent((0, 1), w)
                    planner.pairs[0] = planner.pairs[1] = pair
                    planner.flush((0,))
                    sets = {0: qset({"I": 1.0}, (0,)), 1: qset({"I": 1.0}, (1,))}
                    engine._Execution(TH0).run(planner.ops, sets)
                    (key, p), = sets[0].map.items()
                    assert (key.bits, p) == (a | b << 2, 1.0)


# Keys on both sides of the 32-qubit word boundary, against dict oracles.
# Probabilities are multiples of 2**-10 and the event probability is a
# dyadic multiple of 3, so every sum and product is exact in any order.
BOUNDARY_WIDTHS = (1, 31, 32, 33, 40, 64, 65)


@st.composite
def boundary_entries(draw, width, max_keys=8, max_entries=16):
    """(key ints, dyadic probabilities) with repeated keys, many of them
    carrying labels only on the qubits around the word boundary."""
    lo = min(30, width - 1)
    near = st.integers(0, 4 ** min(4, width - lo) - 1).map(lambda b: b << (2 * lo))
    pool = draw(st.lists(st.one_of(st.integers(0, 4 ** width - 1), near),
                         min_size=1, max_size=max_keys, unique=True))
    n = draw(st.integers(1, max_entries))
    keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    probs = draw(st.lists(st.integers(1, 1024), min_size=n, max_size=n))
    return keys, [p * 2.0 ** -10 for p in probs]


def pack(width, keys):
    nw = (width + 31) // 32
    return np.array([_row_from_int(k, nw) for k in keys], dtype=np.uint64).reshape(-1, nw)


def oracle_sum(*batches):
    out = {}
    for keys, probs in batches:
        for k, p in zip(keys, probs):
            out[k] = out.get(k, 0.0) + p
    return out


def sorted_map(width, keys, probs):
    """An ErrorMap of the given int keys, with repeated keys summed."""
    return ErrorMap(width, pack(width, keys), np.array(probs))


def assert_sorted_unique(keys, probs, expected):
    got = [_int_from_row(r) for r in keys]
    assert all(a < b for a, b in zip(got, got[1:]))
    assert dict(zip(got, probs.tolist())) == expected


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_aggregate_orders_and_sums_across_word_boundary(width, data):
    keys, probs = data.draw(boundary_entries(width))
    out_keys, out_probs = _aggregate(pack(width, keys), np.array(probs))
    assert_sorted_unique(out_keys, out_probs, oracle_sum((keys, probs)))


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_insert_matches_oracle_across_word_boundary(width, data):
    base = data.draw(boundary_entries(width))
    batch = data.draw(boundary_entries(width))
    m = sorted_map(width, *base)
    m._insert(pack(width, batch[0]), np.array(batch[1]))
    assert_sorted_unique(m._keys, m._probs, oracle_sum(base, batch))
    # the cached sort view still describes the keys
    assert (m._view() == _sort_view(m._keys)).all()


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_aggregate_returns_new_contiguous_keys_for_any_input_layout(width, data):
    keys, probs = data.draw(boundary_entries(width))
    nw = (width + 31) // 32
    doubled = pack(width, [k for k in keys for _ in (0, 1)])
    # the same keys as a C array, a strided view and a Fortran-ordered copy
    for src in (pack(width, keys), doubled[::2], np.asfortranarray(pack(width, keys))):
        before = src.copy()
        p = np.array(probs)
        out_keys, out_probs = _aggregate(src, p)
        assert out_keys.dtype == np.uint64 and out_keys.flags.c_contiguous
        assert out_keys.shape == (out_probs.shape[0], nw)
        assert not np.shares_memory(out_keys, src) and not np.shares_memory(out_probs, p)
        assert (src == before).all()
        assert_sorted_unique(out_keys, out_probs, oracle_sum((keys, probs)))


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_operations_on_a_copy_leave_the_source_map_unchanged(width, data):
    m = sorted_map(width, *data.draw(boundary_entries(width)))
    keys, probs = m._keys.copy(), m._probs.copy()
    c = m.copy()
    q = min(31, width - 1)
    c.apply((hadamard_kernel, q), (clear_kernel, [0]))
    c.event_kernel(event_patterns(width, q), 0.75, 0.0)
    assert (m._keys == keys).all() and (m._probs == probs).all()


def kernel_oracle(width, entries, calls):
    """{key int: probability} after running ``calls`` on each key alone."""
    out = {}
    for k, p in entries.items():
        row = pack(width, [k])
        for kernel, *args in calls:
            kernel(row, *args)
        k = _int_from_row(row[0])
        out[k] = out.get(k, 0.0) + p
    return out


def assert_sorted_map(m, expected=None):
    """The map's keys strictly increase and, if given, match ``expected``."""
    got = {s.bits: p for s, p in m.items()}
    assert_sorted_unique(m._keys, m._probs, got if expected is None else expected)


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_every_operation_leaves_the_keys_sorted_and_unique(width, data):
    keys, probs = data.draw(boundary_entries(width))
    m = sorted_map(width, keys, probs)
    expected = oracle_sum((keys, probs))
    assert_sorted_map(m, expected)
    assert_sorted_map(m.copy(), expected)
    # a run of kernels that maps keys onto each other: the readouts clear
    # the block and the verifier, so many keys collide
    q = min(31, width - 1)
    calls = [(hadamard_kernel, q), (clear_kernel, [q])]
    if width >= 8:
        block = list(range(width - 8, width - 1))
        calls += [(verify_kernel, block, width - 1), (syndrome_kernel, block)]
    m.apply(*calls)
    expected = kernel_oracle(width, expected, calls)
    assert_sorted_map(m, expected)
    m.event_kernel(event_patterns(width, q), 0.75, 0.0)
    assert_sorted_map(m)
    m.event_kernel(event_patterns(width, 0), 1.0, 0.0)
    assert_sorted_map(m)
    merged = merge(QubitSet(tuple(range(width)), m),
                   qset({"I": 0.5, "X": 0.5}, members=[width]), TH0)
    assert_sorted_map(merged.map)
    for side in split(merged, [width]):
        assert_sorted_map(side.map)


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@settings(deadline=None, max_examples=25)
@given(data=st.data(), f=st.sampled_from([0.75, 0.375, 0.1875]))
def test_event_matches_oracle_across_word_boundary(width, data, f):
    keys, probs = data.draw(boundary_entries(width))
    start = oracle_sum((keys, probs))
    # last qubit of word 0 and, when there is one, first qubit of word 1
    for q in sorted({min(31, width - 1), min(32, width - 1)}):
        m = sorted_map(width, keys, probs)
        m.event_kernel(event_patterns(width, q), f, 0.0)
        expected = {}
        for k, p in start.items():
            expected[k] = expected.get(k, 0.0) + p * (1.0 - f)
            for lab in (1, 2, 3):
                b = k ^ (lab << (2 * q))
                expected[b] = expected.get(b, 0.0) + p * (f / 3)
        assert {s.bits: p for s, p in m.items()} == expected


@st.composite
def keep_runs(draw, width):
    """A proper, non-empty keep set drawn as alternating runs and gaps of
    up to 40 positions, so runs and gaps cross the 32-qubit word boundary
    of the source key and, once more than 32 are kept, of the output key."""
    keep, q, kept = [], 0, draw(st.booleans())
    while q < width:
        n = draw(st.integers(1, 40))
        if kept:
            keep += range(q, min(q + n, width))
        q, kept = q + n, not kept
    assume(0 < len(keep) < width)
    return keep


def project(k, positions):
    """Key int ``k`` reduced to ``positions``: label of positions[j] at j."""
    return sum(((k >> 2 * q) & 3) << 2 * j for j, q in enumerate(positions))


# a one-qubit set has no proper, non-empty keep set
@pytest.mark.parametrize("width", [w for w in BOUNDARY_WIDTHS if w > 1])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_split_matches_marginal_oracle_across_word_boundary(width, data):
    keys, probs = data.draw(boundary_entries(width))
    keep = data.draw(keep_runs(width))
    rest = [q for q in range(width) if q not in keep]
    members = tuple(100 + q for q in range(width))
    left, right = split(QubitSet(members, sorted_map(width, keys, probs)), keep)
    marginals = [oracle_sum(([project(k, side) for k in keys], probs)) for side in (keep, rest)]
    # dyadic marginals are exact; the keep side is divided by its total
    total = sum(marginals[0].values())
    assert left.members == tuple(100 + q for q in keep)
    assert right.members == tuple(100 + q for q in rest)
    assert_sorted_map(left.map, {k: p / total for k, p in marginals[0].items()})
    assert_sorted_map(right.map, marginals[1])
    assert left.map.total() == pytest.approx(1.0, abs=1e-12)


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
    q = data.draw(st.integers(0, m.width - 1))
    before = m.total()
    m.event_kernel(event_patterns(m.width, q), f, th)
    assert m.total() == pytest.approx(before, abs=1e-9)


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
    assert kept.map.total() == pytest.approx(product, abs=1e-9)
    lost = merge(a, b, Thresholds(merge=th, merge_mode=MergeMode.LOSSY))
    assert lost.map.total() <= product + 1e-9


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
    got = as_strs(out.map)
    assert set(got) == {k for k, v in expected.items() if v > 0}
    for k in got:
        assert got[k] == pytest.approx(expected[k], rel=1e-9, abs=1e-15)


@st.composite
def dyadic_side(draw, width, max_keys=6):
    """{key int: probability}, probabilities multiples of 2**-10."""
    keys = draw(st.lists(st.integers(0, 4 ** width - 1), min_size=1,
                         max_size=max_keys, unique=True))
    probs = draw(st.lists(st.integers(1, 1024), min_size=len(keys), max_size=len(keys)))
    return {k: p * 2.0 ** -10 for k, p in zip(keys, probs)}


@pytest.mark.parametrize("mode", list(MergeMode), ids=lambda m: m.value)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_merge_matches_brute_force_across_word_boundary(mode, data):
    # merged widths 31-40: b's keys shift by 2 * na bits, mostly by a
    # non-zero remainder within a word, and straddle the word boundary
    width = data.draw(st.integers(31, 40))
    na = data.draw(st.integers(1, width - 1))
    nb = width - na
    side_a = data.draw(dyadic_side(na))
    side_b = data.draw(dyadic_side(nb))
    # products are multiples of 2**-20; a threshold halfway between two
    # of them is never met with equality, so p >= th has one answer
    th = data.draw(st.sampled_from([0.0]) | st.integers(0, 2 ** 20 - 1).map(
        lambda t: (t + 0.5) * 2.0 ** -20))
    expected = {}
    for ka, pa in side_a.items():
        for kb, pb in side_b.items():
            p = pa * pb
            if p >= th:
                key = ka | kb << (2 * na)
            elif mode is MergeMode.LOSSY:
                continue
            elif pb <= pa:
                key = ka
            else:
                key = kb << (2 * na)
            expected[key] = expected.get(key, 0.0) + p
    a = QubitSet(tuple(range(na)), sorted_map(na, list(side_a), list(side_a.values())))
    b = QubitSet(tuple(range(na, width)),
                 sorted_map(nb, list(side_b), list(side_b.values())))
    out = merge(a, b, Thresholds(merge=th, merge_mode=mode))
    assert out.map.width == width
    # dyadic sums are exact in any order
    assert {s.bits: p for s, p in out.map.items()} == expected


def test_pruning_monotonicity():
    # lowering the event threshold never decreases the state count
    counts = []
    for th in (0.5, 0.05, 0.01, 0.0):
        m = emap({"III": 0.9, "XII": 0.06, "IZI": 0.04})
        m.event_kernel(event_patterns(3, 1), 0.3, th)
        counts.append(len(m))
    assert counts == sorted(counts)
