import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paulitree.errormap import cnot_kernel, hadamard_kernel
from paulitree.pauli import Pauli, PauliString, compose

ALL = [Pauli.I, Pauli.X, Pauli.Z, Pauli.Y]

# hand-enumerated 4x4 multiplication table of the Pauli matrices mod phase
COMPOSE_TABLE = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}


def test_compose_matches_table():
    for (a, b), c in COMPOSE_TABLE.items():
        assert compose(Pauli[a], Pauli[b]) == Pauli[c]


def test_compose_group_properties():
    for a, b, c in itertools.product(ALL, repeat=3):
        assert compose(a, b) == compose(b, a)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
    for a in ALL:
        assert compose(Pauli.I, a) == a
        assert compose(a, a) == Pauli.I


def test_string_round_trip_and_rendering():
    s = PauliString.from_str("IXYZ")
    assert str(s) == "IXYZ"
    assert s.label(0) == Pauli.I
    assert s.label(1) == Pauli.X
    assert s.label(3) == Pauli.Z
    assert PauliString.from_labels(s.labels()) == s
    assert len(s) == 4


def test_string_validation():
    with pytest.raises(ValueError):
        PauliString.from_str("IXQ")
    with pytest.raises(ValueError):
        PauliString(0, 0)
    with pytest.raises(IndexError):
        PauliString.from_str("II").label(2)


# The gates act on packed key rows; these helpers run the shared kernels on
# single strings so the conjugation rules read as string examples.


def _hadamard(s, q):
    keys = np.array([[s.bits]], dtype=np.uint64)
    hadamard_kernel(keys, q)
    return PauliString(int(keys[0, 0]), len(s))


def _cnot(s, control, target):
    keys = np.array([[s.bits]], dtype=np.uint64)
    cnot_kernel(keys, control, target)
    return PauliString(int(keys[0, 0]), len(s))


def _weight(s):
    return sum(lab != Pauli.I for lab in s.labels())


def test_hadamard_examples():
    assert str(_hadamard(PauliString.from_str("IXI"), 1)) == "IZI"
    assert str(_hadamard(PauliString.from_str("III"), 0)) == "III"
    # HYH = -Y; phase discarded
    assert str(_hadamard(PauliString.from_str("IYI"), 1)) == "IYI"


def test_cnot_examples():
    assert str(_cnot(PauliString.from_str("XII"), 0, 1)) == "XXI"
    assert str(_cnot(PauliString.from_str("III"), 0, 1)) == "III"
    assert str(_cnot(PauliString.from_str("IZ"), 0, 1)) == "ZZ"


# hand-enumerated two-qubit CNOT conjugation table (control = qubit 0)
CNOT_TABLE = {
    "II": "II", "IX": "IX", "IZ": "ZZ", "IY": "ZY",
    "XI": "XX", "XX": "XI", "XZ": "YY", "XY": "YZ",
    "ZI": "ZI", "ZX": "ZX", "ZZ": "IZ", "ZY": "IY",
    "YI": "YX", "YX": "YI", "YZ": "XY", "YY": "XZ",
}


def test_cnot_full_conjugation_table():
    for src, dst in CNOT_TABLE.items():
        assert str(_cnot(PauliString.from_str(src), 0, 1)) == dst


def test_cnot_involution_exhaustive():
    for src in CNOT_TABLE:
        s = PauliString.from_str(src)
        assert _cnot(_cnot(s, 0, 1), 0, 1) == s


def test_hadamard_involution_exhaustive():
    for lab in "IXYZ":
        for q in range(3):
            s = PauliString.from_str("I" * q + lab + "I" * (2 - q))
            assert _hadamard(_hadamard(s, q), q) == s


@st.composite
def pauli_strings(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.lists(st.sampled_from(ALL), min_size=n, max_size=n))
    return PauliString.from_labels(labels)


@given(pauli_strings(), st.data())
def test_hadamard_preserves_weight(s, data):
    q = data.draw(st.integers(min_value=0, max_value=len(s) - 1))
    assert _weight(_hadamard(s, q)) == _weight(s)


@given(pauli_strings())
def test_strings_hash_by_value(s):
    assert PauliString.from_str(str(s)) == s
    assert hash(PauliString.from_str(str(s))) == hash(s)
