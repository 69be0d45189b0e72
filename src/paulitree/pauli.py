"""Pauli label algebra and fixed-width Pauli strings.

A qubit's error condition is one of the four labels I, X, Z, Y.  The
numeric encoding packs the X component into bit 0 and the Z component
into bit 1 (so Y = X|Z = 3), which makes label composition a plain XOR
and lets a string of n qubits pack into 2n bits of an integer.  Qubit i
occupies bits 2i and 2i+1; there is no width limit because Python
integers are unbounded (the array-backed error maps cap at 32 qubits
per 64-bit word but use as many words as needed).

Strings render left to right starting at qubit 0, i.e. ``str(s)[i]`` is
the label of qubit i.  Everything here is an immutable value; all
operations are pure functions.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable


class Pauli(IntEnum):
    """Single-qubit error label. I is the error-free state."""

    I = 0
    X = 1
    Z = 2
    Y = 3


_CHAR_TO_LABEL = {"I": Pauli.I, "X": Pauli.X, "Z": Pauli.Z, "Y": Pauli.Y}
_LABEL_TO_CHAR = "IXZY"


def compose(a: Pauli, b: Pauli) -> Pauli:
    """Product of two error labels with the global phase discarded.

    The labels form an abelian group of order 4: I is the identity,
    every label is its own inverse, and the product of two distinct
    non-identity labels is the third.
    """
    return Pauli(int(a) ^ int(b))


class PauliString:
    """Fixed-length word of per-qubit Pauli labels, usable as a hash key."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int):
        if n <= 0:
            raise ValueError("PauliString needs at least one qubit")
        if bits < 0 or bits >> (2 * n):
            raise ValueError("bits out of range for %d qubits" % n)
        self.bits = bits
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(0, n)

    @classmethod
    def from_labels(cls, labels: Iterable[Pauli]) -> "PauliString":
        bits = 0
        n = 0
        for lab in labels:
            bits |= int(lab) << (2 * n)
            n += 1
        return cls(bits, n)

    @classmethod
    def from_str(cls, text: str) -> "PauliString":
        try:
            return cls.from_labels(_CHAR_TO_LABEL[c] for c in text.upper())
        except KeyError as exc:
            raise ValueError("invalid Pauli character %r" % (exc.args[0],))

    def label(self, q: int) -> Pauli:
        self._check_index(q)
        return Pauli((self.bits >> (2 * q)) & 3)

    def labels(self) -> tuple[Pauli, ...]:
        return tuple(Pauli((self.bits >> (2 * q)) & 3) for q in range(self.n))

    def _check_index(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise IndexError("qubit %d out of range for width %d" % (q, self.n))

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PauliString)
            and self.bits == other.bits
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.n))

    def __str__(self) -> str:
        return "".join(_LABEL_TO_CHAR[(self.bits >> (2 * q)) & 3] for q in range(self.n))

    def __repr__(self) -> str:
        return "PauliString(%r)" % str(self)

