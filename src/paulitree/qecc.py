"""Steane [[7,1,3]] code machinery: code tables and readout kernels.

The code stores one logical qubit in a 7-qubit block and corrects any
single-qubit error.  Recovery runs in two sequential phases: the *bit*
phase detects and corrects X errors, the *phase* phase Z errors (a Y
counts in both).  Each phase prepares three verified logical-ancilla
blocks, extracts the syndrome into each, majority-votes the three
syndromes, and applies the decoded single-qubit correction, so that a
faulty ancilla or measurement cannot outvote two good extractions.

This module holds the code itself: the check matrix, the encoder
tables, the decode table and the state counts.  The recovery circuit
built from them is emitted by :func:`paulitree.program.build_recovery`.
The ``*_kernel`` functions are the deterministic transformations behind
the readout tasks, written on packed (rows, words) key arrays like the
gate kernels of :mod:`~paulitree.errormap`; ``correctable`` is the
per-row crash observable.  Both engines share them: the analytical
engine applies them to an error map's keys, the Monte Carlo engine to
its sampled strings.  They work on whole key words, not on one qubit of
a row at a time: a parity check is a popcount (``np.bitwise_count``,
numpy 2.0 or later) of each word under the check's mask, a decode is one
lookup per word in a cached table (8 entries for a syndrome, 512 for the
majority of three stored syndromes), and ``correctable`` counts a
block's errored qubits with one popcount per word.  The word masks come
from the one table of :mod:`~paulitree.errormap` (``_word_masks``), and
every readout clears its positions with
:func:`~paulitree.errormap.clear_components_kernel`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errormap import (_TABLE_CACHE, ErrorMap, _shift_into, _slot, _word_masks,
                       clear_components_kernel)
from .pauli import Pauli

_U64 = np.uint64

#: Parity-check matrix; row r of the syndrome is the parity of the error
#: bits at the columns where the row is 1.  Column j reads, top to
#: bottom, as the binary digits of j + 1, so the 3-bit syndrome value
#: directly names the errored position.
CHECK_MATRIX = np.array(
    [
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ],
    dtype=np.uint8,
)

#: Logical-zero encoder: Hadamards on the three generator qubits, then
#: three cycles of disjoint CNOT pairs (control, target).
ENCODER_HADAMARDS = (0, 1, 3)
ENCODER_CNOT_CYCLES = (
    ((3, 4), (1, 2), (0, 6)),
    ((3, 5), (1, 6), (0, 2)),
    ((3, 6), (1, 5), (0, 4)),
)


def decode_table() -> dict[int, int | None]:
    """Syndrome value (s0 s1 s2 read as binary) to errored position.

    Syndrome 0 means no error.  With the check matrix above the mapping
    is simply value - 1.
    """
    table: dict[int, int | None] = {0: None}
    for v in range(1, 8):
        table[v] = v - 1
    return table


def decode_table_text() -> str:
    """Human-readable decode table, one ``syndrome -> position`` per line."""
    lines = []
    for v, pos in decode_table().items():
        lines.append("%d%d%d -> %s" % (v >> 2, (v >> 1) & 1, v & 1,
                                       "none" if pos is None else "qubit %d" % pos))
    return "\n".join(lines)


#: block length and correctable weight of the codes the estimator knows
CODE_PARAMS = {"steane713": (7, 1), "golay2135": (21, 2)}


def count_nonfailing_states(code, max_weight: int | None = None) -> int:
    """Number of Pauli strings per block with weight at most the code's
    correctable weight: sum of C(n, w) * 3^w for w = 0..t.

    These are the states a distance-(2t+1) block code keeps correctable;
    the complement is the failure region the crash observable counts.
    ``code`` is a known code name ("steane713", "golay2135") or a block
    length given together with an explicit ``max_weight``.
    """
    if isinstance(code, str):
        try:
            n_qubits, max_weight = CODE_PARAMS[code.lower()]
        except KeyError:
            raise ValueError("unknown code %r" % (code,))
    else:
        n_qubits = code
        if max_weight is None:
            raise ValueError("max_weight is required with an explicit block length")
    return sum(math.comb(n_qubits, w) * 3**w for w in range(max_weight + 1))


# -- readout kernels ------------------------------------------------------
#
# Like the gate kernels these rewrite a (rows, words) packed key array in
# place; block and qubit arguments are key positions.


def _majority_decode() -> np.ndarray:
    """Decoded position + 1 (0: none) of each 9-bit index holding three
    stored 3-bit syndromes, v0 | v1 << 3 | v2 << 6: the majority vote,
    with 0 where all three disagree."""
    i = np.arange(512)
    v0, v1, v2 = i & 7, i >> 3 & 7, i >> 6
    return np.where((v0 == v1) | (v0 == v2), v0, np.where(v1 == v2, v1, 0))


#: index -> decoded position + 1, per readout: a syndrome value names its
#: position directly, a stored triple decodes by majority
_DECODE = {"syndrome": np.arange(8), "majority": _majority_decode()}


@lru_cache(maxsize=_TABLE_CACHE)
def _label_tables(positions: tuple, label: int, decode: str) -> tuple:
    """(word, table) for each key word holding one of ``positions``:
    ``table[i]`` puts ``label`` on ``positions[j]`` where ``_DECODE[decode][i]``
    is j + 1 and that position lies in the word, else holds 0."""
    names = _DECODE[decode]
    tables: dict[int, np.ndarray] = {}
    for j, q in enumerate(positions):
        w, s = _slot(q)
        table = tables.setdefault(w, np.zeros(names.shape[0], dtype=_U64))
        table[names == j + 1] |= _U64(label) << _U64(s)
    for table in tables.values():
        table.setflags(write=False)
    return tuple(tables.items())


def _gather_x(keys: np.ndarray, positions: tuple) -> np.ndarray:
    """Per-entry index (``intp``) whose bit k is the X bit at ``positions[k]``."""
    index = np.zeros(keys.shape[0], dtype=_U64)
    moved = np.empty_like(index)
    for k, q in enumerate(positions):
        w, s = _slot(q)
        _shift_into(moved, keys[:, w], k - s)
        moved &= _U64(1 << k)
        index |= moved
    return index.view(np.intp)


def _popcount(keys: np.ndarray, positions: tuple, bits: int) -> np.ndarray:
    """Per-entry number of the label bits ``bits`` set at ``positions``:
    a popcount of each key word that holds them."""
    count = 0
    for w, m in _word_masks(positions, bits):
        count = count + np.bitwise_count(keys[:, w] & m)
    return count


def _parity_checks(keys: np.ndarray, block, shift: int = 0) -> list[np.ndarray]:
    """Per-entry 3-bit syndrome of the block's X (or, shifted, Z) component:
    check r is the parity of the component bits under row r of the check
    matrix."""
    return [_popcount(keys, tuple(q for q, on in zip(block, row) if on), 1 << shift) & 1
            for row in CHECK_MATRIX]


def verify_kernel(keys: np.ndarray, block, verifier: int) -> None:
    """Verification readout.

    Entries where the verifier carries an X component are the detected
    branch: their ancilla block is replaced by an error-free one (the
    retry-until-success model).  The verifier is cleared everywhere.
    """
    w, s = _slot(verifier)
    # all ones where the verifier carries no X component, else 0
    undetected = ((keys[:, w] >> _U64(s)) & _U64(1)) - _U64(1)
    for w, m in _word_masks(tuple(block), 3):
        keys[:, w] &= undetected | ~m
    clear_components_kernel(keys, (verifier,))


def syndrome_kernel(keys: np.ndarray, block) -> None:
    """Syndrome readout.

    The measured classical bits are the X components of the ancilla
    block; the three parity-check sums replace the block's state, stored
    as X labels at the block's first three positions.  Positions 3-6 are
    left at I in every row.
    """
    checks = _parity_checks(keys, block)
    clear_components_kernel(keys, block)
    for q, check in zip(block, checks):
        w, s = _slot(q)
        keys[:, w] |= np.left_shift(check, _U64(s), dtype=_U64)


def coset_reduce_kernel(keys: np.ndarray, block, basis: str) -> None:
    """Reduce the block's trivially-acting error component.

    For a logical-zero ancilla (basis "z") the Z patterns that act as
    the identity are exactly the kernel of the check matrix (Z
    stabilizers plus the trivial logical Z), so each entry's Z component
    collapses to the weight<=1 decode of its own syndrome; basis "x" is
    the same statement for X patterns on a logical-plus ancilla.  The
    complementary component only ever feeds the measured syndrome, which
    is invariant under stabilizer shifts, so it is left untouched.
    """
    if basis == "z":
        shift = 1  # Z component is the high bit of the 2-bit label
    elif basis == "x":
        shift = 0
    else:
        raise ValueError("basis must be 'z' or 'x', got %r" % (basis,))
    block = tuple(block)
    s0, s1, s2 = _parity_checks(keys, block, shift)
    # the syndrome 4 s0 + 2 s1 + s2 names the errored position plus one
    value = (s0 << 2 | s1 << 1 | s2).astype(np.intp)
    clear_components_kernel(keys, block, 1 << shift)
    for w, table in _label_tables(block, 1 << shift, "syndrome"):
        keys[:, w] |= table.take(value)


def correct_kernel(keys: np.ndarray, data, ancilla_blocks, phase: str) -> None:
    """Decode and apply the voted correction.

    The correction composes an X (bit phase) or Z (phase phase) onto the
    decoded data position of each entry: the majority of the three
    stored syndromes, none where all three disagree.  Each of
    ``ancilla_blocks`` starts with the three slots holding a stored
    syndrome; the listed positions are cleared for reuse.
    """
    if phase == "bit":
        label = int(Pauli.X)
    elif phase == "phase":
        label = int(Pauli.Z)
    else:
        raise ValueError("phase must be 'bit' or 'phase', got %r" % (phase,))
    # the 9-bit index v0 | v1 << 3 | v2 << 6, with v_b = 4 x0 + 2 x1 + x2
    # read from the X bits of block b's three slots
    index = _gather_x(keys, tuple(b[2 - k % 3] for b in ancilla_blocks for k in range(3)))
    flip = np.empty(index.shape[0], dtype=_U64)
    for w, table in _label_tables(tuple(data), label, "majority"):
        keys[:, w] ^= table.take(index, out=flip, mode="clip")
    clear_components_kernel(keys, [q for b in ancilla_blocks for q in b])


def correctable(keys: np.ndarray, blocks) -> np.ndarray:
    """Per-entry mask: every listed block carries at most one errored
    qubit, i.e. remains correctable.  Its complement is a crash."""
    # bit 2i is set where qubit i of the word carries X, Z or Y
    errored = keys >> _U64(1)
    errored |= keys
    ok = np.ones(keys.shape[0], dtype=bool)
    for block in blocks:
        ok &= _popcount(errored, tuple(block), 1) <= 1
    return ok


def surviving_mass(emap: ErrorMap, blocks) -> float:
    """Probability mass of a map's correctable entries."""
    return emap.mass_where(correctable, blocks)
