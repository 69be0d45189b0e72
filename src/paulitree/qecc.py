"""Steane [[7,1,3]] code machinery: recovery circuits and readout kernels.

The code stores one logical qubit in a 7-qubit block and corrects any
single-qubit error.  Recovery runs in two sequential phases: the *bit*
phase detects and corrects X errors, the *phase* phase Z errors (a Y
counts in both).  Each phase prepares three verified logical-ancilla
blocks, extracts the syndrome into each, majority-votes the three
syndromes, and applies the decoded single-qubit correction, so that a
faulty ancilla or measurement cannot outvote two good extractions.

``build_recovery`` emits the full cycle-level circuit onto a
:class:`~paulitree.program.Schedule`.  The ``*_kernel`` functions are
the deterministic transformations behind the readout tasks, written on
packed (rows, words) key arrays like the gate kernels of
:mod:`~paulitree.errormap`; ``correctable`` is the per-row crash
observable.  Both engines share them: the analytical engine applies
them to an error map's keys, the Monte Carlo engine to its sampled
strings.
"""

from __future__ import annotations

import math

import numpy as np

# program's step table names the kernels below, so this module reads the
# step classes as ``program.X`` when it emits them, not at import time
from . import program
from .errormap import ErrorMap, _clear_mask, _nwords, _row_from_int, _slot
from .pauli import Pauli, PauliString

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


# -- circuit emission ----------------------------------------------------


def prepare_ancilla(sched: program.Schedule, block: tuple[int, ...], basis: str) -> None:
    """Encode a fresh logical ancilla in ``block``.

    ``basis`` "z" leaves the logical zero; "x" appends a transversal
    Hadamard for the logical plus state used by phase-error extraction.
    """
    sched.cycle(resets=block)
    sched.cycle(hadamards=[block[i] for i in ENCODER_HADAMARDS])
    for pairs in ENCODER_CNOT_CYCLES:
        sched.cycle(cnots=[(block[c], block[t]) for c, t in pairs])
    if basis == "x":
        sched.cycle(hadamards=block)
    elif basis != "z":
        raise ValueError("basis must be 'z' or 'x', got %r" % (basis,))


def verify_ancilla(sched: program.Schedule, block: tuple[int, ...], verifier: int,
                   basis: str) -> None:
    """Check the ancilla block for the error type that would propagate
    into the data during extraction, reusing one verifier qubit to
    measure the three parity checks of that type in sequence.

    A "z" ancilla is the extraction CNOT's target, so its Z errors copy
    back onto the data: per check row, the verifier starts in the plus
    state, controls a CNOT onto each row qubit to collect their Z
    parity, and is Hadamard-ed back for readout.  An "x" ancilla is the
    control, so its X errors copy forward: row-to-verifier CNOTs collect
    the X parity directly.  Measuring the full syndrome rather than one
    overall parity keeps the check distance-3, so every weight-1 or -2
    dangerous error from a single preparation fault is caught.  (Errors
    of the other type only corrupt this block's measured syndrome, which
    the three-way majority vote absorbs.)  A detected fault discards the
    block for a fresh one.
    """
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x', got %r" % (basis,))
    for row in CHECK_MATRIX:
        checked = [block[j] for j in range(7) if row[j]]
        sched.cycle(resets=[verifier])
        if basis == "z":
            sched.cycle(hadamards=[verifier])
            for q in checked:
                sched.cycle(cnots=[(verifier, q)])
            sched.cycle(hadamards=[verifier])
        else:
            for q in checked:
                sched.cycle(cnots=[(q, verifier)])
        sched.cycle(measures=[verifier])
        sched.task(program.VerifyReadout(tuple(block), verifier))


def extract_syndrome(sched: program.Schedule, data: tuple[int, ...],
                     block: tuple[int, ...], phase: str, slot: int) -> None:
    """Copy the data block's errors of one kind onto the ancilla and
    measure it, leaving the 3-bit syndrome stored in the block.

    The coset reduction beforehand removes accumulated ancilla error
    patterns that act trivially on the encoded ancilla state (stabilizer
    and trivial-logical combinations); physically those never existed,
    and without the reduction they would be wrongly copied into the data
    block by the extraction CNOTs.
    """
    if phase == "bit":
        sched.task(program.CosetReduce(tuple(block), "z"))
        sched.cycle(cnots=list(zip(data, block)))
    elif phase == "phase":
        sched.task(program.CosetReduce(tuple(block), "x"))
        sched.cycle(cnots=list(zip(block, data)))
        sched.cycle(hadamards=block)
    else:
        raise ValueError("phase must be 'bit' or 'phase', got %r" % (phase,))
    sched.cycle(measures=block)
    sched.task(program.SyndromeMeasure(tuple(block), slot))


def apply_correction(sched: program.Schedule, data: tuple[int, ...],
                     ancilla_blocks: tuple[tuple[int, ...], ...], phase: str) -> None:
    """Majority-vote the three stored syndromes and correct the data block.

    The classical decode and the conditional corrective pulse occupy one
    cycle; the correction itself is modeled error-free (its imprecision
    is far below the decoherence accrued while decoding).
    """
    sched.cycle()
    sched.task(program.Correct(tuple(data), tuple(tuple(b) for b in ancilla_blocks), phase))


def build_recovery(sched: program.Schedule, data: tuple[int, ...],
                   ancilla_blocks: tuple[tuple[int, ...], ...], verifier: int) -> None:
    """Full fault-tolerant recovery of one data block: bit phase then
    phase phase, three verified syndrome extractions each.  Recovery is
    local, so it carries no transport."""
    for phase, basis in (("bit", "z"), ("phase", "x")):
        for slot, block in enumerate(ancilla_blocks):
            prepare_ancilla(sched, block, basis)
            verify_ancilla(sched, block, verifier, basis)
            extract_syndrome(sched, data, block, phase, slot)
        apply_correction(sched, data, ancilla_blocks, phase)


# -- readout kernels ------------------------------------------------------
#
# Like the gate kernels these rewrite a (rows, words) packed key array in
# place; block and qubit arguments are key positions.


def _xbits(keys: np.ndarray, q: int, shift: int = 0) -> np.ndarray:
    """Per-entry X component (bit 0 of the 2-bit label) at position q, or
    the Z component (bit 1) with ``shift`` 1."""
    w, s = _slot(q)
    return (keys[:, w] >> _U64(s + shift)) & _U64(1)


def _parity_checks(keys: np.ndarray, block, shift: int = 0) -> list[np.ndarray]:
    """Per-entry 3-bit syndrome of the block's X (or, shifted, Z) component."""
    bits = [_xbits(keys, q, shift) for q in block]
    return [
        np.bitwise_xor.reduce([bits[j] for j in range(7) if CHECK_MATRIX[r, j]])
        for r in range(3)
    ]


def verify_kernel(keys: np.ndarray, block, verifier: int) -> None:
    """Verification readout.

    Entries where the verifier carries an X component are the detected
    branch: their ancilla block is replaced by an error-free one (the
    retry-until-success model).  The verifier is cleared everywhere.
    """
    detected = _xbits(keys, verifier) != 0
    if detected.any():
        keys[detected] &= _clear_mask(keys.shape[1], block)
    keys &= _clear_mask(keys.shape[1], [verifier])


def syndrome_kernel(keys: np.ndarray, block) -> None:
    """Syndrome readout.

    The measured classical bits are the X components of the ancilla
    block; the three parity-check sums replace the block's state, stored
    as X labels at the block's first three positions.
    """
    syndrome = _parity_checks(keys, block)
    keys &= _clear_mask(keys.shape[1], block)
    for r in range(3):
        w, s = _slot(block[r])
        keys[:, w] |= syndrome[r] << _U64(s)


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
    syndrome = _parity_checks(keys, block, shift)
    value = (4 * syndrome[0] + 2 * syndrome[1] + syndrome[2]).astype(np.int64)
    for j, q in enumerate(block):
        w, s = _slot(q)
        keys[:, w] &= ~(_U64(1) << _U64(s + shift))
        hit = value == j + 1
        if hit.any():
            keys[hit, w] |= _U64(1) << _U64(s + shift)


def _majority_syndrome(keys: np.ndarray, blocks) -> np.ndarray:
    """Per-entry majority vote over the three stored 3-bit syndromes;
    entries with three-way disagreement vote 0 (no correction)."""
    vals = []
    for block in blocks:
        v = (
            4 * _xbits(keys, block[0])
            + 2 * _xbits(keys, block[1])
            + _xbits(keys, block[2])
        )
        vals.append(v.astype(np.int64))
    v0, v1, v2 = vals
    return np.where(
        (v0 == v1) | (v0 == v2), v0, np.where(v1 == v2, v1, 0)
    )


def correct_kernel(keys: np.ndarray, data, ancilla_blocks, phase: str) -> None:
    """Decode and apply the voted correction.

    The correction composes an X (bit phase) or Z (phase phase) onto the
    decoded data position of each entry; the spent ancilla blocks are
    cleared for reuse.
    """
    if phase == "bit":
        label = int(Pauli.X)
    elif phase == "phase":
        label = int(Pauli.Z)
    else:
        raise ValueError("phase must be 'bit' or 'phase', got %r" % (phase,))
    maj = _majority_syndrome(keys, ancilla_blocks)
    for pos in range(7):
        hit = maj == pos + 1
        if hit.any():
            w, s = _slot(data[pos])
            keys[hit, w] ^= _U64(label) << _U64(s)
    keys &= _clear_mask(keys.shape[1], [q for b in ancilla_blocks for q in b])


def correctable(keys: np.ndarray, blocks) -> np.ndarray:
    """Per-entry mask: every listed block carries at most one errored
    qubit, i.e. remains correctable.  Its complement is a crash."""
    ok = np.ones(keys.shape[0], dtype=bool)
    for block in blocks:
        weight = np.zeros(keys.shape[0], dtype=np.int64)
        for q in block:
            w, s = _slot(q)
            weight += ((keys[:, w] >> _U64(s)) & _U64(3)) != 0
        ok &= weight <= 1
    return ok


def surviving_mass(emap: ErrorMap, blocks) -> float:
    """Probability mass of a map's correctable entries."""
    return emap.mass_where(correctable, blocks)


def classify_crash(state: PauliString, blocks: list[list[int]]) -> bool:
    """True when some block carries more than one errored qubit."""
    keys = _row_from_int(state.bits, _nwords(state.n))[None, :]
    return not correctable(keys, blocks)[0]
