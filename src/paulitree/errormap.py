"""Error maps and the threshold-pruned evolution operations.

An error map is the current level of the error probability tree for one
set of qubits: an association from Pauli-string error states to
probabilities.
Keys are stored packed, 2 bits per qubit and 32 qubits per 64-bit word,
in a (entries, words) uint64 array alongside a float64 probability
vector, so events, gate transforms, merges and splits are all vectorized.
Local qubit index i of a set lives in word i // 32 at bit offset
2 * (i % 32); this matches the integer packing used by
:class:`~paulitree.pauli.PauliString`.

A map always holds its keys sorted in numeric order and distinct: the
constructor, :meth:`ErrorMap.apply` and inserts sort and sum any keys
that coincide, :func:`merge` builds its pairs in key order, and the
other operations keep the order.  Whole keys move as records of
a 1-D record view (``_rows``), one element per key, so gathers, filters
and inserts move a key as one element instead of fancy-indexing a 2-D
array.  An insert adds the batch's probabilities onto the keys already
present and scatters the new keys, with the old ones around them, into
fresh arrays, each new key at one destination index computed once.  A
1-D sort view (``_sort_view``) orders the records for sorting and
lookup.  A one-word key, a set of at most 32 qubits, is its own
``uint64`` column in both views; a wider key is a native-order void
record and sorts as a big-endian void view, most significant word first.
One outcome table, :func:`event_patterns`, defines the outcomes of every
event for both engines: outcome i puts the base-4 digits of i + 1 on the
event's positions, the analytical engine branches on every row and Monte
Carlo XORs in one row per faulted sample.

The ``*_kernel`` functions rewrite a packed key array in place: the gate
conjugations and ``clear_components_kernel`` here, the code readouts in
:mod:`~paulitree.qecc`.  They are the only implementation of the
deterministic steps and are shared by both engines: the analytical
engine runs them on a map's keys through :meth:`ErrorMap.apply`, the
Monte Carlo engine on its sampled rows.  ``clear_components_kernel`` is
the one clear: a ``Reset``, the readouts, and the analytical engine's
clears of the components no later readout can see.  A kernel makes a
few passes over whole key words: the gate kernels move a label bit with
one shift and mask into one scratch column and XOR it in place, and
every clear, parity count and verifier mask reads its per-word masks
from one cached table (``_word_masks``).  Only this module touches a
map's arrays.

The tree evolves by four moves, each one code path: events through
:meth:`ErrorMap.event_kernel`, key-permuting steps through
:meth:`ErrorMap.apply`, and the restructuring :func:`merge` and
:func:`split`.  The first two rewrite a map in place; the last two take
and return a :class:`QubitSet`, a map with the global IDs of its
qubits, the only place that type appears.  The tree is pruned in two
places, :meth:`ErrorMap.event_kernel` and :func:`merge`; at threshold 0
it prunes nothing.

Iteration order over entries is unspecified.  All operations accumulate
colliding keys by summation and are order-insensitive to within float64
summation noise (1e-9 budget over a whole program).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .pauli import PauliString

_U64 = np.uint64
# event pattern arrays kept, per (width, positions)
_PATTERN_CACHE = 8192
# word masks kept, per (positions, bits), and the readout decode tables of
# :mod:`~paulitree.qecc`, per argument tuple
_TABLE_CACHE = 1024


class MergeMode(Enum):
    """What happens to merged cross-product states below the merge threshold."""

    PRESERVATION = "preservation"
    LOSSY = "lossy"


@dataclass(frozen=True)
class Thresholds:
    """Pruning knobs for the probability tree. 0 disables a threshold."""

    event_branch: float = 0.0
    merge: float = 0.0
    merge_mode: MergeMode = MergeMode.PRESERVATION

    def __post_init__(self):
        for name in ("event_branch", "merge"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError("%s threshold must be in [0, 1], got %r" % (name, v))
        if not isinstance(self.merge_mode, MergeMode):
            raise ValueError("merge_mode must be a MergeMode")


def _nwords(width: int) -> int:
    return (width + 31) // 32


def _slot(q: int) -> tuple[int, int]:
    """(word, bit offset) of local qubit q."""
    return q // 32, 2 * (q % 32)


@lru_cache(maxsize=_TABLE_CACHE)
def _word_masks(positions: tuple, bits: int | tuple = 3) -> tuple:
    """(word, mask) for each key word holding one of ``positions``: the
    mask has the label bits ``bits`` (X 1, Z 2, both 3) of each, one value
    for every position or, as a tuple, one per position."""
    masks: dict[int, int] = {}
    for q, b in zip(positions, itertools.repeat(bits) if isinstance(bits, int) else bits):
        w, s = _slot(int(q))
        masks[w] = masks.get(w, 0) | int(b) << s
    return tuple((w, _U64(m)) for w, m in masks.items())


def _row_from_int(bits: int, nwords: int) -> np.ndarray:
    row = np.zeros(nwords, dtype=_U64)
    for w in range(nwords):
        row[w] = (bits >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return row

def _int_from_row(row: np.ndarray) -> int:
    bits = 0
    for w in range(row.shape[0]):
        bits |= int(row[w]) << (64 * w)
    return bits


def _sort_view(keys: np.ndarray) -> np.ndarray:
    """1-D array, one element per key, whose ordering equals numeric key order.

    A one-word key (a set of at most 32 qubits) is its own ``uint64``
    column, a view of ``keys``.  Wider keys become a big-endian void view
    (most significant word first) that compares like ``memcmp``.
    """
    if keys.shape[1] == 1:
        return keys[:, 0]
    be = np.ascontiguousarray(keys[:, ::-1]).astype(">u8")
    return be.view(np.dtype((np.void, be.shape[1] * 8))).ravel()


def _rows(keys: np.ndarray) -> np.ndarray:
    """1-D record view of a key array, one element per whole key, for
    moving keys: the ``uint64`` column of one-word keys, a
    ``void(8 * words)`` view (a contiguous copy if need be) of wider ones."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return np.ascontiguousarray(keys).view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def _unrows(rows: np.ndarray, nwords: int) -> np.ndarray:
    """The (rows, words) key array behind a contiguous record array, a view."""
    return rows.view(_U64).reshape(-1, nwords)


def _aggregate(keys: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum probabilities of duplicate keys; return sorted unique keys, a
    new C-contiguous array, and the entries' new probabilities."""
    v = _sort_view(keys)
    order = v.argsort(kind="stable")
    rows = _rows(keys).take(order)
    probs = probs.take(order)
    # a one-word key's sort view is its record
    v = rows if keys.shape[1] == 1 else v.take(order)
    new_group = np.empty(v.shape[0], dtype=bool)
    new_group[:1] = True
    new_group[1:] = v[1:] != v[:-1]
    if not new_group.all():
        # a group of one sums to itself, so this is skipped exactly
        starts = new_group.nonzero()[0]
        probs = np.add.reduceat(probs, starts)
        rows = rows.take(starts)
    keep = probs > 0.0
    if not keep.all():
        rows = rows[keep]
        probs = probs[keep]
    return _unrows(rows, keys.shape[1]), probs


def _scatter(base: np.ndarray, new: np.ndarray, dest: np.ndarray, old: np.ndarray
             ) -> np.ndarray:
    """A fresh array with ``new`` at the indices ``dest`` and ``base``, in
    order, at the indices where the mask ``old`` is set."""
    out = np.empty(old.shape[0], dtype=base.dtype)
    out[dest] = new
    out[old] = base
    return out


class ErrorMap:
    """Association from packed Pauli strings to probabilities for one set
    of qubits.

    Invariants: keys are sorted and distinct; probabilities are
    non-negative; the total stays within 1 + 1e-9 and equals 1 within
    that slack unless a lossy merge has discarded mass; all keys share
    the map's width.  The constructor sums the probabilities of repeated
    ``keys`` rows and drops entries whose probability is zero.
    """

    __slots__ = ("width", "_keys", "_probs", "_v")

    def __init__(self, width: int, keys: np.ndarray | None = None,
                 probs: np.ndarray | None = None):
        if width <= 0:
            raise ValueError("ErrorMap width must be positive")
        self.width = width
        if keys is None:
            keys = np.zeros((0, _nwords(width)), dtype=_U64)
            probs = np.zeros(0, dtype=np.float64)
        self._replace(*_aggregate(keys, probs))

    # -- construction / inspection ------------------------------------

    @classmethod
    def identity(cls, width: int) -> "ErrorMap":
        return cls.from_dict({PauliString.identity(width): 1.0})

    @classmethod
    def from_dict(cls, entries: Mapping, width: int | None = None) -> "ErrorMap":
        """Build from {PauliString or label text: probability}."""
        bits, probs = [], []
        for key, p in entries.items():
            if isinstance(key, str):
                key = PauliString.from_str(key)
            if width is None:
                width = key.n
            elif key.n != width:
                raise ValueError("mixed key widths: %d vs %d" % (key.n, width))
            if not 0.0 <= p < math.inf:
                raise ValueError("probability must be finite and non-negative, got %r" % (p,))
            bits.append(key.bits)
            probs.append(p)
        if width is None:
            raise ValueError("cannot infer width from empty entries")
        nw = _nwords(width)
        keys = np.array([_row_from_int(b, nw) for b in bits], dtype=_U64).reshape(-1, nw)
        return cls(width, keys, np.array(probs, dtype=np.float64))

    def copy(self) -> "ErrorMap":
        """An independent map with the same entries."""
        out = ErrorMap(self.width)
        out._replace(self._keys.copy(), self._probs.copy())
        return out

    def __len__(self) -> int:
        return self._keys.shape[0]

    def total(self) -> float:
        return float(self._probs.sum())

    def items(self) -> Iterator[tuple[PauliString, float]]:
        for row, p in zip(self._keys, self._probs):
            yield PauliString(_int_from_row(row), self.width), float(p)

    def mass_where(self, mask_kernel: Callable[..., np.ndarray], *args) -> float:
        """Probability of the entries selected by the per-key boolean
        ``mask_kernel(keys, *args)``."""
        return float(self._probs[mask_kernel(self._keys, *args)].sum())

    def dump(self) -> str:
        """One line per entry: ``<string>\\t<probability>``, sorted by string.

        Probabilities are printed in scientific notation with 17
        significant digits; the format is stable for golden-file tests.
        """
        lines = [
            "%s\t%.16e" % (str(s), p)
            for s, p in sorted(self.items(), key=lambda kv: str(kv[0]))
        ]
        return "\n".join(lines)

    # -- internal bookkeeping -----------------------------------------

    def _view(self) -> np.ndarray:
        if self._v is None:
            self._v = _sort_view(self._keys)
        return self._v

    def _replace(self, keys: np.ndarray, probs: np.ndarray) -> None:
        """Take sorted unique keys and their probabilities."""
        self._keys = keys
        self._probs = probs
        self._v = None

    def _insert(self, keys: np.ndarray, probs: np.ndarray) -> None:
        """Accumulate a (possibly duplicated) batch of entries."""
        keys, probs = _aggregate(keys, probs)
        if keys.shape[0] == 0:
            return
        v = _sort_view(keys)
        base_v = self._view()
        pos = base_v.searchsorted(v)
        if base_v.shape[0]:
            # pos == len(base) means v is above every base key, so the
            # clipped read (the last key) cannot equal it
            hit = base_v.take(pos, mode="clip") == v
        else:
            hit = np.zeros(v.shape[0], dtype=bool)
        if hit.any():
            self._probs[pos[hit]] += probs[hit]
        miss = ~hit
        if miss.any():
            # each new key's index in the result: where it lands, moved up
            # by the new keys before it
            dest = pos[miss]
            dest += np.arange(dest.shape[0])
            old = np.ones(base_v.shape[0] + dest.shape[0], dtype=bool)
            old[dest] = False
            rows = _scatter(_rows(self._keys), _rows(keys)[miss], dest, old)
            self._keys = _unrows(rows, keys.shape[1])
            self._probs = _scatter(self._probs, probs[miss], dest, old)
            # a one-word map's view is its key column: nothing to keep
            self._v = None if keys.shape[1] == 1 else _scatter(base_v, v[miss], dest, old)

    # -- evolution (in place) -----------------------------------------

    def event_kernel(self, patterns: np.ndarray, f: float, event_branch: float,
                     weights: np.ndarray | None = None) -> None:
        """Stochastic event: each entry at or above the branch threshold
        contributes (s, p*(1-f)), dropped when f = 1, plus
        (s ^ pattern i, p*weights[i]) for the k branch patterns;
        below-threshold entries pass through unchanged.  ``weights`` are
        the outcome probabilities, non-negative and summing to ``f``
        within 1e-12 (ValueError otherwise); the default is f/k each.  A
        pattern of weight zero is not branched on.  Total probability is
        conserved exactly.
        """
        check_event_probability(f)
        k = patterns.shape[0]
        if weights is None:
            weights = np.full(k, f / k)
        if weights.shape != (k,) or not (weights >= 0.0).all():
            raise ValueError("event weights must be %d non-negative probabilities" % k)
        if not abs(weights.sum() - f) <= 1e-12:
            raise ValueError("event weights sum to %r, not f = %r" % (weights.sum(), f))
        if f == 0.0:
            return
        if not weights.all():
            # a zero-weight outcome adds only zero entries, which would
            # still move how _aggregate's sums round
            live = weights > 0.0
            patterns, weights, k = patterns[live], weights[live], int(live.sum())
        probs = self._probs
        idx = (probs >= event_branch).nonzero()[0]
        src_keys = self._keys.take(idx, axis=0)
        # pattern-major rows: every source XOR pattern 0, then pattern 1, ...
        branch_keys = (src_keys[None] ^ patterns[:, None]).reshape(-1, src_keys.shape[1])
        branch_probs = np.empty((k, idx.shape[0]))
        np.multiply(weights[:, None], probs[idx], out=branch_probs)
        probs[idx] *= 1.0 - f
        if f == 1.0:
            # every branched source is left at zero: drop them
            live = probs > 0.0
            self._replace(self._keys[live], probs[live])
        self._insert(branch_keys, branch_probs.reshape(-1))

    def apply(self, *calls: tuple) -> None:
        """Rewrite every key with a run of kernels: for each
        ``(kernel, *args)`` of ``calls`` in order, ``kernel(keys, *args)``
        in place.  Then sort the keys once and sum any that the run
        mapped onto one.
        """
        for kernel, *args in calls:
            kernel(self._keys, *args)
        self._replace(*_aggregate(self._keys, self._probs))


# -- key-array kernels -------------------------------------------------
#
# Each takes a (rows, words) packed key array and rewrites it in place.
# Positions are the key positions of the qubits involved: local indices
# in an error map, global qubit IDs in a Monte Carlo sample.


def _shift_into(out: np.ndarray, col: np.ndarray, by: int) -> np.ndarray:
    """``col`` shifted left by ``by`` bits, right for a negative ``by``,
    written into ``out``."""
    if by >= 0:
        return np.left_shift(col, _U64(by), out=out)
    return np.right_shift(col, _U64(-by), out=out)


def hadamard_kernel(keys: np.ndarray, q: int) -> None:
    """Conjugate by a Hadamard: X and Z swap, I and Y (HYH = -Y, phase
    discarded) are fixed, by flipping both component bits where they differ."""
    w, s = _slot(q)
    col = keys[:, w]
    d = col >> _U64(1)
    d ^= col
    d &= _U64(1) << _U64(s)  # x ^ z, at the X bit
    d *= _U64(3)  # and at the Z bit
    col ^= d


def cnot_kernel(keys: np.ndarray, control: int, target: int) -> None:
    """Conjugate by a CNOT: the control's X component composes onto the
    target and the target's Z component onto the control."""
    wc, sc = _slot(control)
    wt, st = _slot(target)
    col_c, col_t = keys[:, wc], keys[:, wt]
    moved = np.empty_like(col_c)
    _shift_into(moved, col_c, st - sc)
    moved &= _U64(1) << _U64(st)
    col_t ^= moved
    _shift_into(moved, col_t, sc - st)
    moved &= _U64(2) << _U64(sc)
    col_c ^= moved


def clear_components_kernel(keys: np.ndarray, positions: Iterable[int],
                            bits: int | Iterable[int] = 3) -> None:
    """Clear one or both components at each position: its X bit where
    ``bits`` has 1, its Z bit where it has 2, both by default.  ``bits`` is
    one value for every position or one per position.  Resets and the
    readouts project positions to I with it, and the analytical engine
    clears the components no later readout can see (see
    :mod:`~paulitree.engine`).  Only the key words that hold a position
    are touched."""
    for w, m in _word_masks(tuple(positions), bits if isinstance(bits, int) else tuple(bits)):
        keys[:, w] &= ~m


def _check_positions(width: int, *qubits: int) -> None:
    for q in qubits:
        if not 0 <= q < width:
            raise IndexError("qubit %d out of range for width %d" % (q, width))


def check_event_probability(f: float) -> None:
    """ValueError unless the event probability ``f`` lies in [0, 1]."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("event probability must be in [0, 1], got %r" % (f,))


@lru_cache(maxsize=_PATTERN_CACHE)
def event_patterns(width: int, *positions: int) -> np.ndarray:
    """XOR patterns of the 4**n - 1 non-identity outcomes of an event on
    n key ``positions``: outcome i puts the base-4 digits of i + 1 on the
    positions, most significant first, so labels X, Z, Y at one position
    and divmod(i + 1, 4) on a pair.  Cached per width and positions and
    read-only, so no caller can corrupt the patterns of a later event.
    ValueError for a repeated position, where some outcomes would be the
    identity."""
    _check_positions(width, *positions)
    n = len(positions)
    if len(set(positions)) < n:
        raise ValueError("event positions must differ, got %r" % (positions,))
    outcomes = np.arange(1, 4 ** n, dtype=_U64)
    pats = np.zeros((outcomes.shape[0], _nwords(width)), dtype=_U64)
    for j, q in enumerate(positions):
        w, s = _slot(q)
        pats[:, w] |= ((outcomes >> _U64(2 * (n - 1 - j))) & _U64(3)) << _U64(s)
    pats.setflags(write=False)
    return pats


@dataclass(frozen=True)
class QubitSet:
    """A group of physical qubit IDs plus its error map: what :func:`merge`
    and :func:`split` take and return.

    ``members[i]`` is the global ID tracked at local key position i.
    The engine's :class:`~paulitree.engine.Partition` keeps the groups
    disjoint.
    """

    members: tuple[int, ...]
    map: ErrorMap = field(repr=False)

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate qubit IDs in QubitSet")
        if self.map.width != len(self.members):
            raise ValueError(
                "map width %d does not match %d members"
                % (self.map.width, len(self.members))
            )


def _collapsed(p: np.ndarray, p_other: np.ndarray, cut: np.ndarray, tie: str,
               order: np.ndarray) -> np.ndarray:
    """Mass each state of one side keeps in a preservation merge, in key
    order.  ``p = probs[order]`` and ``p_other`` descend; state i pairs at
    or above the threshold with the first ``cut[i]`` other states, and
    below it keeps each pair where it is the more probable state
    (``tie``, a ``searchsorted`` side: "right" keeps equal pairs)."""
    suffix = np.concatenate([np.cumsum(p_other[::-1])[::-1], [0.0]])
    tie_at = p_other.shape[0] - np.searchsorted(p_other[::-1], p, side=tie)
    val = np.empty_like(p)
    val[order] = p * suffix[np.maximum(cut, tie_at)]
    return val


def merge(a: QubitSet, b: QubitSet, th: Thresholds) -> QubitSet:
    """Merge two disjoint QubitSets into one.

    The merged states are the cross product of the inputs' states.  A
    pair whose product probability is at or above the merge threshold is
    emitted as the concatenated string.  Below the threshold,
    preservation mode zeroes the labels of the less probable input state
    (ties zero the state from b) and keeps the mass; lossy mode discards
    the pair.  Preservation conserves total probability; lossy mass loss
    is visible through the output's total.  At threshold 0 every pair is
    emitted, and an empty input (a lossy merge can leave one) gives an
    empty map of the summed width.

    The pairs at or above the threshold are built in key order, with no
    sort over them.  The below-threshold pairs are collapsed per side
    without enumerating them (:func:`_collapsed`) and inserted, a's
    before b's, so every key sums in the order pair, a-state, b-state.
    """
    if set(a.members) & set(b.members):
        raise ValueError("cannot merge overlapping QubitSets")
    width = a.map.width + b.map.width

    # by descending probability: only the sorted values matter, not ties
    order_a = np.argsort(-a.map._probs)
    pa = a.map._probs[order_a]
    order_b = np.argsort(-b.map._probs)
    pb = b.map._probs[order_b]

    # pairs (i, j < k[i]) are at or above the merge threshold; at
    # threshold 0 that is every pair
    k = pb.shape[0] - np.searchsorted(pb[::-1], th.merge / pa, side="left")

    # b's labels sit above a's, so pairs in (b key rank, a key rank)
    # order are in key order, and distinct since each side's keys are
    j_idx = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    ranks = order_b.take(j_idx) * pa.shape[0] + np.repeat(order_a, k)
    ranks.sort()
    rb, ra = np.divmod(ranks, pa.shape[0])
    ka = _gather_positions(a.map._keys, range(a.map.width), width)
    kb = _gather_positions(b.map._keys, range(b.map.width), width, a.map.width)
    probs = a.map._probs.take(ra) * b.map._probs.take(rb)
    keep = probs > 0.0  # products that underflow
    out = ErrorMap(width)
    out._replace(ka.take(ra[keep], axis=0) | kb.take(rb[keep], axis=0), probs[keep])

    if th.merge_mode is MergeMode.PRESERVATION:
        # transpose of k: #{i: k_i > j}; k is nonincreasing because pa
        # is sorted descending, so this matches the emission's
        # above/below classification bit for bit
        k_b = np.searchsorted(-k, -(np.arange(pb.shape[0]) + 1), side="right")
        for keys, val in ((ka, _collapsed(pa, pb, k, "right", order_a)),
                          (kb, _collapsed(pb, pa, k_b, "left", order_b))):
            live = val > 0.0
            out._insert(keys[live], val[live])
    # lossy mode: below-threshold pairs are simply dropped
    return QubitSet(a.members + b.members, out)


def _gather_positions(keys: np.ndarray, positions: Iterable[int], width_out: int,
                      offset: int = 0) -> np.ndarray:
    """Keys moved to new positions: the label at ``positions[j]`` moves to
    position ``offset + j`` of a ``width_out`` key, all others are I.
    :func:`split` reduces keys to a subset of their positions with it and
    :func:`merge` places each side's keys in the merged layout.  Each run
    of consecutive positions inside one source word and one output word
    moves with one mask and one shift."""
    runs = []  # [first position, first output index, length]
    for j, q in enumerate(positions, offset):
        if runs and q == runs[-1][0] + runs[-1][2] and q % 32 and j % 32:
            runs[-1][2] += 1
        else:
            runs.append([q, j, 1])
    out = np.zeros((keys.shape[0], _nwords(width_out)), dtype=_U64)
    for q, j, n in runs:
        w, s = _slot(q)
        wj, sj = _slot(j)
        bits = keys[:, w] & _U64(((1 << 2 * n) - 1) << s)
        out[:, wj] |= bits << _U64(sj - s) if sj >= s else bits >> _U64(s - sj)
    return out


def split(qs: QubitSet, keep: Iterable[int]) -> tuple[QubitSet, QubitSet]:
    """Partition a QubitSet into (keep, complement), marginalizing each side.

    The marginal probability of a reduced string is the sum over input
    entries that project to it; no thresholds apply.  Joint correlation
    between the two sides is lost by design.

    The keep side is renormalized to unit total and the complement
    retains the input's total, so the machine-wide product of set totals
    is unchanged by a split.  (Totals drift below one under pruning and
    float rounding; without renormalization every split would double
    that deficit, compounding exponentially over repeated ancilla
    split/re-merge cycles.)
    """
    keep_set = set(keep)
    keep_list = sorted(keep_set)
    if not keep_list:
        raise ValueError("keep set must be non-empty")
    if any(q < 0 or q >= qs.map.width for q in keep_list):
        raise IndexError("keep indices out of range")
    rest = [q for q in range(qs.map.width) if q not in keep_set]
    if not rest:
        raise ValueError("keep set must be a proper subset")
    sides = []
    for positions in (keep_list, rest):
        m = ErrorMap(len(positions), _gather_positions(qs.map._keys, positions, len(positions)),
                     qs.map._probs)
        sides.append(QubitSet(tuple(qs.members[q] for q in positions), m))
    keep_total = sides[0].map._probs.sum()
    if keep_total > 0.0:
        sides[0].map._probs /= keep_total
    return sides[0], sides[1]
