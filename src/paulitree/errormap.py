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

A map keeps its keys sorted in numeric order, except right after
:meth:`ErrorMap.apply`, which leaves them as the kernel wrote them: the
next operation that reads the map sorts them and sums any two the
kernel mapped onto one.  Sorting and lookup go
through a 1-D sort view (``_sort_view``): a one-word key, a set of at
most 32 qubits, sorts as its own ``uint64`` column; a wider key as a
big-endian void view, most significant word first.  The event outcome
patterns (``one_qubit_patterns``, ``two_qubit_patterns``) define each
event's outcomes once for both engines: outcome i is label i + 1, the
analytical engine branches on every row and Monte Carlo XORs in one row
per faulted sample.  They are cached per width and positions and
returned read-only.

The ``*_kernel`` functions rewrite a packed key array in place: the gate
conjugations and ``clear_kernel`` here, the code readouts in
:mod:`~paulitree.qecc`.  They are the only implementation of the
deterministic steps and are shared by both engines: the analytical
engine runs them on a map's keys through :meth:`ErrorMap.apply`, the
Monte Carlo engine on its sampled rows.  Only this module touches a
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

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .pauli import PauliString

_U64 = np.uint64
# event pattern arrays kept, per (width, positions)
_PATTERN_CACHE = 4096


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


def _clear_mask(nwords: int, positions: Iterable[int]) -> np.ndarray:
    """Word mask that is 0 at the 2 label bits of every listed position."""
    mask = np.full(nwords, ~_U64(0), dtype=_U64)
    for q in positions:
        w, s = _slot(q)
        mask[w] &= ~(_U64(3) << _U64(s))
    return mask


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


def _aggregate(keys: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum probabilities of duplicate keys; return sorted unique keys."""
    if keys.shape[0] == 0:
        return keys, probs
    v = _sort_view(keys)
    order = v.argsort(kind="stable")
    v = v[order]
    keys = keys[order]
    probs = probs[order]
    new_group = np.empty(keys.shape[0], dtype=bool)
    new_group[0] = True
    new_group[1:] = v[1:] != v[:-1]
    starts = new_group.nonzero()[0]
    probs = np.add.reduceat(probs, starts)
    keys = keys[starts]
    keep = probs > 0.0
    if not keep.all():
        keys = keys[keep]
        probs = probs[keep]
    return np.ascontiguousarray(keys), probs


class ErrorMap:
    """Association from packed Pauli strings to probabilities for one set
    of qubits.

    Invariants: probabilities are non-negative; the total stays within
    1 + 1e-9 and equals 1 within that slack unless a lossy merge has
    discarded mass; all keys share the map's width.  Entries whose
    probability underflows to zero are dropped.
    """

    __slots__ = ("width", "_keys", "_probs", "_v", "_dirty")

    def __init__(self, width: int, keys: np.ndarray | None = None,
                 probs: np.ndarray | None = None):
        if width <= 0:
            raise ValueError("ErrorMap width must be positive")
        self.width = width
        nw = _nwords(width)
        if keys is None:
            keys = np.zeros((0, nw), dtype=_U64)
            probs = np.zeros(0, dtype=np.float64)
        self._keys = keys
        self._probs = probs
        self._v: np.ndarray | None = None
        self._dirty = True

    # -- construction / inspection ------------------------------------

    @classmethod
    def identity(cls, width: int) -> "ErrorMap":
        return cls.from_dict({PauliString.identity(width): 1.0})

    @classmethod
    def from_dict(cls, entries: Mapping, width: int | None = None) -> "ErrorMap":
        """Build from {PauliString or label text: probability}."""
        converted: dict[int, float] = {}
        for key, p in entries.items():
            if isinstance(key, str):
                key = PauliString.from_str(key)
            if width is None:
                width = key.n
            elif key.n != width:
                raise ValueError("mixed key widths: %d vs %d" % (key.n, width))
            if p < 0:
                raise ValueError("negative probability %r" % (p,))
            converted[key.bits] = converted.get(key.bits, 0.0) + p
        if width is None:
            raise ValueError("cannot infer width from empty entries")
        nw = _nwords(width)
        kept = {k: v for k, v in converted.items() if v > 0.0}
        keys = np.zeros((len(kept), nw), dtype=_U64)
        for i, bits in enumerate(kept):
            keys[i] = _row_from_int(bits, nw)
        return cls(width, keys, np.fromiter(kept.values(), dtype=np.float64, count=len(kept)))

    def __len__(self) -> int:
        self._ensure_ready()
        return self._keys.shape[0]

    def total(self) -> float:
        self._ensure_ready()
        return float(self._probs.sum())

    def items(self) -> Iterator[tuple[PauliString, float]]:
        self._ensure_ready()
        for row, p in zip(self._keys, self._probs):
            yield PauliString(_int_from_row(row), self.width), float(p)

    def mass_where(self, mask_kernel: Callable[..., np.ndarray], *args) -> float:
        """Probability of the entries selected by the per-key boolean
        ``mask_kernel(keys, *args)``."""
        self._ensure_ready()
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

    def _ensure_ready(self) -> None:
        """Sort the keys and sum duplicates, if :meth:`apply` left any."""
        if self._dirty:
            self._keys, self._probs = _aggregate(self._keys, self._probs)
            self._v = None
            self._dirty = False

    def _replace(self, keys: np.ndarray, probs: np.ndarray) -> None:
        """Take sorted unique keys and their probabilities."""
        self._keys = keys
        self._probs = probs
        self._v = None
        self._dirty = False

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
            where = pos[miss]
            self._keys = np.insert(self._keys, where, keys[miss], axis=0)
            self._probs = np.insert(self._probs, where, probs[miss])
            # a one-word map's view is its key column: nothing to keep
            self._v = None if keys.shape[1] == 1 else np.insert(base_v, where, v[miss])

    # -- evolution (in place) -----------------------------------------

    def event_kernel(self, patterns: np.ndarray, f: float, event_branch: float,
                     weights: np.ndarray | None = None) -> None:
        """Stochastic event: each entry at or above the branch threshold
        contributes (s, p*(1-f)), dropped when f = 1, plus
        (s ^ pattern i, p*weights[i]) for the k branch patterns;
        below-threshold entries pass through unchanged.  ``weights`` are
        the outcome probabilities, non-negative and summing to ``f``
        within 1e-12 (ValueError otherwise); the default is f/k each.
        Total probability is conserved exactly.
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
        self._ensure_ready()
        probs = self._probs
        idx = (probs >= event_branch).nonzero()[0]
        src_keys = self._keys[idx]
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

    def apply(self, kernel: Callable[..., None], *args) -> None:
        """Rewrite every key in place with ``kernel(keys, *args)``.

        The map is left unsorted; the next operation that reads it sorts
        the keys and sums any two that the kernel mapped onto one.
        """
        kernel(self._keys, *args)
        self._v = None
        self._dirty = True


# -- key-array kernels -------------------------------------------------
#
# Each takes a (rows, words) packed key array and rewrites it in place.
# Positions are the key positions of the qubits involved: local indices
# in an error map, global qubit IDs in a Monte Carlo sample.


def hadamard_kernel(keys: np.ndarray, q: int) -> None:
    """Conjugate by a Hadamard: X and Z swap, I and Y (HYH = -Y, phase
    discarded) are fixed, by flipping both component bits where they differ."""
    w, s = _slot(q)
    col = keys[:, w]
    x = (col >> _U64(s)) & _U64(1)
    z = (col >> _U64(s + 1)) & _U64(1)
    d = x ^ z
    keys[:, w] = col ^ ((d << _U64(s)) | (d << _U64(s + 1)))


def cnot_kernel(keys: np.ndarray, control: int, target: int) -> None:
    """Conjugate by a CNOT: the control's X component composes onto the
    target and the target's Z component onto the control."""
    wc, sc = _slot(control)
    wt, st = _slot(target)
    xc = (keys[:, wc] >> _U64(sc)) & _U64(1)
    keys[:, wt] ^= xc << _U64(st)
    zt = (keys[:, wt] >> _U64(st + 1)) & _U64(1)
    keys[:, wc] ^= zt << _U64(sc + 1)


def clear_kernel(keys: np.ndarray, positions: Iterable[int]) -> None:
    """Project the given positions to I (measurement/reset bookkeeping)."""
    keys &= _clear_mask(keys.shape[1], positions)


def _check_positions(width: int, *qubits: int) -> None:
    for q in qubits:
        if not 0 <= q < width:
            raise IndexError("qubit %d out of range for width %d" % (q, width))


def check_event_probability(f: float) -> None:
    """ValueError unless the event probability ``f`` lies in [0, 1]."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("event probability must be in [0, 1], got %r" % (f,))


@lru_cache(maxsize=_PATTERN_CACHE)
def one_qubit_patterns(width: int, q: int) -> np.ndarray:
    """XOR patterns of the three equally likely outcomes X, Z, Y at q:
    outcome i is label i + 1, as in :func:`two_qubit_patterns`.

    Cached per (width, q) and read-only, so no caller can corrupt the
    patterns of a later event."""
    _check_positions(width, q)
    pats = np.zeros((3, _nwords(width)), dtype=_U64)
    w, s = _slot(q)
    pats[:, w] = np.arange(1, 4, dtype=_U64) << _U64(s)
    pats.setflags(write=False)
    return pats


@lru_cache(maxsize=_PATTERN_CACHE)
def two_qubit_patterns(width: int, q1: int, q2: int) -> np.ndarray:
    """XOR patterns of the fifteen non-identity two-qubit outcomes:
    outcome i puts labels divmod(i + 1, 4) on (q1, q2).  Cached and
    read-only, like :func:`one_qubit_patterns`.  ValueError if q1 == q2,
    where three outcomes would be the identity."""
    _check_positions(width, q1, q2)
    if q1 == q2:
        raise ValueError("two-qubit event operands must differ, got %d twice" % q1)
    pats = np.zeros((15, _nwords(width)), dtype=_U64)
    w1, s1 = _slot(q1)
    w2, s2 = _slot(q2)
    labels = np.arange(1, 16, dtype=_U64)
    pats[:, w1] |= (labels >> _U64(2)) << _U64(s1)
    pats[:, w2] ^= (labels & _U64(3)) << _U64(s2)
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


def _shift_rows(keys: np.ndarray, shift_bits: int, nwords_out: int) -> np.ndarray:
    """Shift packed keys left by shift_bits into a wider word layout."""
    m, win = keys.shape
    out = np.zeros((m, nwords_out), dtype=_U64)
    q, r = divmod(shift_bits, 64)
    for w in range(win):
        if w + q < nwords_out:
            if r:
                out[:, w + q] |= keys[:, w] << _U64(r)
            else:
                out[:, w + q] |= keys[:, w]
        if r and w + q + 1 < nwords_out:
            out[:, w + q + 1] |= keys[:, w] >> _U64(64 - r)
    return out


def _preserved(keys: np.ndarray, p: np.ndarray, p_other: np.ndarray, cut: np.ndarray,
               tie: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows one side keeps in a preservation merge.  ``keys``, ``p`` (this
    side) and ``p_other`` are sorted by descending probability; state i
    pairs at or above the threshold with the first ``cut[i]`` other
    states, and below it keeps each pair where it is the more probable
    state (``tie``, a ``searchsorted`` side: "right" keeps equal pairs)."""
    suffix = np.concatenate([np.cumsum(p_other[::-1])[::-1], [0.0]])
    tie_at = p_other.shape[0] - np.searchsorted(p_other[::-1], p, side=tie)
    val = p * suffix[np.maximum(cut, tie_at)]
    keep = val > 0.0
    return keys[keep], val[keep]


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

    Pairs at or above the threshold are emitted in one pass.  The
    below-threshold pairs are collapsed per side without enumerating
    them (:func:`_preserved`, once for each side), and one aggregation
    over [pairs, preserved a-states, preserved b-states] sums the
    preserved states onto the pairs they coincide with.
    """
    if set(a.members) & set(b.members):
        raise ValueError("cannot merge overlapping QubitSets")
    a.map._ensure_ready()
    b.map._ensure_ready()
    width = a.map.width + b.map.width
    nw = _nwords(width)

    order_a = np.argsort(-a.map._probs, kind="stable")
    pa = a.map._probs[order_a]
    ka = _shift_rows(a.map._keys[order_a], 0, nw)
    order_b = np.argsort(-b.map._probs, kind="stable")
    pb = b.map._probs[order_b]
    kb = _shift_rows(b.map._keys[order_b], 2 * a.map.width, nw)

    # pairs (i, j < k[i]) are at or above the merge threshold; at
    # threshold 0 that is every pair
    k = pb.shape[0] - np.searchsorted(pb[::-1], th.merge / pa, side="left")

    # Each side's keys are unique and the sides own disjoint bits, so the
    # emitted pairs are distinct: they are emitted in one pass, and only
    # the preserved rows below can collide with them.
    i_idx = np.repeat(np.arange(pa.shape[0]), k)
    j_idx = np.arange(i_idx.shape[0]) - np.repeat(np.cumsum(k) - k, k)
    parts = [(ka[i_idx] | kb[j_idx], pa[i_idx] * pb[j_idx])]

    if th.merge_mode is MergeMode.PRESERVATION:
        # transpose of k: #{i: k_i > j}; k is nonincreasing because pa
        # is sorted descending, so this matches the emission's
        # above/below classification bit for bit
        k_b = np.searchsorted(-k, -(np.arange(pb.shape[0]) + 1), side="right")
        parts += [_preserved(ka, pa, pb, k, "right"), _preserved(kb, pb, pa, k_b, "left")]
    # lossy mode: below-threshold pairs are simply dropped

    keys, probs = zip(*parts)
    out = ErrorMap(width)
    out._replace(*_aggregate(np.vstack(keys), np.concatenate(probs)))
    return QubitSet(a.members + b.members, out)


def _gather_positions(keys: np.ndarray, positions: list[int], width_out: int) -> np.ndarray:
    m = keys.shape[0]
    out = np.zeros((m, _nwords(width_out)), dtype=_U64)
    for j, q in enumerate(positions):
        w, s = _slot(q)
        lab = (keys[:, w] >> _U64(s)) & _U64(3)
        wj, sj = _slot(j)
        out[:, wj] |= lab << _U64(sj)
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
    qs.map._ensure_ready()
    keys = qs.map._keys
    probs = qs.map._probs
    sides = []
    for positions in (keep_list, rest):
        width = len(positions)
        side_keys, side_probs = _aggregate(
            _gather_positions(keys, positions, width), probs.copy()
        )
        m = ErrorMap(width)
        m._replace(side_keys, side_probs)
        sides.append(QubitSet(tuple(qs.members[q] for q in positions), m))
    keep_total = sides[0].map._probs.sum()
    if keep_total > 0.0:
        sides[0].map._probs /= keep_total
    return sides[0], sides[1]
