"""Error maps, QubitSets, and the threshold-pruned evolution operations.

An error map is the current level of the error probability tree for one
QubitSet: an association from Pauli-string error states to probabilities.
Keys are stored packed, 2 bits per qubit and 32 qubits per 64-bit word,
in a (entries, words) uint64 array alongside a float64 probability
vector, so events, gate transforms, merges and splits are all vectorized.
Local qubit index i of a set lives in word i // 32 at bit offset
2 * (i % 32); this matches the integer packing used by
:class:`~paulitree.pauli.PauliString`.

The ``*_kernel`` functions rewrite a packed key array in place: the gate
conjugations and ``clear_kernel`` here, the code readouts in
:mod:`~paulitree.qecc`.  They are the only implementation of the
deterministic steps and are shared by both engines: the analytical
engine runs them on a map's keys through :meth:`ErrorMap.apply`, the
Monte Carlo engine on its sampled rows.  Only this module touches a
map's arrays.

The module-level operations (``apply_one_qubit_event``, ``merge``,
``split``, ...) are pure: they validate, copy, and return fresh
QubitSets.  The engine uses the in-place ``ErrorMap`` methods directly
to avoid copies; both paths share the same code.

Iteration order over entries is unspecified.  All operations accumulate
colliding keys by summation and are order-insensitive to within float64
summation noise (1e-9 budget over a whole program).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .pauli import Pauli, PauliString

_U64 = np.uint64
# chunk bounds for merge cross products, in emitted rows
_MERGE_CHUNK_ROWS = 1 << 22
_MERGE_COMPACT_ROWS = 1 << 23


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


def _void_view(keys: np.ndarray) -> np.ndarray:
    """1-D memcmp-comparable view whose ordering equals numeric key order."""
    be = np.ascontiguousarray(keys[:, ::-1]).astype(">u8")
    return be.view(np.dtype((np.void, be.shape[1] * 8))).ravel()


def _aggregate(keys: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum probabilities of duplicate keys; return sorted unique keys."""
    if keys.shape[0] == 0:
        return keys, probs
    v = _void_view(keys)
    order = np.argsort(v, kind="stable")
    v = v[order]
    keys = keys[order]
    probs = probs[order]
    if keys.shape[0] > 1:
        new_group = np.empty(keys.shape[0], dtype=bool)
        new_group[0] = True
        new_group[1:] = v[1:] != v[:-1]
        starts = np.nonzero(new_group)[0]
        probs = np.add.reduceat(probs, starts)
        keys = keys[starts]
    keep = probs > 0.0
    if not keep.all():
        keys = keys[keep]
        probs = probs[keep]
    return np.ascontiguousarray(keys), probs


class ErrorMap:
    """Association from packed Pauli strings to probabilities for one QubitSet.

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
    def identity(cls, width: int, prob: float = 1.0) -> "ErrorMap":
        return cls.from_dict({PauliString.identity(width): prob})

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

    def copy(self) -> "ErrorMap":
        m = ErrorMap(self.width, self._keys.copy(), self._probs.copy())
        m._dirty = self._dirty
        return m

    def __len__(self) -> int:
        return self._keys.shape[0]

    def total(self) -> float:
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
            self._v = _void_view(self._keys)
        return self._v

    def _ensure_ready(self) -> None:
        if self._dirty:
            self._canonicalize()

    def _canonicalize(self) -> None:
        self._keys, self._probs = _aggregate(self._keys, self._probs)
        self._v = None
        self._dirty = False

    def _replace(self, keys: np.ndarray, probs: np.ndarray, sorted_unique: bool) -> None:
        self._keys = keys
        self._probs = probs
        self._v = None
        self._dirty = not sorted_unique

    def _insert(self, keys: np.ndarray, probs: np.ndarray) -> None:
        """Accumulate a (possibly duplicated) batch of entries."""
        keys, probs = _aggregate(keys, probs)
        if keys.shape[0] == 0:
            return
        v = _void_view(keys)
        base_v = self._view()
        pos = np.searchsorted(base_v, v)
        hit = np.zeros(len(v), dtype=bool)
        inb = pos < base_v.shape[0]
        hit[inb] = base_v[pos[inb]] == v[inb]
        if hit.any():
            self._probs[pos[hit]] += probs[hit]
        miss = ~hit
        if miss.any():
            where = pos[miss]
            self._keys = np.insert(self._keys, where, keys[miss], axis=0)
            self._probs = np.insert(self._probs, where, probs[miss])
            self._v = np.insert(base_v, where, v[miss])

    # -- evolution (in place) -----------------------------------------

    def event_kernel(self, patterns: np.ndarray, f: float, event_branch: float) -> None:
        """Stochastic event: each entry at or above the branch threshold
        contributes (s, p*(1-f)) plus (s ^ pattern, p*f/k) for the k
        branch patterns; below-threshold entries pass through unchanged.
        Total probability is conserved exactly.
        """
        if not 0.0 <= f <= 1.0:
            raise ValueError("event probability must be in [0, 1], got %r" % (f,))
        if f == 0.0:
            return
        self._ensure_ready()
        probs = self._probs
        if event_branch > 0.0:
            idx = np.nonzero(probs >= event_branch)[0]
        else:
            idx = np.arange(probs.shape[0])
        if idx.size == 0:
            return
        k = patterns.shape[0]
        share = f / k
        src_keys = self._keys[idx]
        src_probs = probs[idx] * share
        branch_keys = np.vstack([src_keys ^ pat for pat in patterns])
        branch_probs = np.tile(src_probs, k)
        probs[idx] *= 1.0 - f
        self._insert(branch_keys, branch_probs)

    def apply(self, kernel: Callable[..., None], *args, collide: bool = True) -> None:
        """Rewrite every key in place with ``kernel(keys, *args)``.

        A kernel that can map two keys onto one (``collide``) runs on the
        sorted map and is followed by summing the collided entries.  A
        permutation of keys (a gate) only leaves them unsorted until the
        next operation that needs the order.
        """
        if collide:
            self._ensure_ready()
        kernel(self._keys, *args)
        self._v = None
        if collide:
            self._canonicalize()
        else:
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


def one_qubit_patterns(width: int, q: int) -> np.ndarray:
    """XOR patterns for the three equally likely X, Y, Z branch outcomes."""
    _check_positions(width, q)
    nw = _nwords(width)
    pats = np.zeros((3, nw), dtype=_U64)
    w, s = _slot(q)
    for i, lab in enumerate((Pauli.X, Pauli.Y, Pauli.Z)):
        pats[i, w] = _U64(int(lab)) << _U64(s)
    return pats


def two_qubit_patterns(width: int, q1: int, q2: int) -> np.ndarray:
    """XOR patterns for the fifteen non-identity two-qubit outcomes."""
    _check_positions(width, q1, q2)
    nw = _nwords(width)
    pats = np.zeros((15, nw), dtype=_U64)
    w1, s1 = _slot(q1)
    w2, s2 = _slot(q2)
    i = 0
    for l1 in range(4):
        for l2 in range(4):
            if l1 == 0 and l2 == 0:
                continue
            pats[i, w1] |= _U64(l1) << _U64(s1)
            pats[i, w2] ^= _U64(l2) << _U64(s2)
            i += 1
    return pats


@dataclass(frozen=True)
class QubitSet:
    """A disjoint group of physical qubit IDs plus its error map.

    ``members[i]`` is the global ID tracked at local key position i.
    QubitSets partition the simulated machine; enforcing the partition
    is the engine's job.
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

    @classmethod
    def error_free(cls, members: Iterable[int]) -> "QubitSet":
        members = tuple(members)
        return cls(members, ErrorMap.identity(len(members)))


# -- pure operations ---------------------------------------------------


def apply_one_qubit_event(qs: QubitSet, q: int, f: float, th: Thresholds) -> QubitSet:
    """One-qubit error event at local position q.

    Leaves each state unchanged with probability 1-f and adds an X, Y,
    or Z at q with probability f/3 each, branching only entries at or
    above the event branch threshold.
    """
    m = qs.map.copy()
    m.event_kernel(one_qubit_patterns(m.width, q), f, th.event_branch)
    return QubitSet(qs.members, m)


def apply_two_qubit_event(qs: QubitSet, q1: int, q2: int, f: float,
                          th: Thresholds) -> QubitSet:
    """Correlated two-qubit error event: 15 outcomes at f/15 each."""
    if q1 == q2:
        raise ValueError("two-qubit event operands must differ")
    m = qs.map.copy()
    m.event_kernel(two_qubit_patterns(m.width, q1, q2), f, th.event_branch)
    return QubitSet(qs.members, m)


def apply_hadamard(qs: QubitSet, q: int) -> QubitSet:
    _check_positions(qs.map.width, q)
    m = qs.map.copy()
    m.apply(hadamard_kernel, q, collide=False)
    return QubitSet(qs.members, m)


def apply_cnot(qs: QubitSet, control: int, target: int) -> QubitSet:
    _check_positions(qs.map.width, control, target)
    if control == target:
        raise ValueError("CNOT control and target must differ")
    m = qs.map.copy()
    m.apply(cnot_kernel, control, target, collide=False)
    return QubitSet(qs.members, m)


def total_probability(qs: QubitSet) -> float:
    return qs.map.total()


def sum_matching(qs: QubitSet, predicate: Callable[[PauliString], bool]) -> float:
    """Sum of probabilities over entries whose state satisfies the predicate."""
    return float(sum(p for s, p in qs.map.items() if predicate(s)))


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


def merge(a: QubitSet, b: QubitSet, th: Thresholds) -> QubitSet:
    """Merge two disjoint QubitSets into one.

    The merged states are the cross product of the inputs' states.  A
    pair whose product probability is at or above the merge threshold is
    emitted as the concatenated string.  Below the threshold,
    preservation mode zeroes the labels of the less probable input state
    (ties zero the state from b) and keeps the mass; lossy mode discards
    the pair.  Preservation conserves total probability; lossy mass loss
    is visible through the output's total.
    """
    if set(a.members) & set(b.members):
        raise ValueError("cannot merge overlapping QubitSets")
    a.map._ensure_ready()
    b.map._ensure_ready()
    na, nb = a.map.width, b.map.width
    width = na + nb
    nw = _nwords(width)

    order_a = np.argsort(-a.map._probs, kind="stable")
    pa = a.map._probs[order_a]
    ka = _shift_rows(a.map._keys[order_a], 0, nw)
    order_b = np.argsort(-b.map._probs, kind="stable")
    pb = b.map._probs[order_b]
    kb = _shift_rows(b.map._keys[order_b], 2 * na, nw)

    out = ErrorMap(width)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        return QubitSet(a.members + b.members, out)

    th_m = th.merge
    pb_asc = pb[::-1]
    if th_m > 0.0:
        # pairs (i, j < k[i]) are at or above the merge threshold
        k = pb.shape[0] - np.searchsorted(pb_asc, th_m / pa, side="left")
    else:
        k = np.full(pa.shape[0], pb.shape[0], dtype=np.int64)

    buffers_k: list[np.ndarray] = []
    buffers_p: list[np.ndarray] = []
    buffered = 0

    def compact(force: bool = False) -> None:
        nonlocal buffered
        if buffered == 0:
            return
        if not force and buffered < _MERGE_COMPACT_ROWS:
            return
        keys = np.vstack(buffers_k)
        probs = np.concatenate(buffers_p)
        keys, probs = _aggregate(keys, probs)
        buffers_k.clear()
        buffers_p.clear()
        buffers_k.append(keys)
        buffers_p.append(probs)
        buffered = keys.shape[0]

    csum = np.concatenate([[0], np.cumsum(k)])
    i0 = 0
    while i0 < pa.shape[0]:
        i1 = int(np.searchsorted(csum, csum[i0] + _MERGE_CHUNK_ROWS, side="left"))
        i1 = min(max(i1, i0 + 1), pa.shape[0])
        counts = k[i0:i1]
        total = int(counts.sum())
        if total:
            i_idx = np.repeat(np.arange(i0, i1), counts)
            offsets = csum[i0:i1] - csum[i0]
            j_idx = np.arange(total) - np.repeat(offsets, counts)
            buffers_k.append(ka[i_idx] | kb[j_idx])
            buffers_p.append(pa[i_idx] * pb[j_idx])
            buffered += total
            compact()
        i0 = i1

    if th_m > 0.0:
        if th.merge_mode is MergeMode.PRESERVATION:
            # Collapse below-threshold pairs without enumerating them.  A
            # pair keeps the a-side state iff p_b <= p_a (ties zero b's
            # state), else the b-side state; per-side masses reduce to
            # suffix sums over the probability-sorted arrays.
            suff_b = np.concatenate([np.cumsum(pb[::-1])[::-1], [0.0]])
            suff_a = np.concatenate([np.cumsum(pa[::-1])[::-1], [0.0]])
            t_a = pb.shape[0] - np.searchsorted(pb_asc, pa, side="right")
            lo_a = np.maximum(k, t_a)
            val_a = pa * suff_b[lo_a]
            keep_a = val_a > 0.0
            if keep_a.any():
                buffers_k.append(ka[keep_a])
                buffers_p.append(val_a[keep_a])
                buffered += int(keep_a.sum())
            pa_asc = pa[::-1]
            # transpose of k: #{i: k_i > j}; k is nonincreasing because pa
            # is sorted descending, so this matches the emission loop's
            # above/below classification bit for bit
            k_b = np.searchsorted(-k, -(np.arange(pb.shape[0]) + 1), side="right")
            t_b = pa.shape[0] - np.searchsorted(pa_asc, pb, side="left")
            lo_b = np.maximum(k_b, t_b)
            val_b = pb * suff_a[lo_b]
            keep_b = val_b > 0.0
            if keep_b.any():
                buffers_k.append(kb[keep_b])
                buffers_p.append(val_b[keep_b])
                buffered += int(keep_b.sum())
        # lossy mode: below-threshold pairs are simply dropped

    compact(force=True)
    if buffers_k:
        out._replace(buffers_k[0], buffers_p[0], True)
    else:
        out._replace(np.zeros((0, nw), dtype=_U64), np.zeros(0), True)
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
    keep_list = sorted(set(keep))
    if not keep_list:
        raise ValueError("keep set must be non-empty")
    if any(q < 0 or q >= qs.map.width for q in keep_list):
        raise IndexError("keep indices out of range")
    rest = [q for q in range(qs.map.width) if q not in set(keep_list)]
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
        m._replace(side_keys, side_probs, True)
        sides.append(QubitSet(tuple(qs.members[q] for q in positions), m))
    keep_total = sides[0].map._probs.sum()
    if keep_total > 0.0:
        sides[0].map._probs /= keep_total
    return sides[0], sides[1]
