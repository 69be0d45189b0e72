"""The liveness pass: its transfer rules, and exactness where it matters.

A live mask holds the label bits of a qubit that a later readout or the
crash observable can still read: 1 its X component, 2 its Z component.
Each deterministic step kind's rule (``STEP_KINDS[kind].live``) maps its
operands' masks after the step to their masks before it; the analytical
engine masks events and clears components with the result.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitree import engine, qecc
from paulitree.errormap import Thresholds, _row_from_int, event_patterns
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    STEP_KINDS,
    CNot,
    Correct,
    CosetReduce,
    Hadamard,
    Program,
    Reset,
    Schedule,
    SyndromeMeasure,
    VerifyReadout,
    build_basic_program,
    build_recovery,
    checked_steps,
    liveness,
)

BLOCK = tuple(range(7))
# one step of every deterministic kind, and of each basis and phase
EXAMPLES = (
    Hadamard(0),
    CNot(0, 1),
    Reset((0, 1, 2)),
    VerifyReadout(BLOCK, 7),
    SyndromeMeasure(BLOCK),
    CosetReduce(BLOCK, "z"),
    CosetReduce(BLOCK, "x"),
    Correct(BLOCK, ((7, 8, 9), (10, 11, 12), (13, 14, 15)), "bit"),
    Correct(BLOCK, ((7, 8, 9), (10, 11, 12), (13, 14, 15)), "phase"),
)


def test_every_kernel_kind_has_a_rule_and_an_example():
    kinds = {kind for kind, spec in STEP_KINDS.items() if spec.kernel is not None}
    assert {type(step) for step in EXAMPLES} == kinds
    assert all(STEP_KINDS[kind].live is not None for kind in kinds)


def _mask(nwords, positions, masks):
    """Key words with the bits of ``masks`` at ``positions`` set."""
    out = np.zeros(nwords, dtype=np.uint64)
    for q, m in zip(positions, masks):
        out[q // 32] |= np.uint64(m << 2 * (q % 32))
    return out


@settings(deadline=None, max_examples=60)
@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("step", EXAMPLES, ids=lambda s: "%s-%s" % (
    type(s).__name__, getattr(s, "basis", getattr(s, "phase", ""))))
@given(data=st.data())
def test_dead_bits_before_do_not_reach_live_bits_after(step, words, data):
    spec = STEP_KINDS[type(step)]
    n = len(spec.operands(step))
    # operands anywhere in the key, across both words at two words
    positions = data.draw(st.permutations(range(32 * words)))[:n]
    after = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    before = spec.live(step, after)
    assert len(before) == n and all(0 <= m <= 3 for m in before)
    rows = data.draw(st.integers(1, 8))
    word = st.integers(0, 2 ** 64 - 1)
    keys = np.array(data.draw(st.lists(word, min_size=rows * words, max_size=rows * words)),
                    dtype=np.uint64).reshape(rows, words)
    flips = np.array(data.draw(st.lists(word, min_size=rows * words, max_size=rows * words)),
                     dtype=np.uint64).reshape(rows, words)
    # flip only bits the rule calls dead before the step
    flips &= _mask(words, positions, [3 ^ m for m in before])
    args = spec.args(step, tuple(positions))
    out, flipped = keys.copy(), keys ^ flips
    spec.function(out, *args)
    spec.function(flipped, *args)
    # every bit off the operands counts as live
    seen = ~_mask(words, positions, [3] * n) | _mask(words, positions, after)
    assert ((out & seen) == (flipped & seen)).all()


@settings(deadline=None, max_examples=60)
@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("step", EXAMPLES, ids=lambda s: "%s-%s" % (
    type(s).__name__, getattr(s, "basis", getattr(s, "phase", ""))))
@given(data=st.data())
def test_the_bits_a_kind_declares_zeroed_are_at_i_after_its_kernel(step, words, data):
    spec = STEP_KINDS[type(step)]
    n = len(spec.operands(step))
    zeroed = spec.zeroes(step)
    assert len(zeroed) <= n and all(0 <= m <= 3 for m in zeroed)
    positions = data.draw(st.permutations(range(32 * words)))[:n]
    rows = data.draw(st.integers(1, 8))
    word = st.integers(0, 2 ** 64 - 1)
    keys = np.array(data.draw(st.lists(word, min_size=rows * words, max_size=rows * words)),
                    dtype=np.uint64).reshape(rows, words)
    spec.function(keys, *spec.args(step, tuple(positions)))
    assert not (keys & _mask(words, positions, zeroed)).any()


@pytest.mark.parametrize("step", EXAMPLES, ids=lambda s: type(s).__name__)
def test_a_released_qubit_is_declared_zeroed_whole(step):
    spec = STEP_KINDS[type(step)]
    zeroed = dict(zip(spec.operands(step), spec.zeroes(step)))
    assert all(zeroed.get(q) == 3 for group in spec.releases(step) for q in group)


# -- threshold-0 exactness on programs whose liveness varies -------------


def _recovery_only_program(params):
    data = tuple(range(7))
    ancilla = tuple(tuple(range(7 + 7 * k, 14 + 7 * k)) for k in range(3))
    sched = Schedule(29, params)
    build_recovery(sched, data, ancilla, 28)
    return Program("recovery", 29, (data,) + ancilla + ((28,),), tuple(sched.steps),
                   (data,), 1, sched.num_cycles)


BASIC = build_basic_program(NoiseParams())
RECOVERY = _recovery_only_program(NoiseParams())


def _sparse(prog, rng):
    """``prog`` with 3-6 of its events kept, each at an f in [0.05, 0.3],
    and every other event taken out."""
    events = [i for i, s in enumerate(prog.steps) if STEP_KINDS[type(s)].kernel is None]
    kept = set(rng.choice(events, size=rng.integers(3, 7), replace=False).tolist())
    steps = []
    for i, s in enumerate(prog.steps):
        spec = STEP_KINDS[type(s)]
        if i in kept:
            steps.append(type(s)(*spec.operands(s), float(rng.uniform(0.05, 0.3))))
        elif spec.kernel is not None:
            steps.append(s)
    return Program(prog.name, prog.num_qubits, prog.initial_partition, tuple(steps),
                   prog.crash_blocks, prog.num_logical, prog.num_cycles)


def _enumerated_crash(prog, labels):
    """The crash probability by brute force: one key row per combination of
    event outcomes (identity included), every step run on all rows through
    the shared kernels at global positions, as written, with no mask.
    ``labels`` (qubit -> label) is the initial fault."""
    n = prog.num_qubits
    keys = _row_from_int(sum(int(lab) << 2 * q for q, lab in labels.items()),
                         (n + 31) // 32)[None]
    probs = np.ones(1)
    for step in prog.steps:
        spec = STEP_KINDS[type(step)]
        qubits = spec.operands(step)
        if spec.kernel is None:
            pats = event_patterns(n, *qubits)
            k = pats.shape[0]
            keys = np.concatenate([keys] + [keys ^ pat for pat in pats])
            probs = np.concatenate([probs * (1.0 - step.f)] + [probs * (step.f / k)] * k)
        else:
            spec.function(keys, *spec.args(step, qubits))
    return math.fsum(probs[~qecc.correctable(keys, prog.crash_blocks)])


def _events_on_dead_components(prog):
    """How many events act on a qubit with a component that the liveness
    pass calls dead where the event stands."""
    live, afters = liveness(prog, list(checked_steps(prog)))
    afters, count = iter(afters), 0
    for step in prog.steps:
        qubits = STEP_KINDS[type(step)].operands(step)
        if STEP_KINDS[type(step)].kernel is None:
            count += any(live[q] < 3 for q in qubits)
        else:
            for q, m in zip(qubits, next(afters)):
                live[q] = m
    return count


SEEDS = range(16)


def _variant(base, seed):
    """A sparse-noise variant of ``base`` and an initial fault on one of
    its crash-block qubits, which one more error in that block turns
    into a crash: so few events still crash often enough to show."""
    rng = np.random.default_rng(seed)
    prog = _sparse(base, rng)
    q = int(rng.choice([q for block in prog.crash_blocks for q in block]))
    return prog, {q: Pauli(int(rng.integers(1, 4)))}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("base", [BASIC, RECOVERY], ids=["basic", "recovery"])
def test_threshold_zero_matches_the_enumeration_of_every_outcome(base, seed):
    prog, labels = _variant(base, seed)
    rep = engine.run_analytical(prog, Thresholds(), initial_errors=labels)
    # no absolute slack: a crash rate of 0 must read 0
    assert rep.crash_probability == pytest.approx(_enumerated_crash(prog, labels),
                                                  rel=1e-12, abs=0.0)


def test_the_variants_crash_and_exercise_the_masks():
    variants = [_variant(base, seed) for base in (BASIC, RECOVERY) for seed in SEEDS]
    # most crash, and most have events on qubits with a dead component
    assert sum(_enumerated_crash(*v) > 0 for v in variants) >= len(variants) // 2
    assert sum(_events_on_dead_components(prog) > 0 for prog, _ in variants) >= len(variants) // 2
