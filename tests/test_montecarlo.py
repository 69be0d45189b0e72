import dataclasses
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitree import errormap, montecarlo, qecc
from paulitree.engine import run_analytical
from paulitree.errormap import (
    Thresholds,
    _int_from_row,
    _nwords,
    _slot,
    event_patterns,
)
from paulitree.montecarlo import _CHUNK, _draw, _RowBuffer, _wilson95, evaluate, run_mc
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    STEP_KINDS,
    CNot,
    Correct,
    CosetReduce,
    Hadamard,
    OneQubitEvent,
    ProgramError,
    Reset,
    SyndromeMeasure,
    TwoQubitEvent,
    VerifyReadout,
    build_basic_program,
    checked_steps,
    initial_labels,
    step_kind,
)
from tests.test_engine import QUIET, toy


class TestStatistics:
    def test_matches_exact_crash_mass(self):
        prog = toy([TwoQubitEvent(0, 1, 0.3)])
        p = 0.3 * 9 / 15
        rep = run_mc(prog, 40000, seed=7)
        sigma = math.sqrt(p * (1 - p) / rep.iterations)
        assert abs(rep.crash_rate - p) < 5 * sigma

    def test_matches_analytical_engine_on_gate_spread(self):
        prog = toy([OneQubitEvent(0, 0.3), CNot(0, 1)])
        exact = run_analytical(prog, Thresholds()).crash_probability
        rep = run_mc(prog, 40000, seed=3)
        sigma = math.sqrt(exact * (1 - exact) / rep.iterations)
        assert abs(rep.crash_rate - exact) < 5 * sigma

    def test_wilson_interval_at_zero_crashes(self):
        n, z2 = 65536, 1.96 ** 2
        low, high = _wilson95(0, n)
        assert low == 0.0
        assert high == pytest.approx(z2 / (n + z2), rel=1e-12)

    def test_wilson_interval_at_one_crash_stays_above_zero(self):
        # the Wald interval read 1.5e-5 +/- 3.0e-5 here
        low, high = _wilson95(1, 65536)
        assert 0.0 < low < 1 / 65536 < high

    def test_report_carries_the_wilson_interval(self):
        rep = run_mc(toy([TwoQubitEvent(0, 1, 0.3)]), 5000, seed=1)
        assert (rep.ci95_low, rep.ci95_high) == _wilson95(rep.crashes, 5000)
        assert rep.ci95_low < rep.crash_rate < rep.ci95_high

    def test_zero_noise_never_crashes(self):
        prog = build_basic_program(QUIET)
        rep = run_mc(prog, 256, seed=0)
        assert rep.crashes == 0
        assert rep.crash_rate == 0.0

    def test_faulted_rows_at_1x_match_the_faulty_row_share(self):
        # a row is faulted with probability 1 - prod(1 - f), about 9%
        prog = build_basic_program(NoiseParams())
        share = -math.expm1(math.fsum(math.log1p(-s.f) for s in prog.steps
                                      if step_kind(s).kernel is None))
        rep = run_mc(prog, 2048, seed=0)
        sigma = math.sqrt(share * (1 - share) / 2048)
        assert 0.08 < share < 0.10
        assert abs(rep.faulted_rows / 2048 - share) < 5 * sigma


class TestReproducibility:
    PROG = toy([TwoQubitEvent(0, 1, 0.3)])

    def test_same_seed_same_tally(self):
        a = run_mc(self.PROG, 10000, seed=42)
        b = run_mc(self.PROG, 10000, seed=42)
        assert a.crashes == b.crashes

    def test_seeds_are_distinct_streams(self):
        counts = {run_mc(self.PROG, 65536, seed=s).crashes for s in range(4)}
        assert len(counts) > 1

    def _chunk_cuts(self, monkeypatch, iterations):
        """The report of ``run_mc`` and how many ranges each of its chunks
        was cut into."""
        cuts, sample = [], montecarlo._sample

        def counted(*args):
            buffers = sample(*args)
            cuts.append(len(buffers))
            return buffers

        monkeypatch.setattr(montecarlo, "_sample", counted)
        rep = run_mc(self.PROG, iterations, seed=11)
        monkeypatch.setattr(montecarlo, "_sample", sample)
        return rep, cuts

    def test_thread_count_does_not_change_the_tally(self, monkeypatch):
        tallies = set()
        for threads in (1, 2, 5):
            monkeypatch.setattr(montecarlo, "_THREADS", threads)
            tallies.add(run_mc(self.PROG, 8000, seed=9).crashes)
        assert len(tallies) == 1

    def test_fewer_iterations_than_threads(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_THREADS", 16)
        rep, cuts = self._chunk_cuts(monkeypatch, 10)
        assert rep.iterations == 10 and cuts == [10]
        assert 0 <= rep.crashes <= 10

    @pytest.mark.parametrize("n", [1, 4096])
    def test_threads_are_capped(self, monkeypatch, n):
        assert self._chunk_cuts(monkeypatch, n)[1] == [min(montecarlo._THREADS, n)]

    def test_one_cpu_host_cuts_and_reports_the_same(self, monkeypatch):
        free = {n: self._chunk_cuts(monkeypatch, n) for n in (1, 4096)}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        for n, (rep, cuts) in free.items():
            pinned, pinned_cuts = self._chunk_cuts(monkeypatch, n)
            assert pinned_cuts == cuts == [min(montecarlo._THREADS, n)]
            assert dataclasses.replace(pinned, wall_time_s=rep.wall_time_s) == rep

    def test_run_reads_the_first_spawned_child(self):
        child = np.random.SeedSequence(11).spawn(1)[0]
        rep = run_mc(self.PROG, 4096, seed=11)
        labels = initial_labels(self.PROG, None)
        assert rep.crashes == _reference_shard(self.PROG, 4096, child, labels)[0]


class TestValidationAndInjection:
    def test_argument_validation(self):
        prog = toy([])
        with pytest.raises(ValueError):
            run_mc(prog, 0, seed=0)

    @pytest.mark.parametrize("errors, message", [
        ({0: 5}, "not a valid Pauli"),
        ({2: Pauli.X}, "outside"),
        ({40: Pauli.X}, "outside"),
    ])
    def test_initial_errors_are_checked(self, errors, message):
        with pytest.raises(ValueError, match=message):
            run_mc(toy([CNot(0, 1)]), 16, seed=0, initial_errors=errors)

    @pytest.mark.parametrize("step, message", [
        (CNot(0, 0), "repeats a qubit"),
        (OneQubitEvent(2, 0.3), "undeclared"),
        (TwoQubitEvent(1, 1, 0.3), "repeats a qubit"),
        (Hadamard(-1), "undeclared"),
        (Reset((1, 0, 1)), "repeats a qubit"),
        (Correct(tuple(range(7)), ((0, 1, 7),) * 3, "bit"), "undeclared"),
    ])
    def test_repeated_or_undeclared_operands_rejected(self, step, message):
        with pytest.raises(ProgramError, match=message):
            run_mc(toy([step]), 16, seed=0)

    def test_bad_operand_before_bad_probability_is_reported_first(self):
        with pytest.raises(ProgramError, match="repeats a qubit"):
            run_mc(toy([CNot(0, 0), OneQubitEvent(0, math.nan)]), 16, seed=0)

    def test_bad_probability_before_bad_operand_is_reported_first(self):
        with pytest.raises(ValueError, match=r"event probability must be in \[0, 1\]"):
            run_mc(toy([OneQubitEvent(0, math.nan), CNot(0, 0)]), 16, seed=0)

    @pytest.mark.parametrize("f", [math.nan, 1.5, -0.2])
    def test_event_probability_outside_unit_interval_rejected(self, f):
        prog = toy([OneQubitEvent(0, f)])
        for run in (lambda: run_mc(prog, 16, seed=0),
                    lambda: run_analytical(prog, Thresholds())):
            with pytest.raises(ValueError, match=r"event probability must be in \[0, 1\]"):
                run()

    def test_injected_faults_are_deterministic(self):
        prog = build_basic_program(QUIET)
        clean = run_mc(prog, 64, seed=1, initial_errors={3: Pauli.Y})
        assert clean.crashes == 0  # a single fault is always corrected
        crashed = run_mc(prog, 64, seed=1,
                         initial_errors={3: Pauli.X, 5: Pauli.X})
        assert crashed.crashes == 64  # a same-block pair never is


class _Uniforms:
    """A stand-in for a generator that draws the given uniforms, for
    ``_draw``: its stream has no other positions to skip."""

    def __init__(self, u):
        self.u = np.array(u)
        self.bit_generator = self

    def random(self, out):
        out[:] = self.u
        return out

    def advance(self, delta):
        assert delta == 0
        return self


class TestSharedOutcomes:
    """Monte Carlo draws outcome i of an event as the i-th row of the
    pattern array the analytical engine branches on."""

    WIDTH = 36  # two key words, as in the basic program

    @pytest.mark.parametrize("patterns, qubits", [
        (event_patterns(WIDTH, 33), (33,)),
        (event_patterns(WIDTH, 5, 34), (5, 34)),
    ], ids=["one-qubit", "two-qubit"])
    def test_mid_bin_uniform_draws_outcome_i(self, patterns, qubits):
        f = 0.3
        k = patterns.shape[0]
        # row i's uniform sits mid-way in outcome i's bin; the last two
        # rows draw f and above, so no fault
        u = [(i + 0.5) * f / k for i in range(k)] + [f, 0.99]
        rng = np.random.default_rng(4)
        start = rng.integers(0, 2 ** 63, size=(k + 2, 2), dtype=np.uint64)
        ops = [(None, (patterns, f))]
        # a non-zero start key puts every row in the buffer, in row order
        full = _RowBuffer(0, k + 2, start[0])
        full.keys[:] = start
        evaluate(ops, _draw(ops, _Uniforms(u), k + 2, k + 2, threading.Event()), full)
        keys = full.keys
        for i in range(k):
            assert (keys[i] == start[i] ^ patterns[i]).all()
        assert (keys[k:] == start[k:]).all()
        # from an empty buffer, the rows hit join with the zero key
        empty = _RowBuffer(0, k + 2, np.zeros(2, dtype=np.uint64))
        evaluate(ops, _draw(ops, _Uniforms(u), k + 2, k + 2, threading.Event()), empty)
        assert empty.count == k
        assert (empty.keys[:k] == patterns).all()
        assert empty.slot.tolist() == list(range(k)) + [-1, -1]
        # outcome i is label i + 1: X, Z, Y on one qubit, divmod(i + 1, 4)
        # on a pair
        labels = [tuple((_int_from_row(row) >> (2 * q)) & 3 for q in qubits)
                  for row in patterns]
        if len(qubits) == 1:
            assert labels == [(Pauli.X,), (Pauli.Z,), (Pauli.Y,)]
        else:
            assert labels == [divmod(i + 1, 4) for i in range(15)]


class TestEvaluate:
    """``evaluate`` alone, on explicit hits: each row's key is that of
    XORing the same hits into every row from the start key and running
    every kernel on every row."""

    @staticmethod
    def _steps(width):
        """Steps of every kind on qubits [0, width); a Correct takes 16."""
        qubits = st.integers(0, width - 1)
        f = st.sampled_from([0.0, 1e-3, 0.3, 1.0])

        def distinct(n):
            return st.lists(qubits, min_size=n, max_size=n, unique=True)

        # one-qubit events are drawn twice as often as any other kind
        return st.one_of(
            st.builds(OneQubitEvent, qubits, f),
            distinct(2).flatmap(lambda q: st.builds(TwoQubitEvent, st.just(q[0]),
                                                    st.just(q[1]), f)),
            st.builds(OneQubitEvent, qubits, f),
            st.builds(Hadamard, qubits),
            distinct(2).map(lambda q: CNot(*q)),
            st.lists(qubits, min_size=1, max_size=3, unique=True).map(
                lambda q: Reset(tuple(q))),
            distinct(8).map(lambda q: VerifyReadout(tuple(q[1:]), q[0])),
            distinct(7).map(lambda q: SyndromeMeasure(tuple(q))),
            st.builds(lambda q, basis: CosetReduce(tuple(q), basis), distinct(7),
                      st.sampled_from("zx")),
            st.builds(lambda q, phase: Correct(tuple(q[:7]), (tuple(q[7:10]), tuple(q[10:13]),
                                                             tuple(q[13:])), phase),
                      distinct(16), st.sampled_from(["bit", "phase"])),
        )

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_keys_match_every_kernel_on_every_row(self, data):
        words = data.draw(st.integers(1, 3))
        width = data.draw(st.integers(max(16, 32 * words - 31), 32 * words))
        steps = data.draw(st.lists(self._steps(width), min_size=1, max_size=30))
        prog = toy(steps, num_qubits=width, blocks=(tuple(range(7)),))
        faults = data.draw(st.dictionaries(st.integers(0, width - 1),
                                           st.sampled_from(list(Pauli)), max_size=2))
        ops, start = montecarlo._prepare(prog, initial_labels(prog, faults))
        assert start.size == words
        n = data.draw(st.integers(1, 40))
        hits = []
        for function, args in ops:
            # a drawn event hits distinct rows, each with an outcome pick
            picks = {}
            if function is None and type(args) is not int:
                picks = data.draw(st.dictionaries(st.integers(0, n - 1),
                                                  st.integers(0, args[0].shape[0] - 1)))
            hits.append((np.array(list(picks)), np.array(list(picks.values())))
                        if picks else None)
        buffer = _RowBuffer(0, n, start)
        evaluate(ops, hits, buffer)
        expected = np.tile(start, (n, 1))
        for (function, args), hit in zip(ops, hits):
            if function is not None:
                function(expected, *args)
            elif hit is not None:
                expected[hit[0]] ^= args[0][hit[1]]
        joined = np.flatnonzero(buffer.slot >= 0)
        keys = np.zeros_like(expected)
        keys[joined] = buffer.keys[buffer.slot[joined]]
        assert (keys == expected).all()
        # a row joins once, when first hit, or from the start with a fault
        hit_rows = {int(r) for hit in hits if hit is not None for r in hit[0]}
        assert buffer.count == joined.size == (n if start.any() else len(hit_rows))


def _reference_keys(prog, n, rng, labels):
    """The serial sampler the threaded one must reproduce: one
    ``rng.random(n)`` per event with f > 0, drawn and applied in step
    order."""
    width = prog.num_qubits
    keys = np.zeros((n, _nwords(width)), dtype=np.uint64)
    for q, label in labels.items():
        w, sh = _slot(q)
        keys[:, w] |= np.uint64(int(label)) << np.uint64(sh)
    for spec, step, qubits in checked_steps(prog):
        if spec.kernel is None:
            if step.f == 0.0:
                continue
            patterns = event_patterns(width, *qubits)
            u = rng.random(n)
            rows = np.nonzero(u < step.f)[0]
            k = patterns.shape[0]
            pick = np.minimum((u[rows] * (k / step.f)).astype(np.int64), k - 1)
            for w in range(keys.shape[1]):
                keys[rows, w] ^= patterns[pick, w]
        else:
            spec.function(keys, *spec.args(step, qubits))
    return keys


def _reference_shard(prog, iterations, child, labels):
    """Crash count and final generator state of one shard, drawn serially."""
    rng = np.random.default_rng(child)
    crashes = 0
    for done in range(0, iterations, _CHUNK):
        n = min(_CHUNK, iterations - done)
        crashes += _crashes(prog, _reference_keys(prog, n, rng, labels))
    return crashes, rng.bit_generator.state


def _crashes(prog, keys):
    return keys.shape[0] - int(np.count_nonzero(qecc.correctable(keys, prog.crash_blocks)))


def _sample(prog, n, rng, labels, threads):
    """One chunk of ``n`` rows sampled by ``montecarlo._sample`` on the op
    list and start key that ``run_mc`` builds: the keys of all rows (the
    faulted rows' keys, and the zero key on every other row) and the
    number of faulted rows, those the kernels ran on."""
    keys = np.zeros((n, _nwords(prog.num_qubits)), dtype=np.uint64)
    faulted = 0
    for buffer in montecarlo._sample(*montecarlo._prepare(prog, labels), n, rng, threads):
        held = np.flatnonzero(buffer.slot >= 0)
        assert held.size == buffer.count
        keys[buffer.first + held] = buffer.keys[buffer.slot[held]]
        faulted += buffer.count
    return keys, faulted


def _hit_rows(prog, n, rng):
    """How many of ``n`` rows some event hits, drawn as ``_reference_keys``
    draws."""
    hit = np.zeros(n, dtype=bool)
    for step in prog.steps:
        if step_kind(step).kernel is None and step.f > 0.0:
            hit |= rng.random(n) < step.f
    return int(np.count_nonzero(hit))


def _random_events(count, num_qubits, seed, rates=(1e-3, 0.05)):
    """``count`` events on random qubits and pairs, with a Hadamard or a
    CNot after every tenth, so that faults move between qubits."""
    rng = np.random.default_rng(seed)
    steps = []
    for i in range(count):
        a, b = (int(q) for q in rng.choice(num_qubits, 2, replace=False))
        f = float(rng.uniform(*rates))
        steps.append(TwoQubitEvent(a, b, f) if i % 7 == 0 else OneQubitEvent(a, f))
        if i % 10 == 9:
            steps.append(CNot(a, b) if i % 20 == 9 else Hadamard(a))
    return steps


FOUR = dict(num_qubits=4, blocks=((0, 1), (2, 3)))
# the blocks of FOUR and two qubits in none, which only a reset or a
# readout leaves clean
SIX = dict(num_qubits=6, blocks=((0, 1), (2, 3)))
_cnot = errormap.cnot_kernel


def _cleared_next(rounds, seed):
    """``rounds`` rounds in which qubits 4 and 5 are reset, carry data
    faults to a verification readout and a CNot, and are hit again until
    the next reset: the events between the verifier's readout and the
    reset act on qubits with nothing live, but for one pair event that
    also hits data qubit 1, and the reset clears what they flip."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(rounds):
        f = [float(x) for x in rng.uniform(0.01, 0.2, size=8)]
        steps += [OneQubitEvent(4, f[0]), TwoQubitEvent(4, 5, f[1]), Reset((4, 5)),
                  OneQubitEvent(4, f[2]), OneQubitEvent(5, f[3]), CNot(0, 4),
                  Hadamard(5), CNot(5, 2), OneQubitEvent(4, f[4]),
                  VerifyReadout((0, 1), 4), TwoQubitEvent(1, 4, f[5]),
                  OneQubitEvent(4, f[6]), TwoQubitEvent(5, 4, f[7])]
    return steps + [Reset((4, 5))]


def _drawn_and_skipped(prog):
    """The events with f > 0 ``_prepare`` draws per row, and those it
    skips."""
    ops, _ = montecarlo._prepare(prog, {})
    events = [args for function, args in ops if function is None]
    runs = [c for c in events if type(c) is int]
    return len(events) - len(runs), sum(runs)


class TestStreamIdentity:
    """The row-split sampler leaves the same keys, tallies and generator
    state as one ``rng.random(n)`` per event, for every thread count."""

    CASES = {
        # 1,408 drawing events
        "many-events": toy(_random_events(1408, 4, seed=1), **FOUR),
        # certain and impossible events, among others
        "f-0-and-1": toy([OneQubitEvent(0, 0.0), OneQubitEvent(1, 1.0)]
                         + _random_events(256 - 3, 4, seed=2)
                         + [TwoQubitEvent(2, 3, 1.0), OneQubitEvent(3, 0.0)]
                         + _random_events(256 + 5, 4, seed=3)
                         + [OneQubitEvent(2, 1.0)], **FOUR),
        "few-events": toy(_random_events(40, 4, seed=4, rates=(0.01, 0.2)), **FOUR),
        # with no injected fault the row buffers start empty; about half
        # the rows join them, one event at a time, into slots allocated
        # before the first event
        "buffer-grows": toy(_random_events(120, 4, seed=10, rates=(1e-3, 1e-2)), **FOUR),
        # events draw but never hit a row, so no kernel runs
        "never-hit": toy([OneQubitEvent(0, 0.0), CNot(0, 1), OneQubitEvent(1, 1e-15),
                          Hadamard(1), TwoQubitEvent(2, 3, 1e-15), Reset((0, 2))]
                         * 50, **FOUR),
        # events on qubits that a reset or a readout clears next are not
        # drawn; the serial reference draws them and the clear undoes them
        "cleared-next": toy(_cleared_next(20, seed=12), **SIX),
    }
    # the cases that start from no injected fault
    CLEAN = ("buffer-grows", "never-hit")

    # 1,000 rows cut evenly in two, unevenly in three and seven
    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", list(CASES))
    def test_keys_and_stream_match_serial_draws(self, monkeypatch, case, threads):
        prog = self.CASES[case]
        labels = initial_labels(prog, None if case in self.CLEAN else {1: Pauli.Z})
        kernels = []

        def cnot(keys, *args):
            kernels.append(keys.shape[0])
            _cnot(keys, *args)

        starts = []

        def walk(ops, hits, buffer):
            starts.append((buffer.first, buffer.slot.size, buffer.keys.shape[0]))
            evaluate(ops, hits, buffer)

        monkeypatch.setattr(errormap, "cnot_kernel", cnot)
        monkeypatch.setattr(montecarlo, "evaluate", walk)
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        keys, _ = _sample(prog, 1000, ours, labels, threads)
        assert (keys == _reference_keys(prog, 1000, ref, labels)).all()
        # each buffer holds a key for every row of its range from the start
        cuts = [1000 * i // threads for i in range(threads + 1)]
        assert sorted(starts) == [(r0, r1 - r0, r1 - r0) for r0, r1 in zip(cuts, cuts[1:])]
        assert ours.bit_generator.state == ref.bit_generator.state
        # both generators now stand at the next chunk's start
        faulted = _hit_rows(prog, 1000, ref)
        kernels.clear()  # the serial reference's CNots ran on every row
        keys, rows = _sample(prog, 1000, ours, labels, threads)
        crashes = _crashes(prog, keys)
        if case == "never-hit":
            assert crashes == rows == faulted == 0 and kernels == []
        else:
            assert 0 < crashes < 1000
        # the kernels run on the faulted rows only: those an event hit, or
        # every row once a fault is injected
        assert rows == (faulted if case in self.CLEAN else 1000)
        assert max(kernels, default=0) <= rows

    @pytest.mark.parametrize("n, threads", [(5, 7), (1, 2), (3, 3)])
    def test_more_threads_than_rows(self, n, threads):
        prog = self.CASES["few-events"]
        labels = initial_labels(prog, {1: Pauli.Z})
        ours, ref = np.random.default_rng(2), np.random.default_rng(2)
        keys, _ = _sample(prog, n, ours, labels, threads)
        assert (keys == _reference_keys(prog, n, ref, labels)).all()
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_two_chunks_match_serial_draws(self, threads):
        prog = toy(_random_events(256 + 40, 4, seed=5, rates=(1e-5, 1e-3)), **FOUR)
        iterations = _CHUNK + 100
        child = np.random.SeedSequence(3).spawn(1)[0]
        labels = initial_labels(prog, None)
        rng = np.random.default_rng(child)
        crashes = sum(_crashes(prog, _sample(prog, min(_CHUNK, iterations - done), rng,
                                             labels, threads)[0])
                      for done in range(0, iterations, _CHUNK))
        assert (crashes, rng.bit_generator.state) == _reference_shard(
            prog, iterations, child, labels)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_run_mc_matches_serial_draws(self, monkeypatch, threads):
        prog = self.CASES["many-events"]
        monkeypatch.setattr(montecarlo, "_THREADS", threads)
        rep = run_mc(prog, 3000, seed=8)
        child = np.random.SeedSequence(8).spawn(1)[0]
        assert rep.crashes == _reference_shard(prog, 3000, child, initial_labels(prog, None))[0]

    def test_many_threads_under_a_short_switch_interval(self):
        prog = self.CASES["many-events"]
        labels = initial_labels(prog, None)
        ref = _reference_keys(prog, 500, np.random.default_rng(9), labels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            keys, _ = _sample(prog, 500, np.random.default_rng(9), labels, 6)
        finally:
            sys.setswitchinterval(interval)
        assert (keys == ref).all()


class TestDeadEvents:
    """An event on qubits with no live component is not drawn; its stream
    positions are skipped, so each row's crash, the tally and the
    generator state are those of drawing every event."""

    def test_the_cleared_next_case_skips_runs_of_events(self):
        prog = TestStreamIdentity.CASES["cleared-next"]
        # of each round's eight events, the two before its reset and the
        # last two after its readout are skipped: one run of two at the
        # start and at the end, and one of four between rounds
        assert _drawn_and_skipped(prog) == (4 * 20, 4 * 20)
        ops, _ = montecarlo._prepare(prog, {})
        assert [a for f, a in ops if f is None and type(a) is int] == [2] + [4] * 19 + [2]

    def test_basic_program_draws_70_percent_of_its_events(self):
        prog = build_basic_program(NoiseParams())
        events = sum(step_kind(s).kernel is None and s.f > 0.0 for s in prog.steps)
        assert events == 26944
        assert _drawn_and_skipped(prog) == (18926, 8018)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_random_programs_crash_as_the_serial_draws(self, data):
        """Random steps on SIX, with resets and verification readouts:
        each row crashes as under the serial reference, which draws every
        event, and the generator ends where the reference's does."""
        qubits = st.integers(0, 5)
        f = st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0])
        pair = st.lists(qubits, min_size=2, max_size=2, unique=True)
        one = st.builds(OneQubitEvent, qubits, f)
        two = pair.flatmap(lambda q: st.builds(TwoQubitEvent, st.just(q[0]), st.just(q[1]), f))
        # events are half the steps
        step = st.one_of(
            one, two, one, two,
            st.builds(Hadamard, qubits),
            pair.map(lambda q: CNot(*q)),
            st.lists(qubits, min_size=1, max_size=3, unique=True).map(
                lambda q: Reset(tuple(q))),
            st.lists(qubits, min_size=2, max_size=4, unique=True).map(
                lambda q: VerifyReadout(tuple(q[1:]), q[0])),
        )
        prog = toy(data.draw(st.lists(step, min_size=4, max_size=40)), **SIX)
        faults = data.draw(st.dictionaries(qubits, st.sampled_from(list(Pauli)), max_size=2))
        labels = initial_labels(prog, faults)
        n = data.draw(st.integers(1, 300))
        threads = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2 ** 32))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        keys, _ = _sample(prog, n, ours, labels, threads)
        expected = _reference_keys(prog, n, ref, labels)
        crashed = ~qecc.correctable(keys, prog.crash_blocks)
        assert (crashed == ~qecc.correctable(expected, prog.crash_blocks)).all()
        assert _crashes(prog, keys) == _crashes(prog, expected)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_run_mc_tallies_as_the_serial_draws(self):
        prog = TestStreamIdentity.CASES["cleared-next"]
        child = np.random.SeedSequence(4).spawn(1)[0]
        rep = run_mc(prog, 3000, seed=4)
        assert rep.crashes == _reference_shard(prog, 3000, child, initial_labels(prog, None))[0]


class TestFaultedRows:
    """``MCReport.faulted_rows`` counts the rows the kernels ran on."""

    def test_a_row_hit_only_by_dead_events_is_not_counted(self):
        # the certain event on qubit 2 hits every row, but only the reset
        # reads qubit 2 after it; the event on qubit 0 is live
        prog = toy([OneQubitEvent(2, 1.0), Reset((2,)), OneQubitEvent(0, 0.01),
                    OneQubitEvent(2, 1.0)], num_qubits=3)
        assert _drawn_and_skipped(prog) == (1, 2)
        rep = run_mc(prog, 4000, seed=6)
        rng = np.random.default_rng(np.random.SeedSequence(6).spawn(1)[0])
        rng.random(4000)  # the first event's positions
        hits = int(np.count_nonzero(rng.random(4000) < 0.01))
        assert 0 < rep.faulted_rows == hits < 100
        assert rep.crashes == 0

    def test_counts_the_rows_some_event_hit(self):
        prog = toy(_random_events(40, 4, seed=11, rates=(1e-4, 1e-3)), **FOUR)
        iterations = _CHUNK + 1000
        rep = run_mc(prog, iterations, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        hits = sum(_hit_rows(prog, min(_CHUNK, iterations - done), rng)
                   for done in range(0, iterations, _CHUNK))
        assert 0 < rep.faulted_rows == hits < iterations

    def test_an_injected_fault_puts_every_row_in(self):
        prog = toy(_random_events(40, 4, seed=11, rates=(1e-4, 1e-3)), **FOUR)
        assert run_mc(prog, 300, seed=5, initial_errors={2: Pauli.Y}).faulted_rows == 300
        # the identity is no fault
        assert (run_mc(prog, 300, seed=5, initial_errors={2: Pauli.I}).faulted_rows
                == run_mc(prog, 300, seed=5).faulted_rows < 300)


def _kernel_kinds():
    return [kind for kind, spec in STEP_KINDS.items() if spec.kernel is not None]


class TestZeroKey:
    """Running kernels on faulted rows only is exact: every kernel leaves
    the zero key zero, also on no rows at all, and the zero key is
    correctable."""

    @pytest.fixture(scope="class")
    def examples(self):
        """The first step of each kind in the basic program."""
        return {type(s): s for s in reversed(build_basic_program(QUIET).steps)}

    @pytest.mark.parametrize("words", [1, 2])
    @pytest.mark.parametrize("kind", _kernel_kinds(), ids=lambda kind: kind.__name__)
    def test_kernel_keeps_the_zero_key(self, examples, kind, words):
        assert kind in examples, "no %s step in the basic program" % kind.__name__
        spec, step = STEP_KINDS[kind], examples[kind]
        width = len(spec.operands(step))
        # two words: the operands straddle the first word's end
        first = 0 if words == 1 else 32 - width // 2
        args = spec.args(step, tuple(range(first, first + width)))
        for rows in (5, 0):
            keys = np.zeros((rows, _nwords(first + width)), dtype=np.uint64)
            spec.function(keys, *args)
            assert keys.shape == (rows, words) and not keys.any()

    @pytest.mark.parametrize("words", [1, 2])
    def test_zero_key_is_correctable(self, words):
        blocks = [tuple(range(b, b + 7)) for b in range(0, 32 * words - 6, 7)]
        keys = np.zeros((3, words), dtype=np.uint64)
        assert qecc.correctable(keys, blocks).all()


class TestWorkers:
    """Each worker thread runs one contiguous row range, draws only its
    own rows' uniforms, and none outlives its chunk, whichever fails."""

    PROG = toy(_random_events(6 * 256, 4, seed=6), **FOUR)

    def _helpers(self):
        return [t for t in threading.enumerate() if t is not threading.main_thread()]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_worker_draws_only_its_rows(self, monkeypatch, threads):
        draw, walk, drawn, walked, counts = montecarlo._draw, montecarlo.evaluate, {}, {}, []

        class Recorded:
            """The worker's generator, recording the size of each draw."""

            def __init__(self, gen):
                self.gen, self.bit_generator = gen, gen.bit_generator

            def random(self, out):
                drawn.setdefault(threading.current_thread(), []).append(out.size)
                counts.append(threading.active_count())
                return self.gen.random(out=out)

        def drawing(ops, gen, n, m, failed):
            return draw(ops, Recorded(gen), n, m, failed)

        def walking(ops, hits, buffer):
            walked[threading.current_thread()] = buffer.slot.size
            walk(ops, hits, buffer)

        before = threading.active_count()
        monkeypatch.setattr(montecarlo, "_draw", drawing)
        monkeypatch.setattr(montecarlo, "evaluate", walking)
        _sample(self.PROG, 256, np.random.default_rng(0), initial_labels(self.PROG, None),
                threads)
        events = sum(step_kind(s).kernel is None for s in self.PROG.steps)
        assert threading.main_thread() not in drawn and len(drawn) == threads
        # a worker draws its own buffer's rows, and walks the hits it drew
        assert all(set(sizes) == {walked[t]} for t, sizes in drawn.items())
        # each worker draws its m rows once per event; the ranges cover n
        assert sorted(len(sizes) for sizes in drawn.values()) == [events] * threads
        assert sum(sizes[0] for sizes in drawn.values()) == 256
        assert all(len(set(sizes)) == 1 for sizes in drawn.values())
        assert max(counts) <= before + threads
        assert not any(t.is_alive() for t in drawn)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("error", [MemoryError, RuntimeError])
    def test_kernel_failure_on_a_worker_reaches_the_caller(self, monkeypatch, error, threads):
        calls = []

        def failing(keys, c, t):
            calls.append(threading.current_thread())
            if len(calls) == 20:
                raise error("kernel failed")

        before = self._helpers()
        monkeypatch.setattr(errormap, "cnot_kernel", failing)
        with pytest.raises(error, match="kernel failed"):
            _sample(self.PROG, 256, np.random.default_rng(0),
                    initial_labels(self.PROG, None), threads)
        assert threading.main_thread() not in calls
        assert self._helpers() == before

    def test_other_workers_stop_after_a_failure(self, monkeypatch):
        threads = 3
        started, raised = threading.Barrier(threads, timeout=10), threading.Event()
        draw, seen, cnots = montecarlo._draw, [], []

        def failing(keys, c, t):
            seen.append(raised.is_set())
            cnots.append(c)
            if len(cnots) > threads:
                return
            # every worker is at its first CNot; one fails, the others go on
            # only once the failure has been recorded
            if started.wait() == 0:
                raised.set()
                raise RuntimeError("kernel failed")
            assert raised.wait(10)
            time.sleep(0.05)

        def drawing(*args):
            # one item per op, drawn just before the walk runs that op
            for hit in draw(*args):
                seen.append(raised.is_set())
                yield hit

        monkeypatch.setattr(errormap, "cnot_kernel", failing)
        monkeypatch.setattr(montecarlo, "_draw", drawing)
        with pytest.raises(RuntimeError, match="kernel failed"):
            _sample(self.PROG, 256, np.random.default_rng(0),
                    initial_labels(self.PROG, None), threads)
        # no worker ran a step after the failure
        assert raised.is_set() and not any(seen)
