import math
import sys
import threading
import time

import numpy as np
import pytest

from paulitree import errormap, montecarlo, qecc
from paulitree.engine import run_analytical
from paulitree.errormap import (
    Thresholds,
    _int_from_row,
    _nwords,
    _slot,
    event_patterns,
)
from paulitree.montecarlo import _CHUNK, _RowBuffer, _wilson95, _xor_hits, run_mc
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    STEP_KINDS,
    CNot,
    Correct,
    Hadamard,
    OneQubitEvent,
    ProgramError,
    Reset,
    TwoQubitEvent,
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

    def test_thread_count_does_not_change_the_tally(self, monkeypatch):
        tallies = set()
        monkeypatch.setattr(montecarlo, "_THREADS", 5)
        for cpus in (1, 2, 5):
            monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
            tallies.add(run_mc(self.PROG, 8000, seed=9).crashes)
        assert len(tallies) == 1

    def test_fewer_iterations_than_threads(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 16)
        monkeypatch.setattr(montecarlo, "_THREADS", 16)
        rep = run_mc(self.PROG, 10, seed=0)
        assert rep.iterations == 10 and rep.threads == 10
        assert 0 <= rep.crashes <= 10

    def test_threads_are_capped(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 16)
        assert run_mc(self.PROG, 4096, seed=0).threads == montecarlo._THREADS
        assert run_mc(self.PROG, 1, seed=0).threads == 1

    def test_run_reads_the_first_spawned_child(self):
        child = np.random.SeedSequence(11).spawn(1)[0]
        rep = run_mc(self.PROG, 4096, seed=11)
        labels = initial_labels(self.PROG, None)
        assert rep.crashes == _reference_shard(self.PROG, 4096, child, labels)[0]

    def test_report_names_its_drawing_threads(self, monkeypatch):
        rep = run_mc(self.PROG, 4096, seed=11)
        assert rep.threads >= 1
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "_THREADS", 3)
        three = run_mc(self.PROG, 4096, seed=11)
        assert three.threads == 3
        assert three.crashes == rep.crashes


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
        # a non-zero start key puts every row in the buffer, in row order
        full = _RowBuffer(0, k + 2, start[0])
        full.keys[:] = start
        _xor_hits(full, patterns, f, np.array(u))
        keys = full.keys
        for i in range(k):
            assert (keys[i] == start[i] ^ patterns[i]).all()
        assert (keys[k:] == start[k:]).all()
        # from an empty buffer, the rows hit join with the zero key
        empty = _RowBuffer(0, k + 2, np.zeros(2, dtype=np.uint64))
        _xor_hits(empty, patterns, f, np.array(u))
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
_cnot = errormap.cnot_kernel


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
        # the rows join them, one event at a time, so with one thread the
        # buffer doubles from 64 slots three times
        "buffer-grows": toy(_random_events(120, 4, seed=10, rates=(1e-3, 1e-2)), **FOUR),
        # events draw but never hit a row, so no kernel runs
        "never-hit": toy([OneQubitEvent(0, 0.0), CNot(0, 1), OneQubitEvent(1, 1e-15),
                          Hadamard(1), TwoQubitEvent(2, 3, 1e-15), Reset((0, 2))]
                         * 50, **FOUR),
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

        monkeypatch.setattr(errormap, "cnot_kernel", cnot)
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        keys, _ = _sample(prog, 1000, ours, labels, threads)
        assert (keys == _reference_keys(prog, 1000, ref, labels)).all()
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
        if case == "buffer-grows":
            assert rows > 4 * montecarlo._FIRST_SLOTS

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
        monkeypatch.setattr(montecarlo, "_cpus", lambda: threads)
        monkeypatch.setattr(montecarlo, "_THREADS", threads)
        rep = run_mc(prog, 3000, seed=8)
        assert rep.threads == threads
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


class TestFaultedRows:
    """``MCReport.faulted_rows`` counts the rows the kernels ran on."""

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
        xor, drawn, counts = montecarlo._xor_hits, {}, []

        def xoring(buffer, patterns, f, u):
            assert u.size == buffer.slot.size
            drawn.setdefault(threading.current_thread(), []).append(u.size)
            counts.append(threading.active_count())
            xor(buffer, patterns, f, u)

        before = threading.active_count()
        monkeypatch.setattr(montecarlo, "_xor_hits", xoring)
        _sample(self.PROG, 256, np.random.default_rng(0), initial_labels(self.PROG, None),
                threads)
        events = sum(step_kind(s).kernel is None for s in self.PROG.steps)
        assert threading.main_thread() not in drawn and len(drawn) == threads
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
        xor, seen, cnots = montecarlo._xor_hits, [], []

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

        def xoring(*args):
            seen.append(raised.is_set())
            xor(*args)

        monkeypatch.setattr(errormap, "cnot_kernel", failing)
        monkeypatch.setattr(montecarlo, "_xor_hits", xoring)
        with pytest.raises(RuntimeError, match="kernel failed"):
            _sample(self.PROG, 256, np.random.default_rng(0),
                    initial_labels(self.PROG, None), threads)
        # no worker ran a step after the failure
        assert raised.is_set() and not any(seen)
