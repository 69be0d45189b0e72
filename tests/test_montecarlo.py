import math
import sys
import threading

import numpy as np
import pytest

from paulitree import errormap, montecarlo, qecc
from paulitree.engine import run_analytical
from paulitree.errormap import (
    Thresholds,
    _int_from_row,
    _nwords,
    _slot,
    one_qubit_patterns,
    two_qubit_patterns,
)
from paulitree.montecarlo import _BLOCK, _CHUNK, _hits, _wilson95, _xor_hits, run_mc
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    CNot,
    Correct,
    Hadamard,
    OneQubitEvent,
    ProgramError,
    Reset,
    TwoQubitEvent,
    build_basic_program,
    initial_labels,
    step_kind,
    step_operands,
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


class TestReproducibility:
    PROG = toy([TwoQubitEvent(0, 1, 0.3)])

    def test_same_seed_same_tally(self):
        a = run_mc(self.PROG, 10000, seed=42)
        b = run_mc(self.PROG, 10000, seed=42)
        assert a.crashes == b.crashes

    def test_seeds_are_distinct_streams(self):
        counts = {run_mc(self.PROG, 65536, seed=s).crashes for s in range(4)}
        assert len(counts) > 1

    def test_sharding_is_deterministic(self):
        a = run_mc(self.PROG, 10000, seed=5, shards=4)
        b = run_mc(self.PROG, 10000, seed=5, shards=4)
        assert a.crashes == b.crashes
        assert a.shards == 4

    def test_worker_count_does_not_change_the_tally(self):
        serial = run_mc(self.PROG, 8000, seed=9, shards=4, jobs=1)
        parallel = run_mc(self.PROG, 8000, seed=9, shards=4, jobs=2)
        assert serial.crashes == parallel.crashes

    def test_uneven_iteration_split(self):
        rep = run_mc(self.PROG, 10, seed=0, shards=3)
        assert rep.iterations == 10
        assert 0 <= rep.crashes <= 10

    def test_single_shard_equals_run_mc(self):
        a = run_mc(self.PROG, 4096, seed=11)
        b = run_mc(self.PROG, 4096, seed=11, shards=1)
        assert a.crashes == b.crashes

    def test_report_names_its_drawing_threads(self, monkeypatch):
        rep = run_mc(self.PROG, 4096, seed=11)
        assert rep.threads >= 1
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        three = run_mc(self.PROG, 4096, seed=11)
        assert three.threads == 3
        assert three.crashes == rep.crashes


class TestValidationAndInjection:
    def test_argument_validation(self):
        prog = toy([])
        with pytest.raises(ValueError):
            run_mc(prog, 0, seed=0)
        with pytest.raises(ValueError):
            run_mc(prog, 10, seed=0, shards=0)

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
        (one_qubit_patterns(WIDTH, 33), (33,)),
        (two_qubit_patterns(WIDTH, 5, 34), (5, 34)),
    ], ids=["one-qubit", "two-qubit"])
    def test_mid_bin_uniform_draws_outcome_i(self, patterns, qubits):
        f = 0.3
        k = patterns.shape[0]
        # row i's uniform sits mid-way in outcome i's bin; the last two
        # rows draw f and above, so no fault
        u = [(i + 0.5) * f / k for i in range(k)] + [f, 0.99]
        rng = np.random.default_rng(4)
        start = rng.integers(0, 2 ** 63, size=(k + 2, 2), dtype=np.uint64)
        keys = start.copy()
        rows, hit = _hits(np.array(u), f)
        assert rows.tolist() == list(range(k))
        _xor_hits(keys, patterns, f, rows, hit)
        for i in range(k):
            assert (keys[i] == start[i] ^ patterns[i]).all()
        assert (keys[k:] == start[k:]).all()
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
    for step in prog.steps:
        spec = step_kind(step)
        qubits = step_operands(spec, step, width)
        if spec.patterns is not None:
            if step.f == 0.0:
                continue
            patterns = spec.patterns(width, *qubits)
            u = rng.random(n)
            rows = np.nonzero(u < step.f)[0]
            k = patterns.shape[0]
            pick = np.minimum((u[rows] * (k / step.f)).astype(np.int64), k - 1)
            for w in range(keys.shape[1]):
                keys[rows, w] ^= patterns[pick, w]
        elif spec.kernel is not None:
            spec.function(keys, *spec.args(step, qubits))
    return keys


def _reference_shard(prog, iterations, child, labels):
    """Crash count and final generator state of one shard, drawn serially."""
    rng = np.random.default_rng(child)
    crashes = 0
    for done in range(0, iterations, _CHUNK):
        n = min(_CHUNK, iterations - done)
        keys = _reference_keys(prog, n, rng, labels)
        crashes += n - int(np.count_nonzero(qecc.correctable(keys, prog.crash_blocks)))
    return crashes, rng.bit_generator.state


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


class TestStreamIdentity:
    """The threaded sampler leaves the same keys, tallies and generator
    state as one ``rng.random(n)`` per event, for every thread count."""

    CASES = {
        # 5.5 blocks: each of 3 threads draws two blocks and skips between
        "blocks": toy(_random_events(int(5.5 * _BLOCK), 4, seed=1), **FOUR),
        # certain and impossible events, among others and at block edges
        "f-0-and-1": toy([OneQubitEvent(0, 0.0), OneQubitEvent(1, 1.0)]
                         + _random_events(_BLOCK - 3, 4, seed=2)
                         + [TwoQubitEvent(2, 3, 1.0), OneQubitEvent(3, 0.0)]
                         + _random_events(_BLOCK + 5, 4, seed=3)
                         + [OneQubitEvent(2, 1.0)], **FOUR),
        "under-one-block": toy(_random_events(40, 4, seed=4, rates=(0.01, 0.2)), **FOUR),
    }

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_keys_and_stream_match_serial_draws(self, case, threads):
        prog = self.CASES[case]
        labels = initial_labels(prog, {1: Pauli.Z})
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        keys = montecarlo._sample(prog, 1000, ours, labels, threads)
        assert (keys == _reference_keys(prog, 1000, ref, labels)).all()
        assert ours.bit_generator.state == ref.bit_generator.state
        assert 0 < montecarlo._run_chunk(prog, 1000, ours, labels, threads) < 1000

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_two_chunks_match_serial_draws(self, threads):
        prog = toy(_random_events(_BLOCK + 40, 4, seed=5, rates=(1e-5, 1e-3)), **FOUR)
        iterations = _CHUNK + 100
        child = np.random.SeedSequence(3).spawn(1)[0]
        labels = initial_labels(prog, None)
        rng = np.random.default_rng(child)
        crashes = montecarlo._run_shard((prog, iterations, child, labels, threads))
        for done in range(0, iterations, _CHUNK):
            montecarlo._run_chunk(prog, min(_CHUNK, iterations - done), rng, labels, threads)
        assert (crashes, rng.bit_generator.state) == _reference_shard(
            prog, iterations, child, labels)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_sharded_pool_matches_serial_draws(self, monkeypatch, threads):
        prog = self.CASES["blocks"]
        # two worker processes share the CPUs, so 2W CPUs give W threads
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2 * threads)
        rep = run_mc(prog, 3000, seed=8, shards=3, jobs=2)
        assert rep.threads == threads
        children = np.random.SeedSequence(8).spawn(3)
        labels = initial_labels(prog, None)
        assert rep.crashes == sum(_reference_shard(prog, 1000, c, labels)[0] for c in children)

    def test_many_threads_under_a_short_switch_interval(self):
        prog = self.CASES["blocks"]
        labels = initial_labels(prog, None)
        ref = _reference_keys(prog, 500, np.random.default_rng(9), labels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            keys = montecarlo._sample(prog, 500, np.random.default_rng(9), labels, 6)
        finally:
            sys.setswitchinterval(interval)
        assert (keys == ref).all()


class TestHelperLifetime:
    """No drawing thread outlives a chunk, whichever thread fails."""

    PROG = toy(_random_events(6 * _BLOCK, 4, seed=6), **FOUR)

    def _helpers(self):
        return [t for t in threading.enumerate() if t is not threading.main_thread()]

    def test_failure_on_a_helper_reaches_the_caller(self, monkeypatch):
        draw = montecarlo._draw_block

        def failing(gen, n, fs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("helper out of memory")
            return draw(gen, n, fs)

        before = self._helpers()
        monkeypatch.setattr(montecarlo, "_draw_block", failing)
        with pytest.raises(MemoryError, match="helper out of memory"):
            montecarlo._sample(self.PROG, 256, np.random.default_rng(0),
                               initial_labels(self.PROG, None), 3)
        assert self._helpers() == before

    def test_failure_on_the_caller_joins_the_helpers(self, monkeypatch):
        calls = []

        def failing(keys, c, t):
            calls.append(c)
            if len(calls) == 20:
                raise RuntimeError("kernel failed")

        before = self._helpers()
        monkeypatch.setattr(errormap, "cnot_kernel", failing)
        with pytest.raises(RuntimeError, match="kernel failed"):
            montecarlo._sample(self.PROG, 256, np.random.default_rng(0),
                               initial_labels(self.PROG, None), 3)
        assert self._helpers() == before

    def test_one_thread_starts_no_other(self, monkeypatch):
        kernel, counts = errormap.cnot_kernel, []

        def counting(keys, c, t):
            counts.append(threading.active_count())
            kernel(keys, c, t)

        before = threading.active_count()
        monkeypatch.setattr(errormap, "cnot_kernel", counting)
        montecarlo._sample(self.PROG, 256, np.random.default_rng(0),
                           initial_labels(self.PROG, None), 1)
        assert counts and set(counts) == {before}

    @pytest.mark.parametrize("threads", [2, 3])
    def test_blocks_are_drawn_within_the_look_ahead(self, monkeypatch, threads):
        prog = toy(_random_events(16 * _BLOCK, 4, seed=10), **FOUR)
        fs = [s.f for s in prog.steps if step_kind(s).patterns is not None]
        block_of = {fs[s]: s // _BLOCK for s in range(0, len(fs), _BLOCK)}
        draw, xor = montecarlo._draw_block, montecarlo._xor_hits
        applied, leads, counts = [], [], []

        def drawing(gen, n, block_fs):
            # the caller is on the block after the events it has applied
            leads.append(block_of[block_fs[0]] - len(applied) // _BLOCK)
            counts.append(threading.active_count())
            return draw(gen, n, block_fs)

        def xoring(*args):
            applied.append(None)
            xor(*args)

        before = threading.active_count()
        monkeypatch.setattr(montecarlo, "_draw_block", drawing)
        monkeypatch.setattr(montecarlo, "_xor_hits", xoring)
        montecarlo._sample(prog, 256, np.random.default_rng(0),
                           initial_labels(prog, None), threads)
        assert len(block_of) == len(leads) == 16 and len(applied) == len(fs)
        assert 0 <= min(leads) and max(leads) <= montecarlo._AHEAD * threads
        assert max(counts) <= before + threads - 1
