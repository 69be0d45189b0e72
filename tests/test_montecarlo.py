import math

import numpy as np
import pytest

from paulitree.engine import run_analytical
from paulitree.errormap import (
    Thresholds,
    _int_from_row,
    one_qubit_patterns,
    two_qubit_patterns,
)
from paulitree.montecarlo import _event, run_mc
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    CNot,
    Measure,
    MergeSets,
    OneQubitEvent,
    ProgramError,
    TwoQubitEvent,
    build_basic_program,
    elaborate,
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

    def test_ci95_formula(self):
        rep = run_mc(toy([TwoQubitEvent(0, 1, 0.3)]), 5000, seed=1)
        p = rep.crash_rate
        assert rep.ci95_halfwidth == pytest.approx(
            1.96 * math.sqrt(p * (1 - p) / 5000)
        )

    def test_zero_noise_never_crashes(self):
        prog = elaborate(build_basic_program(QUIET))
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


class TestValidationAndInjection:
    def test_argument_validation(self):
        prog = toy([])
        with pytest.raises(ValueError):
            run_mc(prog, 0, seed=0)
        with pytest.raises(ValueError):
            run_mc(prog, 10, seed=0, shards=0)
        with pytest.raises(ProgramError):
            run_mc(build_basic_program(QUIET), 10, seed=0)

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
        (MergeSets(0, 9), "undeclared"),
        (MergeSets(1, 1), "repeats a qubit"),
        (Measure((0, 9)), "undeclared"),
        (Measure((1, 1)), "repeats a qubit"),
    ])
    def test_repeated_or_undeclared_operands_rejected(self, step, message):
        with pytest.raises(ProgramError, match=message):
            run_mc(toy([step]), 16, seed=0)

    @pytest.mark.parametrize("f", [math.nan, 1.5, -0.2])
    def test_event_probability_outside_unit_interval_rejected(self, f):
        prog = toy([OneQubitEvent(0, f)])
        for run in (lambda: run_mc(prog, 16, seed=0),
                    lambda: run_analytical(prog, Thresholds())):
            with pytest.raises(ValueError, match=r"event probability must be in \[0, 1\]"):
                run()

    def test_injected_faults_are_deterministic(self):
        prog = elaborate(build_basic_program(QUIET))
        clean = run_mc(prog, 64, seed=1, initial_errors={3: Pauli.Y})
        assert clean.crashes == 0  # a single fault is always corrected
        crashed = run_mc(prog, 64, seed=1,
                         initial_errors={3: Pauli.X, 5: Pauli.X})
        assert crashed.crashes == 64  # a same-block pair never is


class _FixedUniforms:
    """Stands in for a generator: ``random(n)`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.shape[0]
        return self.u.copy()


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
        _event(keys, patterns, f, _FixedUniforms(u))
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
