"""Acceptance gate: one test per promised behavior, at pinned tolerances.

Each criterion is a separate test so the pass/fail line names it.  The
heavyweight threshold sweep over the basic benchmark is computed once
(module-scoped fixture) and shared by the normalization, crash-band, and
merge-mode-bracket criteria.  The experiments are marked ``slow``
(``pytest -m "not slow"`` leaves them out); criteria 1 and 6 take under
a second and stay in the quick loop.

Two criteria pin a configuration this implementation cannot reach on a
desk-class machine, and their tests fail honestly rather than moving the
goalposts; their failure messages carry the measured evidence.  See the
module comments on those tests for the quantified analysis.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from paulitree.engine import run_analytical
from paulitree.errormap import MergeMode, Thresholds
from paulitree.montecarlo import run_mc
from paulitree.noise import NoiseParams
from paulitree.pauli import Pauli
from paulitree.program import (
    CNot,
    Hadamard,
    OneQubitEvent,
    Program,
    Schedule,
    TwoQubitEvent,
    build_basic_program,
    build_recovery,
    build_scaling_program,
)
from paulitree.qecc import count_nonfailing_states
from tests import oracle

TH0 = Thresholds()
ZERO_NOISE = NoiseParams(
    memory_decay_s=math.inf,
    operation_decay_s=math.inf,
    transport_decay_s=math.inf,
    one_qubit_op_error=0.0,
    two_qubit_op_error=0.0,
    measurement_error=0.0,
    reset_error=0.0,
)

EVENT_GRID = (1e-5, 1e-6, 1e-7)
MERGE_GRID = (1e-10, 1e-12, 1e-14, 1e-16)


@pytest.fixture(scope="module")
def basic_sweep():
    """(event_th, merge_th, mode) -> FidelityReport over the published
    sweep bounds of the basic two-logical-qubit benchmark."""
    prog = build_basic_program(NoiseParams())
    results = {}
    for mode in (MergeMode.PRESERVATION, MergeMode.LOSSY):
        for e in EVENT_GRID:
            for m in MERGE_GRID:
                th = Thresholds(e, m, mode)
                results[(e, m, mode)] = run_analytical(prog, th)
    return results


# -- criterion 1: oracle equivalence --------------------------------------


def _random_toy_program(rng):
    n = int(rng.integers(1, 5))
    steps = []
    events = 0
    two_qubit_events = 0
    target_events = int(rng.integers(1, 7))
    while events < target_events:
        if rng.random() < 0.4:  # sprinkle gate transforms between events
            if n >= 2 and rng.random() < 0.5:
                a, b = rng.choice(n, size=2, replace=False)
                steps.append(CNot(int(a), int(b)))
            else:
                steps.append(Hadamard(int(rng.integers(0, n))))
            continue
        f = float(rng.uniform(0.0, 0.3))
        if n >= 2 and two_qubit_events < 2 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            steps.append(TwoQubitEvent(int(a), int(b), f))
            two_qubit_events += 1
        else:
            steps.append(OneQubitEvent(int(rng.integers(0, n)), f))
        events += 1
    if n >= 3 and rng.random() < 0.5:
        cut = int(rng.integers(1, n))
        blocks = (tuple(range(cut)), tuple(range(cut, n)))
    else:
        blocks = (tuple(range(n)),)
    return Program(
        name="toy",
        num_qubits=n,
        initial_partition=(tuple(range(n)),),
        steps=tuple(steps),
        crash_blocks=blocks,
        num_logical=0,
        num_cycles=0,
    )


def test_criterion1_oracle_equivalence_on_random_toy_programs():
    rng = np.random.default_rng(20260823)
    for case in range(25):
        prog = _random_toy_program(rng)
        expected = oracle.survival_probability(prog)
        got = run_analytical(prog, TH0).survival_probability
        assert got == pytest.approx(expected, rel=1e-12), (
            "case %d: engine %.17g vs brute force %.17g on %r"
            % (case, got, expected, prog.steps)
        )


# -- criterion 2: normalization across the sweep --------------------------


@pytest.mark.slow
def test_criterion2_normalization_at_every_sweep_point(basic_sweep):
    for (e, m, mode), rep in basic_sweep.items():
        total = (
            rep.survival_probability
            + rep.crash_probability
            + rep.discarded_mass
        )
        assert total == pytest.approx(1.0, abs=1e-9), (e, m, mode)
        if mode is MergeMode.PRESERVATION:
            assert rep.discarded_mass == 0.0, (e, m)


# -- criterion 3: exhaustive distance-3 correction -------------------------


def _recovery_only_program():
    data = tuple(range(7))
    ancilla = tuple(tuple(range(7 + 7 * k, 14 + 7 * k)) for k in range(3))
    verifier = 28
    sched = Schedule(29, ZERO_NOISE)
    build_recovery(sched, data, ancilla, verifier)
    return Program(
        name="recovery",
        num_qubits=29,
        initial_partition=(data,) + ancilla + ((verifier,),),
        steps=tuple(sched.steps),
        crash_blocks=(data,),
        num_logical=1,
        num_cycles=sched.num_cycles,
    )


@pytest.mark.slow
def test_criterion3_distance3_exhaustive_correction():
    prog = _recovery_only_program()
    labels = (Pauli.X, Pauli.Y, Pauli.Z)

    for q in range(7):
        for lab in labels:
            rep = run_analytical(prog, TH0, initial_errors={q: lab})
            assert rep.survival_probability == 1.0, (
                "single %s on qubit %d not corrected" % (lab.name, q)
            )

    for qa in range(7):
        for qb in range(qa + 1, 7):
            for la in labels:
                for lb in labels:
                    rep = run_analytical(
                        prog, TH0, initial_errors={qa: la, qb: lb}
                    )
                    # each phase decodes its own component: a component
                    # spanning two qubits decodes to a third error, a
                    # component on one qubit is removed exactly
                    x_support = (la in (Pauli.X, Pauli.Y)) + (
                        lb in (Pauli.X, Pauli.Y)
                    )
                    z_support = (la in (Pauli.Z, Pauli.Y)) + (
                        lb in (Pauli.Z, Pauli.Y)
                    )
                    should_survive = x_support <= 1 and z_support <= 1
                    assert rep.survival_probability == (
                        1.0 if should_survive else 0.0
                    ), (
                        "pair %s@%d %s@%d: survival %r"
                        % (la.name, qa, lb.name, qb, rep.survival_probability)
                    )


# -- criterion 4: cross-engine agreement ----------------------------------


@pytest.mark.slow
def test_criterion4_crash_rate_order_of_magnitude(basic_sweep):
    rep = basic_sweep[(1e-7, 1e-16, MergeMode.PRESERVATION)]
    assert 1e-6 <= rep.crash_probability <= 1e-4


# The pinned analytical configuration for the stress comparison is
# (event 1e-7, merge 1e-16, Preservation) at 100x noise.  At that noise
# level the crash rate is ~0.27, the error maps carry millions of
# above-threshold entries, and a 1e-16 merge threshold asks for the
# near-exhaustive cross product of every merge (> 10^13 emitted pairs):
# the run exhausts desk-class memory long before finishing and cannot
# finish inside the 30-minute budget on any setting we measured
# ((1e-6, 1e-10) alone: 608 s, peak 14.4M entries, crash 0.2608, still
# outside the Monte Carlo interval below).  The test states the promised
# configuration and fails honestly on this hardware.
PINNED_SCALE100_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4_500_000_000, 4_500_000_000))
from paulitree.engine import run_analytical
from paulitree.errormap import MergeMode, Thresholds
from paulitree.noise import NoiseParams
from paulitree.program import build_basic_program
prog = build_basic_program(NoiseParams(global_scale=100.0))
th = Thresholds(1e-7, 1e-16, MergeMode.PRESERVATION)
try:
    rep = run_analytical(prog, th)
except MemoryError:
    print("MEMORY")
    sys.exit(3)
print("CRASH %.17g" % rep.crash_probability)
"""


@pytest.mark.slow
def test_criterion4_cross_engine_agreement_at_100x_noise():
    prog = build_basic_program(NoiseParams(global_scale=100.0))
    mc = run_mc(prog, 1_000_000, seed=42)
    ci99 = 2.5758 * math.sqrt(
        mc.crash_rate * (1.0 - mc.crash_rate) / mc.iterations
    )
    window = "MC 99%% CI = %.6f +/- %.6f (%.0f s)" % (
        mc.crash_rate, ci99, mc.wall_time_s
    )

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", PINNED_SCALE100_SCRIPT],
            capture_output=True, text=True, timeout=1500, env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(
            "analytical run at the pinned thresholds (1e-7, 1e-16, "
            "Preservation) still running after 1500 s; it cannot finish "
            "inside the 30-minute budget.  " + window
        )
    if proc.returncode != 0 or "CRASH" not in proc.stdout:
        pytest.fail(
            "analytical run at the pinned thresholds (1e-7, 1e-16, "
            "Preservation) exhausted memory (4.5 GB cap; rc=%d).  The "
            "1e-16 merge threshold at 100x noise keeps >1e13 merge pairs "
            "above threshold.  Best feasible setting measured: "
            "(1e-6, 1e-10) -> crash 0.2608 in 608 s, outside the %s"
            % (proc.returncode, window)
        )
    crash = float(proc.stdout.split("CRASH")[1])
    assert abs(crash - mc.crash_rate) <= ci99, (
        "analytical %.6f outside %s" % (crash, window)
    )


# -- criterion 5: merge-mode bracket and convergence ------------------------


@pytest.mark.slow
def test_criterion5_merge_mode_bracket_and_convergence(basic_sweep):
    coarse_p = basic_sweep[(1e-6, 1e-10, MergeMode.PRESERVATION)]
    coarse_l = basic_sweep[(1e-6, 1e-10, MergeMode.LOSSY)]
    assert (
        coarse_p.survival_probability >= coarse_l.survival_probability
    ), "preservation must bound lossy survival from above at coarse merge"

    fine_p = basic_sweep[(1e-6, 1e-16, MergeMode.PRESERVATION)]
    fine_l = basic_sweep[(1e-6, 1e-16, MergeMode.LOSSY)]
    gap = abs(
        fine_p.survival_probability - fine_l.survival_probability
    ) / fine_p.survival_probability
    assert gap <= 1e-3


# -- criterion 6: non-failing-state counts ----------------------------------


def test_criterion6_nonfailing_state_counts():
    assert count_nonfailing_states("steane713") == 22
    assert count_nonfailing_states("golay2135") == 1954


# -- criterion 7: scaling trends --------------------------------------------


@pytest.mark.slow
def test_criterion7_scaling_trends_are_monotone():
    th = Thresholds(1e-6, 1e-12, MergeMode.PRESERVATION)
    walls, peaks = [], []
    for n in (2, 4, 8):
        prog = build_scaling_program(n, NoiseParams())
        rep = run_analytical(prog, th)
        walls.append(rep.wall_time_s)
        peaks.append(rep.peak_error_map_entries)
    assert walls[0] < walls[1] < walls[2], walls
    assert peaks[0] < peaks[1] < peaks[2], peaks


# -- criterion 8: analytical speedup at matched accuracy ---------------------

# At 100x noise the crash rate is ~0.27, so Monte Carlo reaches 1%
# relative accuracy with only ~1e5 samples (seconds), while the
# analytical engine needs merge thresholds around 1e-12 or finer to get
# within 1% (hundreds of seconds to out-of-memory at this noise level).
# The tenfold-speedup promise holds in the low-noise regime the method
# was built for (at true parameters: crash 3.9e-5, analytical 17 s at
# the finest sweep point vs ~8e8 Monte Carlo samples, i.e. ~a day, for
# the same accuracy — a >1000x speedup), but not at the pinned 100x
# stress configuration.  The test measures the promise as stated and
# fails honestly, with the measured times in the message.
ANALYTICAL_LADDER = (
    Thresholds(1e-3, 1e-4, MergeMode.PRESERVATION),
    Thresholds(1e-4, 1e-6, MergeMode.PRESERVATION),
    Thresholds(1e-5, 1e-8, MergeMode.PRESERVATION),
)


@pytest.mark.slow
def test_criterion8_tenfold_speedup_at_matched_accuracy_100x_noise():
    prog = build_basic_program(NoiseParams(global_scale=100.0))
    pilot = run_mc(prog, 20_000, seed=42)
    p = pilot.crash_rate
    # samples for a 95% interval of +/-1% relative around p
    n_mc = int(math.ceil((1.96 / 0.01) ** 2 * (1.0 - p) / p))
    mc = run_mc(prog, n_mc, seed=42)
    budget = mc.wall_time_s / 10.0

    attempts = []
    for th in ANALYTICAL_LADDER:
        rep = run_analytical(prog, th)
        err = abs(rep.crash_probability - mc.crash_rate) / mc.crash_rate
        attempts.append((th, err, rep.wall_time_s))
        if err <= 0.01 and rep.wall_time_s <= budget:
            return  # matched accuracy at a tenth of the MC time
        if rep.wall_time_s > mc.wall_time_s:
            break  # finer settings only get slower; no point continuing
    lines = [
        "  (event %g, merge %g): %.1f%% off in %.1f s"
        % (th.event_branch, th.merge, 100 * err, wall)
        for th, err, wall in attempts
    ]
    pytest.fail(
        "no analytical setting reached 1%% accuracy within a tenth of the "
        "MC wall time (MC: %d samples to 1%%, %.1f s; budget %.2f s):\n%s\n"
        "finer settings are slower still ((1e-6, 1e-10): 608 s, 4.4%% off)."
        % (mc.iterations, mc.wall_time_s, budget, "\n".join(lines))
    )
