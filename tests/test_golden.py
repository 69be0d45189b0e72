"""Bit-identity pins: program hashes, analytical floats and MC tallies.

The literals below were recorded from the basic benchmark and from the
four-logical-qubit scaling program, and are compared with ``==``.  A
change that is meant to leave results alone (refactoring the kernels,
the step dispatch or the text format) must keep every one of them; a
change that alters the step stream, the arithmetic order or the use of
random numbers on purpose re-records them and says why.
"""

import pytest

from paulitree import (
    MergeMode,
    NoiseParams,
    Pauli,
    Thresholds,
    build_basic_program,
    build_scaling_program,
    program_hash,
    run_analytical,
    run_mc,
)

HASH_1X = "91424ef33f8d055fa26acb1389c129e933e3d1ef750067b0e5a61ad322c5ec5e"
HASH_100X = "44c4162e0d9c5e5b49f9653eb3f84887b37a5e2fd389931eb98914da5aff9188"

# (scale, event threshold, merge threshold, merge mode) ->
# (survival, crash, discarded, peak entries)
ANALYTICAL = {
    (1.0, 1e-4, 1e-8, MergeMode.PRESERVATION):
        (0.9999964925211855, 3.5074788260480716e-06, 0.0, 2210),
    (100.0, 1e-2, 1e-4, MergeMode.PRESERVATION):
        (0.9906861967901304, 0.009313803209875404, 0.0, 1282),
    (100.0, 1e-2, 1e-4, MergeMode.LOSSY):
        (0.520968412174614, 0.0, 0.479031587825386, 715),
}

# build_scaling_program(4) at 1x noise: its widest set holds 41 qubits, so
# its keys take two words, where every key of the basic program fits in one
HASH_SCALING_4 = "f948cc477831f3607454b581f7fb4516e3efe8edda925847a5e070c3e4589741"
# (survival, crash, discarded, peak entries) at (1e-4, 1e-8, preservation)
ANALYTICAL_SCALING_4 = (0.9999948240623427, 5.175937676349385e-06, 0.0, 2883)

# crash tallies at 100x noise, 4,096 samples, seeds 0-3
MC_100X_TALLIES = (1099, 1098, 1104, 1109)


@pytest.fixture(scope="module")
def programs():
    return {scale: build_basic_program(NoiseParams(global_scale=scale))
            for scale in (1.0, 100.0)}


def test_program_hashes(programs):
    assert program_hash(programs[1.0]) == HASH_1X
    assert program_hash(programs[100.0]) == HASH_100X


@pytest.mark.parametrize("key", list(ANALYTICAL), ids=lambda k: "%gx-%s" % (k[0], k[3].value))
def test_analytical_floats(programs, key):
    scale, event, merge, mode = key
    rep = run_analytical(programs[scale], Thresholds(event, merge, mode))
    got = (rep.survival_probability, rep.crash_probability, rep.discarded_mass,
           rep.peak_error_map_entries)
    assert got == ANALYTICAL[key]


def test_scaling_program_on_two_word_keys():
    prog = build_scaling_program(4, NoiseParams())
    assert program_hash(prog) == HASH_SCALING_4
    rep = run_analytical(prog, Thresholds(1e-4, 1e-8, MergeMode.PRESERVATION))
    got = (rep.survival_probability, rep.crash_probability, rep.discarded_mass,
           rep.peak_error_map_entries)
    assert got == ANALYTICAL_SCALING_4


def test_mc_tallies(programs):
    got = tuple(run_mc(programs[100.0], 4096, seed=s).crashes for s in range(4))
    assert got == MC_100X_TALLIES


def test_mc_tally_with_injected_faults(programs):
    rep = run_mc(programs[100.0], 2048, seed=0, initial_errors={0: Pauli.X, 7: Pauli.Z})
    assert rep.crashes == 1119
