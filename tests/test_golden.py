"""Bit-identity pins: program hashes, plan digests, analytical floats and
MC tallies.

The literals below were recorded from the basic benchmark and from the
four-logical-qubit scaling program, and are compared with ``==``.  A
change that is meant to leave results alone (refactoring the kernels,
the step dispatch, the planner or the text format) must keep every one
of them; a change that alters the step stream, the plan, the arithmetic
order or the use of random numbers on purpose re-records them and says
why.
"""

import dataclasses
import hashlib
import types

import pytest

from paulitree import (
    MergeMode,
    NoiseParams,
    Pauli,
    Thresholds,
    build_basic_program,
    build_scaling_program,
    engine,
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

# plan_digest(engine.plan(prog)) for the basic program at 1x and 100x
# noise and for build_scaling_program(4) at 1x
PLAN_1X = "bcbd4ea9f9734b085f71a62720af7aa523153324d111771014f423960d9d39e1"
PLAN_100X = "305921452388eeccba90c3fdd992ea52a74f24857dc7b835ef8e59c9b8953cce"
PLAN_SCALING_4 = "c01c0cceaad83f09cb831ef440e3d64511eb168bc79e8cee3bcea2870007f9f4"

# crash tallies at 100x noise, 4,096 samples, seeds 0-3
MC_100X_TALLIES = (1099, 1098, 1104, 1109)


def _canonical(x) -> str:
    """One plan value as text: a kernel (module, name) by the module's
    name, floats by repr, weights as hex, a segment by its fields."""
    if isinstance(x, engine.Segment):
        return "Segment(%s)" % ",".join(
            map(_canonical, (x.key, x.body, x.sids, x.inputs, x.outputs)))
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], types.ModuleType):
        return "%s.%s" % (x[0].__name__, x[1])
    if isinstance(x, (tuple, list)):
        return "(%s)" % ",".join(map(_canonical, x))
    if isinstance(x, dict):
        return "{%s}" % ",".join("%s:%s" % (_canonical(k), _canonical(v))
                                 for k, v in sorted(x.items()))
    if isinstance(x, bytes):
        return "b" + x.hex()
    if x is None or type(x) in (bool, int, float, str):
        return repr(x)
    raise TypeError("no canonical text for %r" % (x,))


def plan_digest(p: engine.Plan) -> str:
    """SHA-256 of a canonical text of a plan, one line per operation."""
    lines = [_canonical(p.groups), *map(_canonical, p.ops), _canonical(p.blocks), repr(p.steps)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fresh_steps(prog):
    """``prog`` with every step a distinct object, equal to the shared one."""
    return dataclasses.replace(prog, steps=tuple(dataclasses.replace(s) for s in prog.steps))


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


@pytest.mark.parametrize("build, digest", [
    (lambda: build_basic_program(NoiseParams()), PLAN_1X),
    (lambda: build_basic_program(NoiseParams(global_scale=100.0)), PLAN_100X),
    (lambda: build_scaling_program(4, NoiseParams()), PLAN_SCALING_4),
], ids=["basic-1x", "basic-100x", "scaling-4"])
def test_plan_digests(build, digest):
    assert plan_digest(engine.plan(build())) == digest


@pytest.mark.parametrize("scale, th, digest", [
    (1.0, Thresholds(1e-4, 1e-8), PLAN_1X),
    (100.0, Thresholds(1e-2, 1e-4), PLAN_100X),
], ids=["1x", "100x"])
def test_fresh_step_objects_plan_and_run_alike(programs, scale, th, digest):
    # the engines key per-call tables by step object; one object per
    # occurrence must give what the shared objects give
    shared, fresh = programs[scale], fresh_steps(programs[scale])
    assert len({id(s) for s in fresh.steps}) == len(fresh.steps)
    assert plan_digest(engine.plan(fresh)) == digest
    a, b = (dataclasses.replace(run_analytical(p, th), wall_time_s=0.0) for p in (shared, fresh))
    assert a == b
    if scale == 1.0:
        assert (b.branch_calls, b.segments_replayed) == (1572, 22)


def test_fresh_step_objects_sample_alike(programs):
    # at 100x noise, where 2,048 samples see some 580 crashes (none at 1x)
    shared, fresh = programs[100.0], fresh_steps(programs[100.0])
    assert run_mc(fresh, 2048, seed=1).crashes == run_mc(shared, 2048, seed=1).crashes


def test_mc_tallies(programs):
    got = tuple(run_mc(programs[100.0], 4096, seed=s).crashes for s in range(4))
    assert got == MC_100X_TALLIES


def test_mc_tally_with_injected_faults(programs):
    rep = run_mc(programs[100.0], 2048, seed=0, initial_errors={0: Pauli.X, 7: Pauli.Z})
    assert rep.crashes == 1119
