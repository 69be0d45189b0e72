"""Per-layer split of a traced run: what the benchmark wraps inside
paulitree, and how spans and counters become the per-layer metrics.

The benchmark itself opens the ``program.*`` spans and the ``engine`` or
``montecarlo`` span around the public calls it makes.  Below those, the
module functions each engine calls are wrapped in place and restored
afterwards.  Two bindings need care: ``engine`` imports ``merge`` and
``split`` by name, so the engine's own names are the ones wrapped; and
``qecc`` imports ``_aggregate`` by name, so ``qecc._aggregate`` is wrapped
next to ``errormap._aggregate`` under the same span name, or the
aggregations done by the readout kernels would go missing.  A name a
refactor has removed is reported as absent instead of failing the run.
"""

from __future__ import annotations

import math

import numpy as np
from paulitree import engine, errormap, montecarlo, qecc
from paulitree.program import OneQubitEvent, TwoQubitEvent

from spans import Tracer

#: per-layer metric -> (unit, span it is read from or counted at);
#: ``.s`` and ``self_s`` are self times, ``.calls`` span counts
PER_LAYER = {
    "program.build_s": ("s", None),
    "program.elaborate_s": ("s", None),
    "program.hash_s": ("s", None),
    "program.steps": ("count", None),
    "program.event_steps": ("count", None),
    "program.faulty_row_share": ("ratio", None),
    "engine.self_s": ("s", "engine"),
    "engine.peak_entries": ("count", "engine"),
    "errormap.peak_key_bytes": ("B", "errormap.event_kernel"),
    "errormap.event_kernel.calls": ("count", "errormap.event_kernel"),
    "errormap.event_kernel.s": ("s", "errormap.event_kernel"),
    "errormap.event_kernel.new_key_ratio": ("ratio", "errormap.event_kernel"),
    "errormap.insert.s": ("s", "errormap.insert"),
    "errormap.aggregate.s": ("s", "errormap.aggregate"),
    "errormap.aggregate.rows_in": ("count", "errormap.aggregate"),
    "errormap.merge.calls": ("count", "errormap.merge"),
    "errormap.merge.s": ("s", "errormap.merge"),
    "errormap.merge.entries_out": ("count", "errormap.merge"),
    "errormap.split.s": ("s", "errormap.split"),
    "errormap.gate.s": ("s", "errormap.gate"),
    "errormap.clear.s": ("s", "errormap.clear"),
    "qecc.verify.s": ("s", "qecc.verify"),
    "qecc.syndrome.s": ("s", "qecc.syndrome"),
    "qecc.coset.s": ("s", "qecc.coset"),
    "qecc.correct.s": ("s", "qecc.correct"),
    "qecc.surviving_mass.s": ("s", "qecc.surviving_mass"),
    "montecarlo.one_qubit_event.s": ("s", "montecarlo.one_qubit_event"),
    "montecarlo.two_qubit_event.s": ("s", "montecarlo.two_qubit_event"),
    "montecarlo.gate.s": ("s", "montecarlo.gate"),
    "montecarlo.readout.s": ("s", "montecarlo.readout"),
    "montecarlo.self_s": ("s", "montecarlo"),
    "montecarlo.uniforms_drawn": ("count", "montecarlo.one_qubit_event"),
    "trace.overhead_s": ("s", None),
}


def _key_bytes(emap) -> int:
    """Bytes of a map's packed keys: one uint64 word per 32 qubits per entry."""
    return len(emap) * 8 * ((emap.width + 31) // 32)


def install(tracer: Tracer) -> None:
    """Wrap every engine-facing function; ``tracer.restore()`` undoes it."""
    c = tracer.counters
    em = errormap.ErrorMap

    def event_before(args):
        # branch rows offered = entries at or above the threshold times the
        # pattern count, read from the map before the kernel touches it
        emap, patterns, f, th = args[:4]
        probs = getattr(emap, "_probs", None)
        if probs is None:
            c["unreadable_maps"] += 1
            return len(emap), 0
        if f == 0.0:
            return len(emap), 0
        above = int(np.count_nonzero(probs >= th))
        above += sum(1 for p in getattr(emap, "_tail", {}).values() if p >= th)
        return len(emap), above * patterns.shape[0]

    def event_after(state, args, _):
        entries_before, offered = state
        c["new_keys"] += len(args[0]) - entries_before
        c["offered_rows"] += offered
        c["peak_key_bytes"] = max(c["peak_key_bytes"], _key_bytes(args[0]))

    def merge_after(_, __, merged):
        c["merge_entries_out"] += len(merged.map)
        c["peak_key_bytes"] = max(c["peak_key_bytes"], _key_bytes(merged.map))

    def aggregate_before(args):
        c["aggregate_rows_in"] += args[0].shape[0]

    def uniforms_before(args):
        # the kernel draws one uniform per row for an event with f > 0;
        # f is the second-to-last argument of both event kernels
        if args[-2] > 0.0:
            c["uniforms"] += args[0].shape[0]

    for owner, attr, name, before, after in (
        (em, "event_kernel", "errormap.event_kernel", event_before, event_after),
        (em, "_insert", "errormap.insert", None, None),
        (errormap, "_aggregate", "errormap.aggregate", aggregate_before, None),
        (qecc, "_aggregate", "errormap.aggregate", aggregate_before, None),
        (engine, "merge", "errormap.merge", None, merge_after),
        (engine, "split", "errormap.split", None, None),
        (em, "gate_hadamard", "errormap.gate", None, None),
        (em, "gate_cnot", "errormap.gate", None, None),
        (em, "clear_positions", "errormap.clear", None, None),
        (qecc, "verify_kernel", "qecc.verify", None, None),
        (qecc, "syndrome_kernel", "qecc.syndrome", None, None),
        (qecc, "coset_reduce_kernel", "qecc.coset", None, None),
        (qecc, "correct_kernel", "qecc.correct", None, None),
        (qecc, "surviving_mass", "qecc.surviving_mass", None, None),
        (montecarlo, "_one_qubit_event", "montecarlo.one_qubit_event", uniforms_before, None),
        (montecarlo, "_two_qubit_event", "montecarlo.two_qubit_event", uniforms_before, None),
        (montecarlo, "_hadamard", "montecarlo.gate", None, None),
        (montecarlo, "_cnot", "montecarlo.gate", None, None),
        (montecarlo, "_verify", "montecarlo.readout", None, None),
        (montecarlo, "_syndrome", "montecarlo.readout", None, None),
        (montecarlo, "_coset_reduce", "montecarlo.readout", None, None),
        (montecarlo, "_correct", "montecarlo.readout", None, None),
    ):
        tracer.wrap(owner, attr, name, before, after)


def program_counts(prog) -> dict[str, float]:
    """Step counts and the share of MC rows that ever see a fault,
    1 - prod(1 - f) over the event steps."""
    fs = [s.f for s in prog.steps if isinstance(s, (OneQubitEvent, TwoQubitEvent))]
    return {
        "program.steps": len(prog.steps),
        "program.event_steps": len(fs),
        "program.faulty_row_share": -math.expm1(math.fsum(math.log1p(-f) for f in fs)),
    }


def metrics(tracer: Tracer, known: dict[str, float], peak_entries: int) -> tuple[dict, list[str]]:
    """Per-layer metric values and the names whose span could not be
    recorded because the function behind it is gone.  ``known`` holds the
    values the caller measured itself (program, trace overhead)."""
    times = tracer.layer_times()
    c = tracer.counters
    opened = tracer.wrapped | {"engine", "montecarlo"}
    values = {
        "engine.peak_entries": peak_entries,
        "errormap.peak_key_bytes": c["peak_key_bytes"],
        "errormap.event_kernel.new_key_ratio":
            c["new_keys"] / c["offered_rows"] if c["offered_rows"] else 0.0,
        "errormap.aggregate.rows_in": c["aggregate_rows_in"],
        "errormap.merge.entries_out": c["merge_entries_out"],
        "montecarlo.uniforms_drawn": c["uniforms"],
        **known,
    }
    absent = [name for name, (_, span) in PER_LAYER.items()
              if span is not None and span not in opened
              or name == "errormap.event_kernel.new_key_ratio" and c["unreadable_maps"]]
    out = {}
    for name, (unit, span) in PER_LAYER.items():
        if name in absent:
            value = 0
        elif name in values:
            value = values[name]
        else:
            t = times.get(span)
            if name.endswith(".calls"):
                value = t.calls if t else 0
            else:
                value = t.self_s if t else 0.0
        out[name] = {"value": value, "unit": unit}
    return out, absent
