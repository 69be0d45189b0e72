"""Smoke test of the benchmark: every workload at reduced size, traced.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

import json
import types
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_reports_every_metric_and_passes_its_checks(name):
    record = run.run_workload(name, seed=1, seconds=0.0, trace=True, smoke=True)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] == 2  # one untraced, one traced

    e2e = run.result(record, trace=False)["metrics"]
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e.values())

    per_layer = run.result(record, trace=True)
    assert per_layer["correct"]
    assert {k: m["unit"] for k, m in per_layer["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    busy = "engine.self_s" if name.startswith("basic") else "montecarlo.self_s"
    assert per_layer["metrics"][busy]["value"] > 0
    assert (Path(run.ROOT) / record["trace_file"]).is_file()


def test_tracer_self_times_restore_and_missing_names():
    from spans import Tracer

    mod = types.SimpleNamespace(__name__="mod")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    tracer = Tracer("t")
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "gone", "gone")
    assert tracer.wrapped == {"inner", "outer"}
    assert mod.outer(1) == 4
    tracer.restore()
    assert (mod.inner, mod.outer) == original
    assert tracer.missing == ["mod.gone"]

    times = tracer.layer_times()
    (outer,) = [s for s in tracer.spans if s[0] == "outer"]
    (inner,) = [s for s in tracer.spans if s[0] == "inner"]
    assert inner[3] == tracer.spans.index(outer)
    assert times["outer"].self_s == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_host_clock_times_a_block_and_restores_sigalrm():
    import signal
    import time

    from hostclock import PERIOD_S, HostClock

    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    with clock.timed() as t:
        end = time.perf_counter() + 10 * PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(t.ticks) >= 5  # the one before the block and about one per period
    assert 0.5 * 10 * PERIOD_S < t.wall_s < 10 * PERIOD_S  # the ticks' share is left out
    assert t.ref_s > 0 and t.slowdown == pytest.approx(t.wall_s / t.ref_s)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with pytest.raises(ZeroDivisionError):
        with HostClock().timed() as t:
            1 / 0
    assert t.ticks and t.ref_s > 0  # a block that raises is still timed
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_mc_band_holds_the_reference_mean():
    for name in ("mc-1x", "mc-100x"):
        w = workloads.get(name)
        lo, hi = workloads.binomial_band(w.samples, *w.rate_range)
        assert lo <= w.samples * w.rate_range[0] and w.samples * w.rate_range[1] <= hi
        assert hi < 2 * w.samples * w.rate_range[1] + 20


def test_mc1x_tallies_have_the_power_the_band_lacks():
    w = workloads.get("mc-1x")
    # pooled over the recorded seeds the tallies agree with the reference rate
    n = w.samples * len(w.tallies)
    lo, hi = workloads.binomial_band(n, *w.rate_range)
    assert lo > 0 and lo <= sum(w.tallies) <= hi
    # an engine that loses faulted rows passes the band but not the tally
    seed = w.tallies.index(max(w.tallies))
    lost = types.SimpleNamespace(iterations=w.samples, crashes=0, seed=seed)
    assert workloads.binomial_band(w.samples, *w.rate_range)[0] == 0
    assert workloads.check_mc(w, lost)
    assert not workloads.check_mc(w, types.SimpleNamespace(
        iterations=w.samples, crashes=w.tallies[seed], seed=seed))
