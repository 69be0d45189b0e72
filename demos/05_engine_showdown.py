"""Analytical model vs Monte Carlo: who wins where.

Monte Carlo cost scales with 1/crash_rate: rare failures need enormous
sample counts.  The analytical engine's cost scales with the size of the
pruned probability tree instead, which barely depends on how rare the
failures are.  So the analytical engine dominates in the realistic
low-noise regime, while plain sampling wins when noise is cranked up
high enough that failures are common.

Runs in about three minutes.
"""

import math

from paulitree import (
    NoiseParams,
    Thresholds,
    build_basic_program,
    run_analytical,
    run_mc,
)

# --- stress regime: noise x100, crashes are common ----------------------
loud = build_basic_program(NoiseParams(global_scale=100.0))
mc = run_mc(loud, 100_000, seed=42)
print("noise x100:  MC %d samples -> crash %.4f in [%.4f, %.4f]  in %.1f s"
      % (mc.iterations, mc.crash_rate, mc.ci95_low, mc.ci95_high, mc.wall_time_s))
rep = run_analytical(loud, Thresholds(1e-5, 1e-8))
print("             analytical (coarse) -> crash %.4f       in %.1f s"
      % (rep.crash_probability, rep.wall_time_s))
print("             sampling wins here: failures are cheap to observe.\n")

# --- realistic regime: published noise figures, crashes are rare --------
quiet = build_basic_program(NoiseParams())
rep = run_analytical(quiet, Thresholds(1e-6, 1e-12))
print("true noise:  analytical -> crash %.4e  in %.1f s"
      % (rep.crash_probability, rep.wall_time_s))

# How long would Monte Carlo need for 1% relative accuracy here?
p = rep.crash_probability
n_needed = (1.96 / 0.01) ** 2 * (1 - p) / p
per_sample = mc.wall_time_s / mc.iterations  # same machine, same program size
print("             MC for 1%% accuracy would need %.1e samples ~ %.0f hours"
      % (n_needed, n_needed * per_sample / 3600))
print("             speedup of the analytical model: ~%.0fx"
      % (n_needed * per_sample / rep.wall_time_s))

# A short MC run at true noise is still a useful consistency check:
mc = run_mc(quiet, 200_000, seed=1)
print("\nconsistency: MC %d samples -> %d crashes (rate %.2e), analytical %s"
      % (mc.iterations, mc.crashes, mc.crash_rate,
         "inside" if mc.ci95_low <= p <= mc.ci95_high else "OUTSIDE"))
print("the MC 95%% Wilson window [%.2e, %.2e]" % (mc.ci95_low, mc.ci95_high))
