"""Preservation or Lossy: what to do with improbable joint states.

When two qubit groups merge, joint states below the merge threshold are
either collapsed onto their more probable half (Preservation — mass is
conserved, correlations are approximated) or discarded outright (Lossy —
cheaper, but probability leaks away).  Preservation over-estimates
survival, Lossy under-estimates it; as the threshold tightens, the two
brackets close on the same answer.

Runs in about a minute.
"""

from paulitree import (
    MergeMode,
    NoiseParams,
    Thresholds,
    build_basic_program,
    run_analytical,
)

prog = build_basic_program(NoiseParams())

print("%-10s %-16s %-16s %-12s" % (
    "merge th", "preservation", "lossy", "rel gap"))
for merge_th in (1e-10, 1e-12, 1e-14):
    reps = {
        mode: run_analytical(prog, Thresholds(1e-6, merge_th, mode))
        for mode in (MergeMode.PRESERVATION, MergeMode.LOSSY)
    }
    sp = reps[MergeMode.PRESERVATION].survival_probability
    sl = reps[MergeMode.LOSSY].survival_probability
    print("%-10g %-16.12f %-16.12f %-12.2e" % (
        merge_th, sp, sl, abs(sp - sl) / sp))

# Bookkeeping differs too: Preservation reports discarded_mass == 0
# exactly (survival + crash = 1), while Lossy accounts for the dropped
# states explicitly so the three numbers still sum to one.
rep = run_analytical(prog, Thresholds(1e-6, 1e-10, MergeMode.LOSSY))
print("\nlossy at 1e-10: survival %.9f + crash %.3e + discarded %.3e = %.12f"
      % (rep.survival_probability, rep.crash_probability, rep.discarded_mass,
         rep.survival_probability + rep.crash_probability + rep.discarded_mass))
