"""Accuracy against cost: sweeping the pruning thresholds.

The analytical engine keeps the error probability tree sparse with two
knobs: the event branch threshold (when is an entry worth expanding)
and the merge threshold (when is a joint state worth storing).  This
sweep shows the crash rate of the two-logical-qubit benchmark
converging as the thresholds tighten, while the state count and wall
time grow.

Runs in about two minutes.  The same table comes out of the CLI:
    paulitree sweep --event-th 1e-5,1e-6 --merge-th 1e-10,1e-12,1e-14
"""

from paulitree import (
    MergeMode,
    NoiseParams,
    Thresholds,
    build_basic_program,
    run_analytical,
)

prog = build_basic_program(NoiseParams())
print("basic benchmark: %d qubits, %d cycles, %d steps\n"
      % (prog.num_qubits, prog.num_cycles, len(prog.steps)))

print("%-10s %-10s %-14s %-12s %-8s" % (
    "event th", "merge th", "crash", "peak states", "wall"))
finest = None
for event_th in (1e-5, 1e-6):
    for merge_th in (1e-10, 1e-12, 1e-14):
        th = Thresholds(event_th, merge_th, MergeMode.PRESERVATION)
        rep = run_analytical(prog, th)
        finest = rep
        print("%-10g %-10g %-14.6e %-12d %6.1f s" % (
            event_th, merge_th, rep.crash_probability,
            rep.peak_error_map_entries, rep.wall_time_s))

# The striking property: the crash rate is already within a fraction of
# a percent at thresholds that keep only tens of thousands of states —
# out of the 4^36 (~10^21) joint error states a dense representation
# would need.
print("\nconverged crash rate ~ %.3e; a dense distribution over this"
      % finest.crash_probability)
print("machine would need 4^%d entries." % prog.num_qubits)
