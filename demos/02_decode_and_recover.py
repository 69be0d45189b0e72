"""Watching the [[7,1,3]] code fix faults, one injection at a time.

The code corrects any single-qubit error per 7-qubit block.  We build a
single fault-tolerant recovery (bit phase then phase phase, three
verified ancillas each, majority vote) at zero ambient noise and inject
faults by hand to see exactly where the distance-3 guarantee ends.

Run:  python3 demos/02_decode_and_recover.py
"""

import math

from paulitree import (
    NoiseParams,
    Pauli,
    Program,
    Schedule,
    Thresholds,
    build_recovery,
    run_analytical,
)
from paulitree.qecc import decode_table_text

print("decode table (syndrome bits -> errored position):")
print(decode_table_text())

# Zero ambient noise: infinite decay constants, zero gate error rates.
quiet = NoiseParams(
    memory_decay_s=math.inf, operation_decay_s=math.inf,
    transport_decay_s=math.inf, one_qubit_op_error=0.0,
    two_qubit_op_error=0.0, measurement_error=0.0, reset_error=0.0,
)

data = tuple(range(7))
ancilla = tuple(tuple(range(7 + 7 * k, 14 + 7 * k)) for k in range(3))
sched = Schedule(29, quiet)
build_recovery(sched, data, ancilla, verifier=28)
prog = Program(
    name="one-recovery", num_qubits=29,
    initial_partition=(data,) + ancilla + ((28,),),
    steps=tuple(sched.steps), crash_blocks=(data,),
    num_logical=1, num_cycles=sched.num_cycles,
)
print("\nrecovery circuit: %d cycles, %d steps" % (prog.num_cycles, len(prog.steps)))

# Every single-qubit error is corrected with certainty.
th = Thresholds()
for lab in (Pauli.X, Pauli.Y, Pauli.Z):
    ok = all(
        run_analytical(prog, th, initial_errors={q: lab}).survival_probability == 1.0
        for q in range(7)
    )
    print("all single %s faults corrected: %s" % (lab.name, ok))

# Two faults in one block exceed the code distance... usually.  The bit
# and phase components are decoded separately, so an X on one qubit
# plus a Z on another is still two weight-1 problems.
cases = [
    ({0: Pauli.X, 3: Pauli.Z}, "X0 + Z3 (one error per component)"),
    ({0: Pauli.X, 3: Pauli.X}, "X0 + X3 (two-qubit X component)"),
    ({2: Pauli.Y, 5: Pauli.Z}, "Y2 + Z5 (Z component on two qubits)"),
]
print()
for inject, label in cases:
    rep = run_analytical(prog, th, initial_errors=inject)
    verdict = "corrected" if rep.survival_probability == 1.0 else "crash"
    print("%-40s -> %s" % (label, verdict))

# Why the crash: the syndrome of a two-qubit X pattern points at a
# *third* qubit, so the "correction" raises the weight to three.  That
# is exactly the failure mode the crash observable counts.
