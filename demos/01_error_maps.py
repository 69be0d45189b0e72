"""A tour of error maps: the sparse distributions behind the simulator.

An error map assigns probabilities to Pauli strings — joint error
scenarios over a group of qubits.  Noise events branch the map, gates
permute its keys, and pruning thresholds decide which branches are worth
keeping.  Everything downstream (recovery circuits, crash rates) is
built out of these moves.

Run:  python3 demos/01_error_maps.py
"""

from paulitree import ErrorMap, MergeMode, QubitSet, Thresholds, merge, split
from paulitree.errormap import cnot_kernel, event_patterns

# Start from two error-free qubits and let a decoherence event with a
# 10% trigger probability act on qubit 0.  The error-free entry splits
# into a pass branch and three equally likely error branches.  A map
# evolves in place; the last argument is the event branch threshold.
m = ErrorMap.identity(2)
m.event_kernel(event_patterns(2, 0), 0.10, 0.0)
print("after a 10% event on qubit 0:")
print(m.dump())

# A CNOT does not create or destroy probability; it relabels.  The X
# component of the control copies onto the target, so the XI branch
# becomes XX — a two-qubit error made from a one-qubit fault.
m.apply((cnot_kernel, 0, 1))
print("\nafter CNOT 0 -> 1 (X spreads, Z would flow the other way):")
print(m.dump())
print("total probability:", m.total())

# Pruning: with an event branch threshold of 5%, entries below 5% pass
# through unexpanded.  The three 3.3% branches stay put; only the big
# pass-through entry branches again.
exact = ErrorMap.from_dict(dict(m.items()))
pruned = ErrorMap.from_dict(dict(m.items()))
exact.event_kernel(event_patterns(2, 1), 0.10, 0.0)
pruned.event_kernel(event_patterns(2, 1), 0.10, 0.05)
print("\nentries after another event  exact: %d   pruned at 5%%: %d"
      % (len(exact), len(pruned)))
print("both conserve mass:", exact.total(), pruned.total())

# Merging two independent sets takes a cross product.  The merge
# threshold bounds how small a joint probability is worth storing;
# Preservation keeps sub-threshold mass by collapsing it onto the more
# probable side's labels, Lossy just drops it.
a = QubitSet((0,), ErrorMap.from_dict({"I": 0.9, "X": 0.1}))
b = QubitSet((1,), ErrorMap.from_dict({"I": 0.95, "Z": 0.05}))
for mode in (MergeMode.PRESERVATION, MergeMode.LOSSY):
    out = merge(a, b, Thresholds(merge=0.02, merge_mode=mode))
    print("\nmerge at threshold 0.02, %s:" % mode.value)
    print(out.map.dump())
    print("total:", out.map.total())

# Splitting is the inverse for independent sets: each side gets its
# marginal back.  (Correlations, if any, are deliberately discarded —
# that is why the engine only splits freshly reset ancilla qubits.)
joint = merge(a, b, Thresholds())
left, right = split(joint, keep=[0])
print("\nsplit marginals:", dict(left.map.items()), dict(right.map.items()))
