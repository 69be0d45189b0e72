"""Independent brute-force reference for small programs.

Deliberately shares no code with the library: states are tuples of label
characters, the gate conjugations and label products are hand-written
lookup tables, and events are expanded by explicit recursion over every
outcome (4 for one-qubit events, 16 for two-qubit events), multiplying
path probabilities and classifying the leaves at the end.  The surviving
leaves are summed with ``math.fsum``, so the sum adds no rounding beyond
that of each path's product, however many leaves there are; with
``exact=True`` the whole evaluation is done in rationals instead.
"""

import math
from fractions import Fraction

from paulitree.program import CNot, Hadamard, OneQubitEvent, Reset, TwoQubitEvent

# product of two labels, global phase discarded
MUL = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}

# conjugation by a Hadamard
HAD = {"I": "I", "X": "Z", "Y": "Y", "Z": "X"}

# conjugation of a (control, target) label pair by a CNOT
CNOT = {
    ("I", "I"): ("I", "I"), ("I", "X"): ("I", "X"),
    ("I", "Y"): ("Z", "Y"), ("I", "Z"): ("Z", "Z"),
    ("X", "I"): ("X", "X"), ("X", "X"): ("X", "I"),
    ("X", "Y"): ("Y", "Z"), ("X", "Z"): ("Y", "Y"),
    ("Y", "I"): ("Y", "X"), ("Y", "X"): ("Y", "I"),
    ("Y", "Y"): ("X", "Z"), ("Y", "Z"): ("X", "Y"),
    ("Z", "I"): ("Z", "I"), ("Z", "X"): ("Z", "X"),
    ("Z", "Y"): ("I", "Y"), ("Z", "Z"): ("I", "Z"),
}

NON_IDENTITY = ("X", "Y", "Z")
PAIRS = [
    (a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")
]


def _leaves(state, steps, prob, num):
    """Yield (final_state, path_probability) over every event outcome,
    taking each event probability as ``num(f)`` (float or Fraction)."""
    if not steps:
        yield state, prob
        return
    step, rest = steps[0], steps[1:]
    if isinstance(step, OneQubitEvent):
        f = num(step.f)
        yield from _leaves(state, rest, prob * (1 - f), num)
        for lab in NON_IDENTITY:
            s = list(state)
            s[step.qubit] = MUL[(s[step.qubit], lab)]
            yield from _leaves(tuple(s), rest, prob * f / 3, num)
    elif isinstance(step, TwoQubitEvent):
        f = num(step.f)
        yield from _leaves(state, rest, prob * (1 - f), num)
        for la, lb in PAIRS:
            s = list(state)
            s[step.qubit_a] = MUL[(s[step.qubit_a], la)]
            s[step.qubit_b] = MUL[(s[step.qubit_b], lb)]
            yield from _leaves(tuple(s), rest, prob * f / 15, num)
    elif isinstance(step, Hadamard):
        s = list(state)
        s[step.qubit] = HAD[s[step.qubit]]
        yield from _leaves(tuple(s), rest, prob, num)
    elif isinstance(step, CNot):
        s = list(state)
        s[step.control], s[step.target] = CNOT[(s[step.control], s[step.target])]
        yield from _leaves(tuple(s), rest, prob, num)
    elif isinstance(step, Reset):
        s = list(state)
        for q in step.qubits:
            s[q] = "I"
        yield from _leaves(tuple(s), rest, prob, num)
    else:
        raise NotImplementedError("oracle does not model %r" % (step,))


def survival_probability(prog, exact: bool = False):
    """Mass of leaves where every crash block has at most one errored
    qubit: a float, or with ``exact`` the Fraction of the event
    probabilities as given."""
    num = Fraction if exact else float
    start = tuple("I" for _ in range(prog.num_qubits))
    total = sum if exact else math.fsum
    return total(
        prob for state, prob in _leaves(start, list(prog.steps), num(1), num)
        if all(
            sum(1 for q in block if state[q] != "I") <= 1
            for block in prog.crash_blocks
        )
    )
