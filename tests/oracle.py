"""Independent brute-force reference for small programs.

Deliberately shares no code with the library: states are tuples of label
characters, the gate conjugations and label products are hand-written
lookup tables, and events are expanded by explicit recursion over every
outcome (4 for one-qubit events, 16 for two-qubit events), multiplying
path probabilities and classifying the leaves at the end.
"""

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


def _leaves(state, steps, prob):
    """Yield (final_state, path_probability) over every event outcome."""
    if not steps:
        yield state, prob
        return
    step, rest = steps[0], steps[1:]
    if isinstance(step, OneQubitEvent):
        yield from _leaves(state, rest, prob * (1.0 - step.f))
        for lab in NON_IDENTITY:
            s = list(state)
            s[step.qubit] = MUL[(s[step.qubit], lab)]
            yield from _leaves(tuple(s), rest, prob * step.f / 3.0)
    elif isinstance(step, TwoQubitEvent):
        yield from _leaves(state, rest, prob * (1.0 - step.f))
        for la, lb in PAIRS:
            s = list(state)
            s[step.qubit_a] = MUL[(s[step.qubit_a], la)]
            s[step.qubit_b] = MUL[(s[step.qubit_b], lb)]
            yield from _leaves(tuple(s), rest, prob * step.f / 15.0)
    elif isinstance(step, Hadamard):
        s = list(state)
        s[step.qubit] = HAD[s[step.qubit]]
        yield from _leaves(tuple(s), rest, prob)
    elif isinstance(step, CNot):
        s = list(state)
        s[step.control], s[step.target] = CNOT[(s[step.control], s[step.target])]
        yield from _leaves(tuple(s), rest, prob)
    elif isinstance(step, Reset):
        s = list(state)
        for q in step.qubits:
            s[q] = "I"
        yield from _leaves(tuple(s), rest, prob)
    else:
        raise NotImplementedError("oracle does not model %r" % (step,))


def survival_probability(prog) -> float:
    """Mass of leaves where every crash block has at most one errored qubit."""
    start = tuple("I" for _ in range(prog.num_qubits))
    survival = 0.0
    for state, prob in _leaves(start, list(prog.steps), 1.0):
        if all(
            sum(1 for q in block if state[q] != "I") <= 1
            for block in prog.crash_blocks
        ):
            survival += prob
    return survival
