"""Single-fault census: every live fault location of a program, at once.

Each live (event, outcome) of the Monte Carlo op list becomes one row,
hit by that outcome of that event and by nothing else, and all rows go
through :func:`paulitree.montecarlo.evaluate` in one walk.  A
fault-tolerant program corrects any single fault, so every row must be
correctable at the end: the exhaustive single-fault count of Aliferis,
Gottesman & Preskill (QIC 6, 97, 2006), at every location of the
program builders.  Criterion 3 injects faults only into the initial
data of a recovery-only program; this checks the whole program.

An event on qubits with no live component (a skip op) is left out: its
fault could only flip components that no later readout or the crash
observable reads.
"""

import numpy as np
import pytest

from paulitree import montecarlo, qecc
from paulitree.noise import NoiseParams
from paulitree.program import build_basic_program, build_scaling_program


def census(prog):
    """The row buffer of one walk over ``prog``'s op list with one row
    per live (event, outcome), rows numbered in op order, and the number
    of rows."""
    ops, start = montecarlo._prepare(prog, {})
    hits, rows = [], 0
    for function, args in ops:
        if function is None and type(args) is not int:
            k = args[0].shape[0]
            hits.append((np.arange(rows, rows + k), np.arange(k)))
            rows += k
        else:
            hits.append(None)
    buffer = montecarlo._RowBuffer(0, rows, start)
    montecarlo.evaluate(ops, hits, buffer)
    return buffer, rows


# live single faults: 3 per one-qubit event and 15 per pair event on
# qubits with a live component
@pytest.mark.parametrize("build, faults", [
    (lambda: build_basic_program(NoiseParams()), 65010),
    (lambda: build_scaling_program(2, NoiseParams()), 32841),
], ids=["basic", "scaling-2"])
def test_every_single_fault_is_corrected(build, faults):
    prog = build()
    buffer, rows = census(prog)
    assert rows == faults
    # every row joined once, at its own event, in row order
    assert buffer.count == rows
    assert (buffer.slot == np.arange(rows)).all()
    ok = qecc.correctable(buffer.keys[:rows], prog.crash_blocks)
    assert ok.all(), "%d of %d single faults crash" % (np.count_nonzero(~ok), rows)
