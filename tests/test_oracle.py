"""The brute-force oracle's own rounding, against its exact evaluation."""

from fractions import Fraction

from paulitree.program import CNot, Hadamard, OneQubitEvent
from tests import oracle
from tests.test_engine import toy


def test_oracle_sum_adds_no_rounding_of_its_own():
    # 7 events at rates 0.1-0.4 make 16,384 leaves; summed in plain float
    # order they drift 1.2e-14 off the exact value
    prog = toy([
        OneQubitEvent(0, 0.1), OneQubitEvent(1, 0.25), OneQubitEvent(2, 0.3),
        CNot(1, 2), OneQubitEvent(1, 0.4), Hadamard(0), OneQubitEvent(2, 0.15),
        OneQubitEvent(0, 0.35), OneQubitEvent(2, 0.2),
    ], num_qubits=3, blocks=((0, 1, 2),))
    exact = oracle.survival_probability(prog, exact=True)
    assert isinstance(exact, Fraction)
    assert abs(Fraction(oracle.survival_probability(prog)) - exact) < Fraction(1e-16)
