"""Crash-rate estimation for error-corrected quantum programs.

Two engines over the same cycle-level program IR: an analytical
probability-tree model with configurable pruning thresholds
(:mod:`~paulitree.engine`) and a Monte Carlo fault-injection baseline
(:mod:`~paulitree.montecarlo`).  The analytical engine evolves each
:class:`ErrorMap` in place; a :class:`QubitSet` only carries a map and
its qubit IDs into and out of :func:`merge` and :func:`split`.  The
programs, the Steane-code recovery circuit among them, are built in
:mod:`~paulitree.program`; the code's tables and readout kernels are in
:mod:`~paulitree.qecc`.
"""

from .engine import FidelityReport, run_analytical
from .errormap import ErrorMap, MergeMode, QubitSet, Thresholds, merge, split
from .montecarlo import MCReport, run_mc
from .noise import ConfigError, NoiseParams, decoherence_prob, load_params, serialize_params
from .pauli import Pauli, PauliString, compose
from .program import (
    Program,
    ProgramError,
    Schedule,
    build_basic_program,
    build_recovery,
    build_scaling_program,
    elaborate,  # importable for perfbench only, so not in __all__
    parse_program,
    program_hash,
    serialize_program,
)
from .qecc import CHECK_MATRIX, count_nonfailing_states, decode_table

__all__ = [
    "CHECK_MATRIX",
    "ConfigError",
    "ErrorMap",
    "FidelityReport",
    "MCReport",
    "MergeMode",
    "NoiseParams",
    "Pauli",
    "PauliString",
    "Program",
    "ProgramError",
    "QubitSet",
    "Schedule",
    "Thresholds",
    "build_basic_program",
    "build_recovery",
    "build_scaling_program",
    "compose",
    "count_nonfailing_states",
    "decode_table",
    "decoherence_prob",
    "load_params",
    "merge",
    "parse_program",
    "program_hash",
    "run_analytical",
    "run_mc",
    "serialize_params",
    "serialize_program",
    "split",
]

__version__ = "0.1.0"
