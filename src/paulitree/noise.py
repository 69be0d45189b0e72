"""Architecture noise and timing parameters, and duration-to-probability conversion.

Defaults are the electron-spin-on-helium machine's published timing and
noise figures.  A plain-text ``key = value`` config format overrides
individual fields; ``global_scale`` is a test-scale knob that multiplies
the four operation/measurement/reset error rates and divides the decay
constants so that desk-scale Monte Carlo runs see enough failures to
measure.  Scaling is applied by :meth:`NoiseParams.scaled`, not at load
time, so configs round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Malformed or out-of-range noise configuration."""


_RATE_FIELDS = (
    "one_qubit_op_error",
    "two_qubit_op_error",
    "measurement_error",
    "reset_error",
)
_DECAY_FIELDS = ("memory_decay_s", "operation_decay_s", "transport_decay_s")


@dataclass(frozen=True)
class NoiseParams:
    """Timing and noise parameter set.

    Times are in the units their names state; decay constants are the
    exponential time constants of the corresponding decoherence channels.
    """

    movement_speed_um_per_us: float = 100.0
    one_bit_op_time_us: float = 1.0
    two_bit_op_time_us: float = 1000.0
    memory_decay_s: float = 1e5
    operation_decay_s: float = 5e3
    transport_decay_s: float = 2.5e4
    one_qubit_op_error: float = 1e-6
    two_qubit_op_error: float = 1e-4
    measurement_error: float = 1e-4
    reset_error: float = 1e-6
    global_scale: float = 1.0

    def __post_init__(self):
        for name in _RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError("%s must be in [0, 1], got %r" % (name, v))
        for name in _DECAY_FIELDS + (
            "movement_speed_um_per_us",
            "one_bit_op_time_us",
            "two_bit_op_time_us",
            "global_scale",
        ):
            v = getattr(self, name)
            if not v > 0.0:  # written so that NaN fails too
                raise ConfigError("%s must be positive, got %r" % (name, v))

    def scaled(self) -> "NoiseParams":
        """Fold global_scale in: error rates multiplied, decay constants
        divided, and the scale reset to 1.  Idempotent at scale 1."""
        s = self.global_scale
        if s == 1.0:
            return self
        changes = {name: min(getattr(self, name) * s, 1.0) for name in _RATE_FIELDS}
        changes.update({name: getattr(self, name) / s for name in _DECAY_FIELDS})
        changes["global_scale"] = 1.0
        return dataclasses.replace(self, **changes)

    def with_scale(self, scale: float) -> "NoiseParams":
        return dataclasses.replace(self, global_scale=self.global_scale * scale)


def decoherence_prob(t_seconds: float, decay_constant_s: float) -> float:
    """Probability that a qubit decoheres over a duration: 1 - exp(-t/tau).

    Coincides with t/tau to first order at small arguments but stays
    bounded in [0, 1) under aggressive global_scale stress settings.
    """
    if t_seconds < 0:
        raise ValueError("duration must be non-negative")
    if decay_constant_s <= 0:
        raise ValueError("decay constant must be positive")
    return -math.expm1(-t_seconds / decay_constant_s)


_FIELD_NAMES = {f.name for f in dataclasses.fields(NoiseParams)}


def load_params(source: str) -> NoiseParams:
    """Parse ``key = value`` lines (``#`` comments, blank lines allowed).

    Absent keys take their defaults; unknown keys and unparsable or
    out-of-range values are rejected with the offending key named.
    """
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError("line %d: unknown parameter %r" % (lineno, key))
        if key in overrides:
            raise ConfigError("line %d: duplicate parameter %r" % (lineno, key))
        try:
            overrides[key] = float(value.strip())
        except ValueError:
            raise ConfigError("line %d: bad value for %r: %r" % (lineno, key, value.strip()))
    return NoiseParams(**overrides)


def serialize_params(params: NoiseParams) -> str:
    """Config text that :func:`load_params` parses back to identical values."""
    lines = [
        "%s = %r" % (f.name, getattr(params, f.name))
        for f in dataclasses.fields(NoiseParams)
    ]
    return "\n".join(lines) + "\n"
