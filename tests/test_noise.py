import dataclasses
import math

import pytest

from paulitree.noise import (
    ConfigError,
    NoiseParams,
    decoherence_prob,
    load_params,
    serialize_params,
)


class TestDefaults:
    def test_published_parameter_set(self):
        p = NoiseParams()
        assert p.movement_speed_um_per_us == 100.0
        assert p.one_bit_op_time_us == 1.0
        assert p.two_bit_op_time_us == 1000.0
        assert p.memory_decay_s == 1e5
        assert p.operation_decay_s == 5e3
        assert p.transport_decay_s == 2.5e4
        assert p.one_qubit_op_error == 1e-6
        assert p.two_qubit_op_error == 1e-4
        assert p.measurement_error == 1e-4
        assert p.reset_error == 1e-6
        assert p.global_scale == 1.0

    def test_out_of_range_rejected_naming_the_field(self):
        with pytest.raises(ConfigError, match="two_qubit_op_error"):
            NoiseParams(two_qubit_op_error=1.5)
        with pytest.raises(ConfigError, match="memory_decay_s"):
            NoiseParams(memory_decay_s=0.0)
        with pytest.raises(ConfigError, match="measurement_error"):
            NoiseParams(measurement_error=-1e-9)

    def test_infinite_decay_means_no_decoherence(self):
        p = NoiseParams(memory_decay_s=math.inf)
        assert decoherence_prob(1.0, p.memory_decay_s) == 0.0


class TestDecoherenceProb:
    def test_zero_duration(self):
        assert decoherence_prob(0.0, 1e5) == 0.0

    def test_one_decay_constant(self):
        assert decoherence_prob(5.0, 5.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_small_argument_linearizes(self):
        # a 1 ms cycle against the 1e5 s memory decay constant
        f = decoherence_prob(1e-3, 1e5)
        assert f == pytest.approx(1e-8, rel=1e-6)

    def test_bounded_above(self):
        assert decoherence_prob(1e9, 1.0) == pytest.approx(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            decoherence_prob(-1.0, 1e5)
        with pytest.raises(ValueError):
            decoherence_prob(1.0, 0.0)


class TestScaling:
    def test_scaled_multiplies_rates_divides_decays(self):
        p = NoiseParams(global_scale=100.0).scaled()
        assert p.two_qubit_op_error == pytest.approx(1e-2)
        assert p.one_qubit_op_error == pytest.approx(1e-4)
        assert p.measurement_error == pytest.approx(1e-2)
        assert p.reset_error == pytest.approx(1e-4)
        assert p.memory_decay_s == pytest.approx(1e3)
        assert p.operation_decay_s == pytest.approx(50.0)
        assert p.transport_decay_s == pytest.approx(250.0)
        assert p.global_scale == 1.0
        # timing is not scaled
        assert p.two_bit_op_time_us == 1000.0

    def test_scaled_is_identity_at_one(self):
        p = NoiseParams()
        assert p.scaled() is p

    def test_rates_clamp_at_one(self):
        p = NoiseParams(global_scale=1e6).scaled()
        assert p.two_qubit_op_error == 1.0

    def test_with_scale_composes(self):
        p = NoiseParams().with_scale(10.0).with_scale(10.0)
        assert p.global_scale == 100.0


class TestConfigFormat:
    def test_empty_source_gives_defaults(self):
        assert load_params("") == NoiseParams()

    def test_overrides_comments_and_blanks(self):
        text = """
        # stress configuration
        two_qubit_op_error = 1e-3   # overridden
        global_scale = 10
        """
        p = load_params(text)
        assert p.two_qubit_op_error == 1e-3
        assert p.global_scale == 10.0
        assert p.memory_decay_s == 1e5  # untouched default

    def test_round_trip_is_exact(self):
        p = NoiseParams(two_qubit_op_error=3.07e-5, memory_decay_s=98765.4321)
        assert load_params(serialize_params(p)) == p

    def test_errors_name_the_offender(self):
        with pytest.raises(ConfigError, match="line 1.*frobnication"):
            load_params("frobnication = 3")
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            load_params("global_scale = 2\nglobal_scale = 3")
        with pytest.raises(ConfigError, match="reset_error"):
            load_params("reset_error = banana")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            load_params("reset_error: 0.1")
        with pytest.raises(ConfigError, match="two_qubit_op_error"):
            load_params("two_qubit_op_error = 2.0")

    @pytest.mark.parametrize("key", [
        "memory_decay_s", "operation_decay_s", "transport_decay_s",
        "one_bit_op_time_us", "global_scale", "reset_error",
    ])
    def test_nan_is_rejected_naming_the_key(self, key):
        with pytest.raises(ConfigError, match=key):
            load_params("%s = nan" % key)

    def test_serialize_covers_every_field(self):
        text = serialize_params(NoiseParams())
        for f in dataclasses.fields(NoiseParams):
            assert f.name in text
