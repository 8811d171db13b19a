"""Unit tests for the Telemetry facade and the ambient runtime."""

import math

import pytest

from repro.obs import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Profiler,
    SeriesBank,
    Telemetry,
    capture,
    get_telemetry,
    set_telemetry,
    use,
)


class TestTelemetryFlags:
    def test_null_telemetry_everything_off(self):
        assert NULL_TELEMETRY.active is False
        assert NULL_TELEMETRY.tracing is False
        assert NULL_TELEMETRY.metering is False
        assert NULL_TELEMETRY.profiling is False
        # Emitting through it is a no-op, never an error.
        NULL_TELEMETRY.emit("task", "submit", 0.0, task=1)

    def test_capture_arms_requested_pillars(self):
        tel = capture(trace=True, metrics=False, profile=True)
        assert tel.tracing and tel.profiling and not tel.metering
        assert tel.active

    def test_single_pillar_activates(self):
        tel = Telemetry(metrics=MetricsRegistry())
        assert tel.active and tel.metering
        assert not tel.tracing and not tel.profiling
        tel = Telemetry(profiler=Profiler())
        assert tel.active and tel.profiling


    @pytest.mark.parametrize("every", [math.nan, math.inf])
    def test_sample_every_must_be_positive_and_finite(self, every):
        with pytest.raises(ValueError, match="sample_every"):
            Telemetry(series=SeriesBank(), sample_every=every)


class TestAmbientTelemetry:
    def test_default_is_null(self):
        assert get_telemetry() is NULL_TELEMETRY

    def test_use_scopes_and_restores(self):
        tel = capture()
        with use(tel) as inside:
            assert inside is tel
            assert get_telemetry() is tel
        assert get_telemetry() is NULL_TELEMETRY

    def test_use_restores_on_exception(self):
        tel = capture()
        try:
            with use(tel):
                raise RuntimeError
        except RuntimeError:
            pass
        assert get_telemetry() is NULL_TELEMETRY

    def test_set_telemetry_none_resets(self):
        tel = capture()
        set_telemetry(tel)
        try:
            assert get_telemetry() is tel
        finally:
            set_telemetry(None)
        assert get_telemetry() is NULL_TELEMETRY
