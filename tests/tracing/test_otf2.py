"""Unit tests for the OTF2-like trace format."""

import numpy as np
import pytest

from repro.tracing import MetricDef, MetricStream, Trace
from tests.oracles.acquisition import window_mean


def _stream(name="power", times=(0.5, 1.5, 2.5), values=(1.0, 2.0, 3.0)):
    return MetricStream(
        definition=MetricDef(name, "W"),
        times_s=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
    )


class TestMetricStream:
    def test_window_mean(self):
        s = _stream()
        assert window_mean(s, 0.0, 2.0) == pytest.approx(1.5)
        assert window_mean(s, 0.0, 3.0) == pytest.approx(2.0)

    def test_empty_window_is_nan(self):
        s = _stream()
        assert np.isnan(window_mean(s, 10.0, 11.0))

    def test_window_boundaries_half_open(self):
        s = _stream(times=(1.0, 2.0), values=(10.0, 20.0))
        # [1.0, 2.0) includes the sample at exactly 1.0, not 2.0.
        assert window_mean(s, 1.0, 2.0) == pytest.approx(10.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="chronological"):
            _stream(times=(2.0, 1.0), values=(1.0, 2.0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MetricStream(MetricDef("x", ""), np.arange(3.0), np.arange(4.0))

    def test_rejects_invalid_window(self):
        with pytest.raises(ValueError):
            window_mean(_stream(), 2.0, 1.0)


class TestTraceEvents:
    def test_balanced_regions(self):
        t = Trace()
        t.record_enter("a", 0.0, 4)
        t.record_leave("a", 1.0, 4)
        t.record_enter("b", 1.0, 8)
        t.record_leave("b", 3.0, 8)
        assert t.phase_intervals() == [
            ("a", 0.0, 1.0, 4),
            ("b", 1.0, 3.0, 8),
        ]
        assert t.duration_s == 3.0

    def test_rejects_unbalanced_leave(self):
        t = Trace()
        t.record_enter("a", 0.0, 1)
        with pytest.raises(ValueError, match="unbalanced"):
            t.record_leave("b", 1.0, 1)

    def test_rejects_time_travel(self):
        t = Trace()
        t.record_enter("a", 5.0, 1)
        with pytest.raises(ValueError, match="chronological"):
            t.record_leave("a", 1.0, 1)

    def test_unclosed_region_detected(self):
        t = Trace()
        t.record_enter("a", 0.0, 1)
        with pytest.raises(ValueError, match="unclosed"):
            t.phase_intervals()

    def test_duplicate_metric_rejected(self):
        t = Trace()
        t.add_metric_stream(_stream())
        with pytest.raises(ValueError, match="duplicate"):
            t.add_metric_stream(_stream())
