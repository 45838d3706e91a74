"""FaultPlan: validation, composition, scaling."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan


class TestValidation:
    def test_default_plan_inactive(self):
        plan = FaultPlan()
        assert not plan.any_active
        assert not plan.corrupts_traces

    def test_rates_bounded(self):
        with pytest.raises(ValueError, match="run_failure_rate"):
            FaultPlan(run_failure_rate=1.5)
        with pytest.raises(ValueError, match="nan_sample_rate"):
            FaultPlan(nan_sample_rate=-0.1)

    def test_kill_cells_alone_is_active(self):
        plan = FaultPlan(kill_cells=("compute:*",))
        assert plan.any_active
        assert not plan.corrupts_traces

    def test_trace_corruption_classification(self):
        assert FaultPlan(trace_truncation_rate=0.1).corrupts_traces
        assert FaultPlan(nan_sample_rate=0.1).corrupts_traces
        assert not FaultPlan(run_failure_rate=0.5).corrupts_traces


class TestComposition:
    def test_scaled_multiplies_and_caps(self):
        plan = FaultPlan(run_failure_rate=0.4, nan_sample_rate=0.6)
        half = plan.scaled(0.5)
        assert half.run_failure_rate == pytest.approx(0.2)
        capped = plan.scaled(10.0)
        assert capped.nan_sample_rate == pytest.approx(1.0)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            FaultPlan().scaled(-1.0)

    def test_combine_takes_max_and_unions_kills(self):
        a = FaultPlan(run_failure_rate=0.1, kill_cells=("a:*",))
        b = FaultPlan(run_failure_rate=0.3, sensor_stuck_rate=0.2,
                      kill_cells=("a:*", "b:*"))
        c = a.combine(b)
        assert c.run_failure_rate == pytest.approx(0.3)
        assert c.sensor_stuck_rate == pytest.approx(0.2)
        assert c.kill_cells == ("a:*", "b:*")

    def test_chaos_exercises_every_class(self):
        plan = FaultPlan.chaos(0.1)
        assert plan.any_active and plan.corrupts_traces
        assert plan.run_failure_rate == pytest.approx(0.1)
        assert 0.0 < plan.sensor_stuck_rate <= 1.0

    def test_describe_names_active_faults(self):
        text = FaultPlan(sensor_stuck_rate=0.25).describe()
        assert "sensor_stuck_rate=0.25" in text
        assert FaultPlan().describe() == "FaultPlan(inactive)"
