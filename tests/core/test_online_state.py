"""State snapshot round-trip of the online estimator.

The resume contract: an estimator restored from ``state_dict()``
mid-stream must be bit-identical to one that never stopped — every
subsequent estimate, breaker decision, drift latch and the final
``DriftReport`` match exactly (``==`` on floats, not approx).  The
uninterrupted reference is the serial oracle (``tests/oracles/online.py``),
and a state the oracle writes must load and resume the same way.

The loader's contract: a snapshot either loads or raises
``ValueError`` — never another exception type — and a rejected load
leaves the node exactly as it was.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import FittedPowerModel
from repro.core.online import (
    ONLINE_STATE_FORMAT,
    WARNINGS_KEPT,
    OnlineEstimator,
    PowerEnvelope,
)
from repro.serve.fleet import FleetEstimator
from repro.stats.ols import OLSResult
from tests.oracles.online import OnlineEstimator as SerialEstimator

COUNTERS = ("instructions", "cache-misses")


def synthetic_model():
    names = tuple(f"alpha:{c}" for c in COUNTERS) + (
        "beta:V2f", "gamma:V", "delta:Z",
    )
    params = np.array([8.0, 25.0, 12.0, 4.0, 18.0])
    k = len(params)
    ols = OLSResult(
        params=params,
        bse=np.ones(k),
        cov_params=np.eye(k),
        rsquared=0.99,
        rsquared_adj=0.99,
        nobs=100,
        df_model=k - 1,
        df_resid=100 - k,
        cov_type="HC3",
        fitted_values=np.zeros(100),
        residuals=np.zeros(100),
        exog_names=names,
        has_intercept=False,
    )
    return FittedPowerModel(counters=COUNTERS, ols=ols, cov_type="HC3")


def stream(rng, tick, *, degraded=False):
    deltas = {c: float(rng.uniform(0.0, 2e7)) for c in COUNTERS}
    if degraded:
        deltas["instructions"] = float("nan")
    return dict(
        counter_deltas=deltas,
        interval_s=0.5,
        voltage_v=float(rng.uniform(0.9, 1.2)),
        frequency_mhz=float(rng.uniform(1200.0, 2600.0)),
        time_s=0.5 * (tick + 1),
    )


def step(est, sample):
    return est.step(
        sample["counter_deltas"],
        interval_s=sample["interval_s"],
        voltage_v=sample["voltage_v"],
        frequency_mhz=sample["frequency_mhz"],
        time_s=sample["time_s"],
    )


KW = dict(
    smoothing=0.5,
    envelope=PowerEnvelope(5.0, 150.0),
    breaker_threshold=2,
    recovery_threshold=2,
    drift_window=5,
    drift_tolerance=0.4,
)


def assert_same_estimate(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    assert float(a.power_w) == float(b.power_w)
    assert float(a.smoothed_w) == float(b.smoothed_w)
    assert float(a.time_s) == float(b.time_s)
    assert a.source == b.source
    assert tuple(a.flags) == tuple(b.flags)


class TestOnlineStateRoundtrip:
    def test_resume_is_bit_identical(self):
        """Snapshot mid-stream — including mid breaker episode — and
        resume; the continuation must match the uninterrupted oracle."""
        model = synthetic_model()
        continuous = SerialEstimator(model, **KW)
        interrupted = OnlineEstimator(model, **KW)
        rng_a = np.random.default_rng(17)
        rng_b = np.random.default_rng(17)

        # Degraded ticks 6-9 leave the breaker open at the snapshot.
        for tick in range(10):
            degraded = tick >= 6
            assert_same_estimate(
                step(continuous, stream(rng_a, tick, degraded=degraded)),
                step(interrupted, stream(rng_b, tick, degraded=degraded)),
            )

        snapshot = interrupted.state_dict()
        assert snapshot["breaker_open"]
        assert snapshot == continuous.state_dict()
        resumed = OnlineEstimator(model, **KW)
        resumed.load_state(snapshot)

        for tick in range(10, 25):
            assert_same_estimate(
                step(continuous, stream(rng_a, tick)),
                step(resumed, stream(rng_b, tick)),
            )
        assert continuous.drift_report() == resumed.drift_report()

    def test_oracle_state_resumes_bit_identically(self):
        """A snapshot written by the serial oracle loads into production
        and continues exactly as the oracle does."""
        model = synthetic_model()
        oracle = SerialEstimator(model, **KW)
        rng_a = np.random.default_rng(23)
        rng_b = np.random.default_rng(23)
        for tick in range(12):
            sample = stream(rng_a, tick, degraded=tick in (3, 7, 8, 9))
            stream(rng_b, tick, degraded=tick in (3, 7, 8, 9))
            step(oracle, sample)
        resumed = OnlineEstimator(model, **KW)
        resumed.load_state(json.loads(json.dumps(oracle.state_dict())))
        assert resumed.state_dict() == oracle.state_dict()
        for tick in range(12, 30):
            assert_same_estimate(
                step(oracle, stream(rng_a, tick)),
                step(resumed, stream(rng_b, tick)),
            )
        assert oracle.drift_report() == resumed.drift_report()
        assert oracle.state_dict() == resumed.state_dict()

    def test_state_dict_is_json_serialisable(self):
        est = OnlineEstimator(synthetic_model(), **KW)
        rng = np.random.default_rng(2)
        for tick in range(4):
            step(est, stream(rng, tick))
        state = est.state_dict()
        assert state["format"] == ONLINE_STATE_FORMAT
        restored = OnlineEstimator(synthetic_model(), **KW)
        restored.load_state(json.loads(json.dumps(state)))
        assert restored.state_dict() == state

    def test_unknown_format_rejected(self):
        est = OnlineEstimator(synthetic_model(), **KW)
        state = est.state_dict()
        state["format"] = 99
        with pytest.raises(ValueError, match="format"):
            est.load_state(state)

    def test_malformed_state_rejected(self):
        est = OnlineEstimator(synthetic_model(), **KW)
        with pytest.raises(ValueError, match="dict"):
            est.load_state("not a dict")
        state = est.state_dict()
        del state["seen"]
        with pytest.raises(ValueError, match="malformed"):
            est.load_state(state)

    def test_invalid_values_rejected(self):
        est = OnlineEstimator(synthetic_model(), **KW)
        rng = np.random.default_rng(4)
        for tick in range(3):
            step(est, stream(rng, tick))
        bad_ewma = est.state_dict()
        bad_ewma["smoothed"] = float("inf")
        with pytest.raises(ValueError, match="EWMA"):
            est.load_state(bad_ewma)
        bad_counter = est.state_dict()
        bad_counter["seen"] = -1
        with pytest.raises(ValueError, match="non-negative"):
            est.load_state(bad_counter)
        long_window = est.state_dict()
        long_window["implausible_window"] = [False] * (KW["drift_window"] + 1)
        with pytest.raises(ValueError, match="window"):
            est.load_state(long_window)

    def test_rejected_load_leaves_estimator_usable(self):
        """A failed load must not half-apply: the estimator still
        steps and reports afterwards."""
        est = OnlineEstimator(synthetic_model(), **KW)
        rng = np.random.default_rng(6)
        step(est, stream(rng, 0))
        state = est.state_dict()
        state["format"] = 99
        with pytest.raises(ValueError):
            est.load_state(state)
        out = step(est, stream(rng, 1))
        assert np.isfinite(out.power_w)


def _snapshot():
    """A mid-stream snapshot with every field populated."""
    est = OnlineEstimator(synthetic_model(), **KW)
    rng = np.random.default_rng(8)
    for tick in range(9):
        step(est, stream(rng, tick, degraded=tick in (2, 5, 6)))
    return est.state_dict()


def _fleet_with_node():
    fleet = FleetEstimator(synthetic_model(), **KW)
    fleet.load_node_state("n", _snapshot())
    return fleet


def _assert_rejected_untouched(fleet, state):
    before = fleet.node_state("n")
    with pytest.raises(ValueError):
        fleet.load_node_state("n", state)
    assert fleet.node_state("n") == before
    with pytest.raises(ValueError):
        fleet.load_node_state("fresh", state)
    assert not fleet.has_node("fresh")


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


class TestStateValidation:
    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("n_intervals", float("inf"), id="infinite-count"),
            pytest.param("seen", 2**63, id="count-overflows-int64"),
            pytest.param("smoothed", [1.0], id="list-ewma"),
            pytest.param("last_time", "abc", id="string-timestamp"),
            pytest.param("last_time", float("nan"), id="nan-timestamp"),
            pytest.param("breaker_open", "no", id="string-flag"),
            pytest.param("implausible_window", "abc", id="string-window"),
            pytest.param("warnings", 3, id="int-warnings"),
        ],
    )
    def test_tampered_field_raises_value_error_untouched(self, key, value):
        state = _snapshot()
        state[key] = value
        _assert_rejected_untouched(_fleet_with_node(), state)
        est = OnlineEstimator(synthetic_model(), **KW)
        est.load_state(_snapshot())
        before = est.state_dict()
        with pytest.raises(ValueError):
            est.load_state(state)
        assert est.state_dict() == before

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_state_loads_or_raises_untouched(self, data):
        """Replace or delete one field of a valid snapshot (or one
        entry of its window/warnings): the load either succeeds with a
        state that round-trips, or raises ValueError and changes
        nothing."""
        state = copy.deepcopy(_snapshot())
        slots = [(state, k) for k in state]
        slots += [(state["implausible_window"], i)
                  for i in range(len(state["implausible_window"]))]
        slots += [(state["warnings"], i) for i in range(len(state["warnings"]))]
        container, key = data.draw(st.sampled_from(slots))
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(_JSON)
        fleet = _fleet_with_node()
        before = fleet.node_state("n")
        try:
            fleet.load_node_state("n", state)
        except ValueError:
            assert fleet.node_state("n") == before
            return
        loaded = fleet.node_state("n")
        assert json.loads(json.dumps(loaded)) == loaded
        fleet.load_node_state("n", loaded)
        assert fleet.node_state("n") == loaded


def _format1(state, warnings):
    """A format-1 snapshot: every warning kept, no ``n_warnings``."""
    legacy = {k: v for k, v in state.items() if k != "n_warnings"}
    return {**legacy, "format": 1, "warnings": warnings}


_MESSAGES = st.lists(st.text(max_size=12), max_size=3 * WARNINGS_KEPT)


class TestFormat1Migration:
    """Format 1 kept every warning; format 2 keeps a ring of the last
    ``WARNINGS_KEPT`` and counts them all in ``n_warnings``."""

    def test_format1_snapshot_migrates(self):
        warnings = [f"interval {i}: skipped" for i in range(40)]
        fleet = FleetEstimator(synthetic_model(), **KW)
        fleet.load_node_state("n", _format1(_snapshot(), warnings))
        state = fleet.node_state("n")
        assert state["format"] == ONLINE_STATE_FORMAT == 2
        assert state["n_warnings"] == 40
        assert state["warnings"] == warnings[-WARNINGS_KEPT:]
        assert fleet.drift_report("n").n_warnings == 40

    def test_format2_with_more_than_the_ring_rejected(self):
        state = _snapshot()
        state["warnings"] = ["w"] * (WARNINGS_KEPT + 1)
        state["n_warnings"] = WARNINGS_KEPT + 1
        _assert_rejected_untouched(_fleet_with_node(), state)

    def test_more_warnings_than_counted_rejected(self):
        state = _snapshot()
        state["n_warnings"] = len(state["warnings"]) - 1
        _assert_rejected_untouched(_fleet_with_node(), state)

    @given(warnings=_MESSAGES, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_format1_migrates_or_raises_untouched(self, warnings, data):
        """A format-1 snapshot with an arbitrary warning list and,
        sometimes, one field replaced or deleted: it migrates to the
        ring and the full count, or raises ValueError and changes
        nothing."""
        state = _format1(copy.deepcopy(_snapshot()), list(warnings))
        if data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(state)))
            if data.draw(st.booleans()):
                del state[key]
            else:
                state[key] = data.draw(_JSON)
        fleet = _fleet_with_node()
        before = fleet.node_state("n")
        try:
            fleet.load_node_state("n", state)
        except ValueError:
            assert fleet.node_state("n") == before
            return
        loaded = fleet.node_state("n")
        assert loaded["format"] == ONLINE_STATE_FORMAT
        if state.get("format") == 1:
            assert loaded["n_warnings"] == len(state["warnings"])
            assert loaded["warnings"] == list(state["warnings"])[-WARNINGS_KEPT:]
        fleet.load_node_state("n", json.loads(json.dumps(loaded)))
        assert fleet.node_state("n") == loaded

    @given(state=st.dictionaries(
        st.sampled_from(sorted(_snapshot())) | st.text(max_size=8),
        _JSON,
        max_size=8,
    ))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_format1_dict_raises_value_error_untouched(self, state):
        state = {**state, "format": 1}
        fleet = _fleet_with_node()
        before = fleet.node_state("n")
        try:
            fleet.load_node_state("n", state)
        except ValueError:
            assert fleet.node_state("n") == before
            return
        raise AssertionError(f"loaded an incomplete format-1 state: {state}")
