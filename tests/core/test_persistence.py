"""Unit tests for model persistence."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OnlineEstimator,
    PowerModel,
    attribute,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


@pytest.fixture(scope="module")
def fitted(full_dataset, selected_counters):
    return PowerModel(selected_counters).fit(full_dataset)


class TestRoundtrip:
    def test_predictions_identical(self, fitted, full_dataset, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        restored = load_model(path)
        assert np.allclose(
            restored.predict(full_dataset), fitted.predict(full_dataset)
        )

    def test_metadata_preserved(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        restored = load_model(path)
        assert restored.counters == fitted.counters
        assert restored.cov_type == fitted.cov_type
        assert restored.rsquared == pytest.approx(fitted.rsquared)
        assert np.allclose(restored.ols.bse, fitted.ols.bse)

    def test_file_is_self_describing_json(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-power-model/1"
        assert "beta:V2f" in payload["coefficients"]

    def test_restored_model_attributes(self, fitted, full_dataset, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        restored = load_model(path)
        rates = {c: float(full_dataset.column(c)[0]) for c in restored.counters}
        att = attribute(
            restored,
            counter_rates=rates,
            voltage_v=float(full_dataset.voltage_v[0]),
            frequency_mhz=float(full_dataset.frequency_mhz[0]),
        )
        assert att.check_consistency()

    def test_restored_model_streams(self, fitted, full_dataset, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        restored = load_model(path)
        est = OnlineEstimator(restored)
        cycles = 2.4e9
        deltas = {
            c: float(full_dataset.column(c)[0]) * cycles
            for c in restored.counters
        }
        out = est.step(
            deltas, interval_s=1.0, voltage_v=0.97, frequency_mhz=2400
        )
        assert out.source == "model"
        assert out.power_w > 0


def _fit(payload, **changes):
    return {**payload, "fit": {**payload["fit"], **changes}}


def _bse(payload, value):
    return _fit(payload, bse=[value] * len(payload["fit"]["bse"]))


def _coef(payload, value):
    return {**payload, "coefficients": {**payload["coefficients"], "beta:V2f": value}}


class TestValidation:
    def test_wrong_format_rejected(self, fitted):
        payload = model_to_dict(fitted)
        payload["format"] = "something-else/9"
        with pytest.raises(ValueError, match="unsupported model format"):
            model_from_dict(payload)

    def test_missing_coefficient_rejected(self, fitted):
        payload = model_to_dict(fitted)
        del payload["coefficients"]["beta:V2f"]
        with pytest.raises(ValueError, match="missing coefficients"):
            model_from_dict(payload)

    def test_inconsistent_bse_rejected(self, fitted):
        payload = model_to_dict(fitted)
        payload["fit"]["bse"] = [1.0]
        with pytest.raises(ValueError, match="standard-error"):
            model_from_dict(payload)

    @pytest.mark.parametrize("key", ["rsquared", "rsquared_adj"])
    def test_missing_rsquared_rejected_by_name(self, fitted, key):
        """A missing R² is a malformed file, not a NaN the audit would
        grade as an invalid fit."""
        payload = model_to_dict(fitted)
        del payload["fit"][key]
        with pytest.raises(ValueError, match=f"'fit.{key}'"):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda p: [1, 2], id="not-an-object"),
            pytest.param(
                lambda p: {"format": p["format"], "counters": 5, "coefficients": {}},
                id="counters-not-a-list",
            ),
            pytest.param(lambda p: {**p, "counters": [3]}, id="counter-not-a-name"),
            pytest.param(
                lambda p: {**p, "counters": p["counters"][:1] * 2},
                id="duplicate-counters",
            ),
            pytest.param(lambda p: {**p, "coefficients": [1.0]}, id="coefficients-not-a-map"),
            pytest.param(lambda p: {**p, "fit": None}, id="fit-null"),
            pytest.param(lambda p: _coef(p, float("nan")), id="nan-coefficient"),
            pytest.param(lambda p: _coef(p, "1.5"), id="string-coefficient"),
            pytest.param(lambda p: _bse(p, float("inf")), id="infinite-bse"),
            pytest.param(lambda p: _bse(p, -1.0), id="negative-bse"),
            pytest.param(lambda p: _bse(p, 1e200), id="bse-variance-overflows"),
            pytest.param(lambda p: _fit(p, nobs="many"), id="nobs-not-an-int"),
            pytest.param(lambda p: {**p, "cov_type": "bogus"}, id="unknown-cov-type"),
        ],
    )
    def test_malformed_payload_raises_value_error(self, fitted, mutate):
        payload = mutate(model_to_dict(fitted))
        with pytest.raises(ValueError):
            model_from_dict(payload)


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


class TestFuzzedPayloads:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_loads_finite_or_raises(self, fitted, data):
        """Replace or delete one field anywhere in a valid payload: the
        load either yields finite parameters or raises ValueError."""
        payload = copy.deepcopy(model_to_dict(fitted))
        slots = [(payload, k) for k in payload]
        slots += [(payload["fit"], k) for k in payload["fit"]]
        slots += [(payload["coefficients"], k) for k in payload["coefficients"]]
        slots += [(payload["counters"], i) for i in range(len(payload["counters"]))]
        slots += [(payload["fit"]["bse"], i) for i in range(len(payload["fit"]["bse"]))]
        container, key = data.draw(st.sampled_from(slots))
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(_JSON)
        try:
            model = model_from_dict(payload)
        except ValueError:
            return
        assert np.all(np.isfinite(model.ols.params))
        assert np.all(np.isfinite(model.ols.cov_params))

    @given(payload=_JSON)
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_json_raises_value_error(self, payload):
        with pytest.raises(ValueError):
            model_from_dict(payload)
