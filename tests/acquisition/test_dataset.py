"""Unit tests for the PowerDataset container."""

import dataclasses

import numpy as np
import pytest

from repro.acquisition import PowerDataset
from repro.hardware import COUNTER_NAMES


def _dataset(n=6):
    rng = np.random.default_rng(0)
    return PowerDataset(
        counters=rng.uniform(0.0, 1.0, size=(n, 54)),
        power_w=rng.uniform(50.0, 250.0, size=n),
        voltage_v=np.full(n, 0.97),
        frequency_mhz=np.array([1200, 1200, 2400, 2400, 2400, 2600][:n], dtype=float),
        threads=np.array([1, 24, 1, 24, 24, 8][:n]),
        workloads=tuple(["a", "a", "a", "b", "b", "c"][:n]),
        suites=tuple(["roco2", "roco2", "roco2", "spec_omp2012", "spec_omp2012", "roco2"][:n]),
        phase_names=tuple(f"p{i}" for i in range(n)),
    )


class TestConstruction:
    def test_valid(self):
        ds = _dataset()
        assert ds.n_samples == 6

    def test_rejects_wrong_counter_width(self):
        ds = _dataset()
        with pytest.raises(ValueError):
            PowerDataset(
                counters=ds.counters[:, :10],
                power_w=ds.power_w,
                voltage_v=ds.voltage_v,
                frequency_mhz=ds.frequency_mhz,
                threads=ds.threads,
                workloads=ds.workloads,
                suites=ds.suites,
                phase_names=ds.phase_names,
            )

    def test_rejects_row_mismatch(self):
        ds = _dataset()
        with pytest.raises(ValueError):
            PowerDataset(
                counters=ds.counters,
                power_w=ds.power_w[:3],
                voltage_v=ds.voltage_v,
                frequency_mhz=ds.frequency_mhz,
                threads=ds.threads,
                workloads=ds.workloads,
                suites=ds.suites,
                phase_names=ds.phase_names,
            )

    def test_rejects_nonpositive_power(self):
        ds = _dataset()
        bad_power_w = ds.power_w.copy()
        bad_power_w[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            PowerDataset(
                counters=ds.counters,
                power_w=bad_power_w,
                voltage_v=ds.voltage_v,
                frequency_mhz=ds.frequency_mhz,
                threads=ds.threads,
                workloads=ds.workloads,
                suites=ds.suites,
                phase_names=ds.phase_names,
            )


    @pytest.mark.parametrize("column", ["power_w", "voltage_v"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_nonfinite_or_nonpositive(self, column, value):
        ds = _dataset()
        bad = getattr(ds, column).copy()
        bad[1] = value
        with pytest.raises(ValueError, match="finite and strictly positive"):
            dataclasses.replace(ds, **{column: bad})


class TestAccess:
    def test_column_by_name(self):
        ds = _dataset()
        idx = COUNTER_NAMES.index("PRF_DM")
        assert np.array_equal(ds.column("PRF_DM"), ds.counters[:, idx])

    def test_counter_matrix_order(self):
        ds = _dataset()
        m = ds.counter_matrix(["BR_MSP", "PRF_DM"])
        assert np.array_equal(m[:, 0], ds.column("BR_MSP"))
        assert np.array_equal(m[:, 1], ds.column("PRF_DM"))

    def test_frequency_hz(self):
        ds = _dataset()
        assert ds.frequency_hz[0] == pytest.approx(1.2e9)


class TestFilterSubset:
    def test_filter_by_suite(self):
        ds = _dataset()
        roco = ds.filter(suite="roco2")
        assert roco.n_samples == 4
        assert all(s == "roco2" for s in roco.suites)

    def test_filter_by_frequency(self):
        ds = _dataset()
        assert ds.filter(frequency_mhz=2400).n_samples == 3

    def test_filter_by_workloads(self):
        ds = _dataset()
        sub = ds.filter(workloads=["b", "c"])
        assert set(sub.workloads) == {"b", "c"}

    def test_combined_filters(self):
        ds = _dataset()
        sub = ds.filter(suite="roco2", frequency_mhz=1200)
        assert sub.n_samples == 2

    def test_subset_by_bool_mask(self):
        ds = _dataset()
        sub = ds.subset(ds.threads == 24)
        assert sub.n_samples == 3

    def test_subset_by_indices(self):
        ds = _dataset()
        sub = ds.subset(np.array([0, 5]))
        assert sub.workloads == ("a", "c")

    def test_bad_mask_length(self):
        ds = _dataset()
        with pytest.raises(ValueError):
            ds.subset(np.ones(3, dtype=bool))


class TestCombinators:
    def test_concat(self):
        a, b = _dataset(3), _dataset(4)
        both = PowerDataset.concat([a, b])
        assert both.n_samples == 7
        assert both.workloads == a.workloads + b.workloads

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerDataset.concat([])

    def test_experiment_keys(self):
        ds = _dataset()
        keys = ds.experiment_keys()
        assert ("a", 1200, 1) in keys
        assert len(keys) == len(set(keys))


class TestPersistence:
    @pytest.mark.parametrize("column", ["power_w", "voltage_v"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_load_rejects_nonfinite_or_nonpositive(self, tmp_path, column, value):
        ds = _dataset()
        path = tmp_path / "ds.npz"
        ds.save_npz(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[column][1] = value
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="finite and strictly positive"):
            PowerDataset.load_npz(path)

    def test_npz_roundtrip(self, tmp_path):
        ds = _dataset()
        path = tmp_path / "ds.npz"
        ds.save_npz(path)
        back = PowerDataset.load_npz(path)
        assert back.n_samples == ds.n_samples
        assert np.allclose(back.counters, ds.counters)
        assert np.allclose(back.power_w, ds.power_w)
        assert back.workloads == ds.workloads
        assert back.suites == ds.suites
        assert back.counter_names == ds.counter_names
