"""Checkpoint recovery audit trail: the narrowed-except satellite.

``reset()`` and the corrupt-cell discard used to swallow *every*
``OSError``; now only ``FileNotFoundError`` (a concurrent cleanup — a
benign race) is absorbed, and each absorption lands in the manifest's
``events`` list.  Permission or I/O errors propagate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.acquisition.checkpoint import CampaignCheckpoint, cell_id
from tests.oracles.acquisition import PhaseProfile, profile_table

FP = "fingerprint-a"


def table(power_w=42.0):
    """One cell's phase table: a single profiled phase."""
    profile = PhaseProfile(
        workload="compute",
        suite="synthetic",
        frequency_mhz=2400,
        threads=8,
        run_index=0,
        phase_name="main",
        start_s=0.0,
        end_s=1.0,
        active_threads=8,
        power_w=power_w,
        voltage_v=1.05,
        counter_rates_per_s={"TOT_INS": 1e9},
    )
    return profile_table([[profile]])


def vanish_cells(monkeypatch):
    """Make every unlink of a cell archive hit the concurrent-cleanup
    race deterministically: the file disappears between discovery and
    deletion."""
    real_unlink = Path.unlink

    def racy_unlink(self, *args, **kwargs):
        if self.name.startswith("cell_"):
            real_unlink(self, *args, **kwargs)  # someone else cleaned up
            raise FileNotFoundError(self)
        return real_unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", racy_unlink)


def manifest_events(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    return manifest["events"]


class TestResetPath:
    def test_vanished_cell_logged_not_raised(self, tmp_path, monkeypatch):
        ckpt = CampaignCheckpoint(tmp_path, FP)
        cid = cell_id("compute", 2400, 8, 0, ("TOT_INS",))
        ckpt.store(cid, table())

        vanish_cells(monkeypatch)
        ckpt.reset()  # must absorb the race, not crash

        (event,) = ckpt.events()
        assert event["kind"] == "concurrent-cleanup"
        assert "vanished during reset" in event["detail"]
        assert f"cell_{cid}" in event["detail"]
        assert manifest_events(tmp_path) == ckpt.events()

    def test_init_time_reset_events_reach_manifest(
        self, tmp_path, monkeypatch
    ):
        # Fingerprint mismatch → __init__ resets; events raised before
        # the manifest exists are buffered into the first write.
        old = CampaignCheckpoint(tmp_path, "fingerprint-old")
        old.store(cell_id("idle", 2400, 8, 0, ("TOT_INS",)), table())

        vanish_cells(monkeypatch)
        fresh = CampaignCheckpoint(tmp_path, FP)

        kinds = [e["kind"] for e in fresh.events()]
        assert kinds == ["concurrent-cleanup"]
        assert manifest_events(tmp_path) == fresh.events()

    def test_other_oserror_propagates(self, tmp_path, monkeypatch):
        ckpt = CampaignCheckpoint(tmp_path, FP)
        ckpt.store(cell_id("compute", 2400, 8, 0, ("TOT_INS",)), table())

        def denied(self, *args, **kwargs):
            raise PermissionError(self)

        monkeypatch.setattr(Path, "unlink", denied)
        with pytest.raises(PermissionError):
            ckpt.reset()


class TestCorruptDiscardPath:
    def _corrupt(self, ckpt):
        cid = cell_id("compute", 2400, 8, 0, ("TOT_INS",))
        ckpt.cell_path(cid).write_bytes(b"not a zip archive")
        return cid

    def test_corrupt_cell_discard_is_audited(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, FP)
        cid = self._corrupt(ckpt)

        assert ckpt.load(cid) is None
        assert not ckpt.cell_path(cid).exists()
        (event,) = ckpt.events()
        assert event["kind"] == "corrupt-cell-discarded"
        assert f"cell_{cid}" in event["detail"]
        assert manifest_events(tmp_path) == ckpt.events()

    def test_vanished_during_discard_logged(self, tmp_path, monkeypatch):
        ckpt = CampaignCheckpoint(tmp_path, FP)
        cid = self._corrupt(ckpt)

        vanish_cells(monkeypatch)
        assert ckpt.load(cid) is None

        (event,) = ckpt.events()
        assert event["kind"] == "concurrent-cleanup"
        assert "corrupt-cell discard" in event["detail"]

    def test_discard_permission_error_propagates(self, tmp_path, monkeypatch):
        ckpt = CampaignCheckpoint(tmp_path, FP)
        cid = self._corrupt(ckpt)

        def denied(self, *args, **kwargs):
            if self.name.startswith("cell_"):
                raise PermissionError(self)
            return None

        monkeypatch.setattr(Path, "unlink", denied)
        with pytest.raises(PermissionError):
            ckpt.load(cid)


class TestEventPersistence:
    def test_events_survive_reopen(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, FP)
        cid = cell_id("compute", 2400, 8, 0, ("TOT_INS",))
        ckpt.cell_path(cid).write_bytes(b"garbage")
        ckpt.load(cid)
        assert len(ckpt.events()) == 1

        reopened = CampaignCheckpoint(tmp_path, FP)
        assert reopened.events() == ckpt.events()

    def test_clean_checkpoint_has_no_events(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, FP)
        cid = cell_id("compute", 2400, 8, 0, ("TOT_INS",))
        ckpt.store(cid, table())
        assert ckpt.load(cid) is not None
        assert ckpt.events() == []
        assert manifest_events(tmp_path) == []
