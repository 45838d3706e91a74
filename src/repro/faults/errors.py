"""Exception taxonomy of the fault subsystem.

Every error carries a ``kind`` tag — a short machine-readable label
("run-crash", "sensor-dropout", …) that the campaign loop aggregates
into the :class:`~repro.acquisition.campaign.CampaignReport` fault
statistics without parsing message strings.
"""

from __future__ import annotations

__all__ = ["FaultError", "RunFailure", "AcquisitionError"]


class FaultError(RuntimeError):
    """Base class of all injected / detected acquisition faults."""

    def __init__(self, message: str, *, kind: str = "fault") -> None:
        super().__init__(message)
        self.kind = kind


class RunFailure(FaultError):
    """A single instrumented run died (segfault, PAPI init failure,
    Score-P buffer exhaustion, node reboot mid-run, …).

    Transient by definition: re-executing the run may succeed, which is
    why the campaign loop retries it rather than aborting the whole
    multi-day campaign.
    """

    def __init__(self, message: str, *, kind: str = "run-crash") -> None:
        super().__init__(message, kind=kind)


class AcquisitionError(FaultError):
    """A run completed but produced implausible or incomplete data.

    Raised by the acquisition watchdog (:mod:`repro.faults.watchdog`)
    when a trace shows sensor dropout, a stuck power channel, PMC
    overflow, or lost phases — the "silent" failure modes that would
    otherwise poison the regression dataset.
    """
