"""Fault model of the acquisition pipeline.

Declarative fault plans (:class:`FaultPlan`), a deterministic injector
that crashes runs and corrupts traces per plan (:class:`FaultInjector`),
the watchdog that detects the resulting corruption, and the exception
taxonomy the campaign loop retries on.
"""

from repro.faults.errors import (
    AcquisitionError,
    FaultError,
    RunFailure,
)
from repro.faults.injector import OVERFLOW_RATE_PER_S, FaultInjector
from repro.faults.ingest import IngestFaultInjector, IngestFaultPlan
from repro.faults.online import CounterLossPlan, OnlineFaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import (
    PLAUSIBLE_MAX_RATE_PER_S,
    STUCK_RUN_LENGTH,
    screen_block,
    validate_profiles,
    validate_trace,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "CounterLossPlan",
    "OnlineFaultInjector",
    "IngestFaultPlan",
    "IngestFaultInjector",
    "FaultError",
    "RunFailure",
    "AcquisitionError",
    "OVERFLOW_RATE_PER_S",
    "PLAUSIBLE_MAX_RATE_PER_S",
    "STUCK_RUN_LENGTH",
    "screen_block",
    "validate_trace",
    "validate_profiles",
]
