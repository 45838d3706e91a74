"""Tracing substrate: OTF2-like traces, Score-P-like tracer with metric
plugins, and phase-profile extraction."""

from repro.tracing.otf2 import (
    MetricDef,
    MetricStream,
    RegionEvent,
    Trace,
    TraceBlock,
)
from repro.tracing.phases import (
    PhaseTable,
    haecsim_profiles,
    postprocess_profiles,
    profile_block,
    profile_trace,
)
from repro.tracing.plugins import (
    ApapiPlugin,
    MetricPlugin,
    PowerPlugin,
    VoltagePlugin,
)
from repro.tracing.scorep import ScorePTracer, trace_run

__all__ = [
    "Trace",
    "TraceBlock",
    "MetricDef",
    "MetricStream",
    "RegionEvent",
    "MetricPlugin",
    "PowerPlugin",
    "VoltagePlugin",
    "ApapiPlugin",
    "ScorePTracer",
    "trace_run",
    "PhaseTable",
    "profile_trace",
    "profile_block",
    "haecsim_profiles",
    "postprocess_profiles",
]
