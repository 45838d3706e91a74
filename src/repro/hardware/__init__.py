"""Simulated x86 hardware substrate.

Everything the paper's methodology touches on the physical side —
DVFS states, PAPI counters, the PMU, calibrated power sensors, per-core
voltage telemetry and the chip's actual (bottom-up) power behaviour —
is modelled here.  See DESIGN.md §5 for how the generative structure
maps onto the paper's experimental observations.
"""

from repro.hardware.arm import (
    CORTEX_A15_CONFIG,
    CORTEX_A15_CURVE,
    CORTEX_A15_POWER_PARAMS,
)
from repro.hardware.config import HASWELL_EP_CONFIG, PlatformConfig
from repro.hardware.counters import (
    COUNTER_NAMES,
    FIXED_COUNTERS,
    PAPI_PRESETS,
    PROGRAMMABLE_COUNTERS,
    CounterSpec,
    counter_index,
    counters_in_group,
    describe,
)
from repro.hardware.dvfs import (
    HASWELL_EP_CURVE,
    PAPER_FREQUENCIES_MHZ,
    SELECTION_FREQUENCY_MHZ,
    OperatingPoint,
    PState,
    VoltageFrequencyCurve,
)
from repro.hardware.microarch import (
    HiddenActivity,
    MicroarchState,
    evaluate,
    place_threads,
)
from repro.hardware.platform import (
    PhaseExecution,
    Platform,
    RunExecution,
    WorkloadNameConflictError,
)
from repro.hardware.pmu import PMU, EventSet, schedule_events
from repro.hardware.power import (
    HASWELL_EP_POWER_PARAMS,
    PowerBreakdown,
    PowerModelParams,
    compute_power,
)
from repro.hardware.sensors import (
    PowerSensor,
    SensorArray,
    SensorCalibration,
    SensorFaults,
    apply_sensor_faults,
)
from repro.hardware.skylake import (
    SKYLAKE_SP_CONFIG,
    SKYLAKE_SP_CURVE,
    SKYLAKE_SP_POWER_PARAMS,
)
from repro.hardware.voltage import VoltageTelemetry

__all__ = [
    "PlatformConfig",
    "HASWELL_EP_CONFIG",
    "CounterSpec",
    "PAPI_PRESETS",
    "COUNTER_NAMES",
    "FIXED_COUNTERS",
    "PROGRAMMABLE_COUNTERS",
    "counter_index",
    "counters_in_group",
    "describe",
    "OperatingPoint",
    "PState",
    "VoltageFrequencyCurve",
    "HASWELL_EP_CURVE",
    "PAPER_FREQUENCIES_MHZ",
    "SELECTION_FREQUENCY_MHZ",
    "MicroarchState",
    "HiddenActivity",
    "evaluate",
    "place_threads",
    "PowerModelParams",
    "PowerBreakdown",
    "compute_power",
    "HASWELL_EP_POWER_PARAMS",
    "PMU",
    "EventSet",
    "schedule_events",
    "PowerSensor",
    "SensorArray",
    "SensorCalibration",
    "SensorFaults",
    "apply_sensor_faults",
    "VoltageTelemetry",
    "Platform",
    "RunExecution",
    "PhaseExecution",
    "WorkloadNameConflictError",
    "SKYLAKE_SP_CONFIG",
    "SKYLAKE_SP_CURVE",
    "SKYLAKE_SP_POWER_PARAMS",
    "CORTEX_A15_CONFIG",
    "CORTEX_A15_CURVE",
    "CORTEX_A15_POWER_PARAMS",
]
