"""Structured observability: scheduler/simulator counters and cycle traces.

The package is intentionally dependency-free (it imports nothing from the
rest of :mod:`repro`) so that any layer — compiler, simulators, harness —
can use it without import cycles.
"""

from repro.obs.stats import (
    STATS_SCHEMA,
    NullStats,
    SchedStats,
    SimStats,
    record_schedule_occupancy,
)
from repro.obs.trace import TraceRecorder

__all__ = [
    "STATS_SCHEMA",
    "NullStats",
    "SchedStats",
    "SimStats",
    "TraceRecorder",
    "record_schedule_occupancy",
]
