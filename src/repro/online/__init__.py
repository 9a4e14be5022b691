"""``repro.online`` -- the toolchain as a runtime, not just a compiler.

A :class:`MappingSession` ingests a typed event stream (dynamic task
arrivals/departures, traffic drift, hardware faults and recoveries),
keeps the served mapping valid with incremental repair, and runs a
supervised full-remap portfolio (inline, on the triggering event) when
quality drifts past the hysteresis threshold -- hot-swapping only when the migration-cost model
says the move pays for itself.  :mod:`repro.online.scenarios` fuzzes
event streams (churn bursts, correlated failures, flapping links) for
tests, benchmarks, and chaos soaks.  See ``docs/online.md``.
"""

from repro.online.events import (
    EVENT_KINDS,
    Arrival,
    Departure,
    Drift,
    Fault,
    Recovery,
    event_fingerprint,
    event_from_dict,
    event_to_dict,
)
from repro.online.scenarios import DEFAULT_RATES, Scenario, generate_scenario
from repro.online.session import (
    EventRecord,
    MappingSession,
    SessionConfig,
    SessionReport,
    mapping_fingerprint,
)

__all__ = [
    "Arrival",
    "Departure",
    "Drift",
    "Fault",
    "Recovery",
    "EVENT_KINDS",
    "event_to_dict",
    "event_from_dict",
    "event_fingerprint",
    "Scenario",
    "DEFAULT_RATES",
    "generate_scenario",
    "MappingSession",
    "SessionConfig",
    "SessionReport",
    "EventRecord",
    "mapping_fingerprint",
]
