"""Structured per-slot telemetry event streams (versioned JSONL).

A :class:`TelemetryRecorder` turns one scenario run into an append-only
JSONL stream of typed events, written under an opt-in telemetry
directory (``--telemetry DIR`` / ``$REPRO_TELEMETRY``).  The stream is
pure *observation*: the :class:`~repro.scenario.runner.ScenarioRunner`
emits events from state it already reads (backend samples, fault
engine applications, result totals), so a telemetry-enabled run drives
the simulation identically to a disabled one — seeded trace digests
are byte-for-byte the same either way, which CI gates.

Timestamps are **slot time** (the workload's slot counter plus the
kernel's simulated clock ``sim_now``), never the wall clock: streams
from two machines of different speeds are byte-comparable.

Event schema (``v`` = :data:`SCHEMA_VERSION`, pinned; adding a kind or
a field bumps it)::

    run-start  {v, event, scenario, backend, nodes, slots, seed}
    slot       {v, event, slot, slots_covered, sim_now,
                series: {storage_mb, traffic_mbit,
                         traffic_dag_mbit, traffic_pop_mbit},
                deltas:  {… same keys, change since previous record …},
                counters: {backend-specific montonic totals},
                counter_deltas: {… change since previous record …}}
    fault      {v, event, slot, kind, detail}
    run-end    {v, event, slot, sim_now, blocks, validations,
                success_rate, events, trace_sha256}

``slot`` events fire at the runner's existing slot boundaries (sample
slots, fault boundaries, the final slot) — telemetry never adds
boundaries, because chunking is observable to some backends (PBFT
settles per driven chunk).  Each record therefore covers
``slots_covered`` slots ending at ``slot``.

:func:`validate_record` / :func:`validate_stream` check a stream
against this schema; ``python -m repro telemetry validate`` is the CLI
face CI uses.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.telemetry.stream import (  # noqa: F401  (re-exported API)
    NUMBER,
    StreamRecorder,
    StreamSchema,
    TelemetryError,
    discover_streams,
)

#: The pinned stream schema version; every record carries it as ``v``.
SCHEMA_VERSION = 1

#: Environment override enabling telemetry without a CLI flag.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Event kinds, in emission order.
RUN_START = "run-start"
SLOT = "slot"
FAULT = "fault"
RUN_END = "run-end"
EVENT_KINDS = (RUN_START, SLOT, FAULT, RUN_END)

#: The series keys every ``slot`` record carries (the runner's
#: canonical sampled series — see repro.scenario.runner.SERIES_KEYS).
SLOT_SERIES_KEYS = (
    "storage_mb", "traffic_mbit", "traffic_dag_mbit", "traffic_pop_mbit"
)

#: Required fields per event kind: name -> required python type(s).
_FIELDS = {
    RUN_START: {
        "scenario": (str,),
        "backend": (str,),
        "nodes": (int,),
        "slots": (int,),
        "seed": (int,),
    },
    SLOT: {
        "slot": (int,),
        "slots_covered": (int,),
        "sim_now": NUMBER,
        "series": (dict,),
        "deltas": (dict,),
        "counters": (dict,),
        "counter_deltas": (dict,),
    },
    FAULT: {
        "slot": (int,),
        "kind": (str,),
        "detail": (str,),
    },
    RUN_END: {
        "slot": (int,),
        "sim_now": NUMBER,
        "blocks": (int,),
        "validations": (int,),
        "success_rate": NUMBER,
        "events": (int,),
        "trace_sha256": (str,),
    },
}


def _check_slot(record: Dict[str, Any], where: str) -> None:
    """The ``slot`` record's series/counter mapping checks."""
    if record["event"] != SLOT:
        return
    for mapping_field in ("series", "deltas"):
        mapping = record[mapping_field]
        if sorted(mapping) != sorted(SLOT_SERIES_KEYS):
            raise TelemetryError(
                f"{where}slot {mapping_field} must carry exactly "
                f"{list(SLOT_SERIES_KEYS)}, got {sorted(mapping)}"
            )
    for mapping_field in ("series", "deltas", "counters", "counter_deltas"):
        for key, value in record[mapping_field].items():
            if not isinstance(value, NUMBER) or isinstance(value, bool):
                raise TelemetryError(
                    f"{where}slot {mapping_field}[{key!r}] must be "
                    f"numeric, got {type(value).__name__}"
                )
    if sorted(record["counters"]) != sorted(record["counter_deltas"]):
        raise TelemetryError(
            f"{where}slot counters and counter_deltas must carry the "
            f"same keys"
        )


#: The v1 per-slot stream format.
EVENT_SCHEMA = StreamSchema(
    version=SCHEMA_VERSION,
    records=_FIELDS,
    prefix="run",
    label="telemetry",
    version_noun="schema version",
    kind_noun="event kind",
    check_record=_check_slot,
)

validate_record = EVENT_SCHEMA.validate_record
parse_stream = EVENT_SCHEMA.parse
validate_stream = EVENT_SCHEMA.validate
stream_filename = EVENT_SCHEMA.filename


def telemetry_dir_from_env() -> Optional[str]:
    """The ``$REPRO_TELEMETRY`` directory, or ``None`` when unset."""
    value = os.environ.get(TELEMETRY_ENV_VAR, "").strip()
    return value or None


class TelemetryRecorder(StreamRecorder):
    """Write one run's per-slot event stream under a telemetry directory.

    A :class:`~repro.telemetry.stream.RunObserver`: each hook reads what
    it needs from the backend (``sample()``, ``telemetry_counters()``,
    ``current_time()``) and the recorder does the bookkeeping
    (per-record deltas, schema construction, JSONL writing).
    """

    schema = EVENT_SCHEMA

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self._last_series: Dict[str, float] = {}
        self._last_counters: Dict[str, float] = {}

    def summary(self) -> str:
        """One line naming the stream and its size."""
        return f"telemetry stream: {self.path} ({self.records_written} record(s))"

    def run_started(self, spec, backend) -> None:
        """Open the stream and emit the ``run-start`` record."""
        self._open(spec)
        self._last_series = {}
        self._last_counters = {}
        self._write({
            "v": SCHEMA_VERSION,
            "event": RUN_START,
            "scenario": spec.name,
            "backend": spec.backend,
            "nodes": spec.node_count,
            "slots": spec.workload.slots,
            "seed": spec.seed,
        })

    def slot_advanced(self, slot: int, slots_covered: int, backend) -> None:
        """Emit one ``slot`` record (deltas computed vs the previous)."""
        series = backend.sample()
        series_now = {key: float(series[key]) for key in SLOT_SERIES_KEYS}
        counters_now = {
            key: float(value)
            for key, value in backend.telemetry_counters().items()
        }
        deltas = {
            key: value - self._last_series.get(key, 0.0)
            for key, value in series_now.items()
        }
        counter_deltas = {
            key: value - self._last_counters.get(key, 0.0)
            for key, value in counters_now.items()
        }
        self._write({
            "v": SCHEMA_VERSION,
            "event": SLOT,
            "slot": slot,
            "slots_covered": slots_covered,
            "sim_now": float(backend.current_time()),
            "series": series_now,
            "deltas": deltas,
            "counters": counters_now,
            "counter_deltas": counter_deltas,
        })
        self._last_series = series_now
        self._last_counters = counters_now

    def fault_applied(self, event, slot: int, backend) -> None:
        """Emit one ``fault`` record for an applied timeline event."""
        self._write({
            "v": SCHEMA_VERSION,
            "event": FAULT,
            "slot": slot,
            "kind": event.kind,
            "detail": event.describe(),
        })

    def run_finished(self, result, backend) -> None:
        """Emit the terminal ``run-end`` record."""
        self._write({
            "v": SCHEMA_VERSION,
            "event": RUN_END,
            "slot": result.spec.workload.slots,
            "sim_now": float(result.sim_now),
            "blocks": result.total_blocks,
            "validations": result.validations,
            "success_rate": float(result.success_rate),
            "events": result.events,
            "trace_sha256": result.trace_sha256,
        })
