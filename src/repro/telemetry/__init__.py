"""Opt-in observability: metrics registry + structured event streams.

Runs are observed through one pipeline: the
:class:`~repro.scenario.runner.ScenarioRunner` walks a list of
:class:`RunObserver` hooks (:mod:`repro.telemetry.stream`, which also
holds the JSONL stream format every recorder shares), and
:func:`run_observers` builds the list for a telemetry directory.

Two halves, both dependency-free and deterministic:

* :mod:`repro.telemetry.metrics` — a process-local
  :class:`MetricsRegistry` of Counter/Gauge/Histogram families with
  labels and byte-stable Prometheus text exposition.
* :mod:`repro.telemetry.events` — the :class:`TelemetryRecorder`
  emitting each run's pinned-schema per-slot JSONL stream, plus the
  validators CI uses; :mod:`repro.telemetry.summarize` is the read
  side (tables + exposition for ``python -m repro telemetry ...``).

On top, block-lifecycle tracing and invariant monitoring:

* :mod:`repro.telemetry.spans` — the :class:`SpanRecorder` and
  per-backend span collectors writing each run's v2 block-trace
  stream (a deterministic sample of blocks, one span tree per block);
* :mod:`repro.telemetry.tracepath` — critical-path latency
  attribution, waterfalls and SVG rendering over trace streams
  (``python -m repro telemetry trace``);
* :mod:`repro.telemetry.monitors` — read-side liveness/safety/
  fault-consistency probes producing a pinned-schema verdict document
  (``campaign run --monitors``).

Telemetry is strictly write-only observation: enabling it never feeds
back into simulation decisions, so seeded trace digests and campaign
cell digests are byte-identical with telemetry (and tracing) on or
off (CI-gated).  See docs/observability.md.
"""

from typing import List, Optional

from repro.telemetry.events import (
    EVENT_KINDS,
    FAULT,
    RUN_END,
    RUN_START,
    SCHEMA_VERSION,
    SLOT,
    SLOT_SERIES_KEYS,
    TELEMETRY_ENV_VAR,
    TelemetryRecorder,
    parse_stream,
    stream_filename,
    telemetry_dir_from_env,
    validate_record,
    validate_stream,
)
from repro.telemetry.metrics import (
    COUNTER,
    DEFAULT_BUCKETS,
    GAUGE,
    HISTOGRAM,
    Metric,
    MetricsError,
    MetricsRegistry,
)
from repro.telemetry.monitors import (
    MONITOR_IDS,
    MONITOR_SCHEMA_VERSION,
    evaluate_monitors,
    format_monitor_table,
    load_monitor_document,
    validate_monitor_document,
)
from repro.telemetry.spans import (
    SPAN_SCHEMA_VERSION,
    TRACE_SAMPLE_ENV_VAR,
    SpanRecorder,
    block_sampled,
    effective_trace_sample,
    is_trace_stream,
    parse_trace_stream,
    schema_for,
    span_stream_digest,
    trace_sample_from_env,
    trace_stream_filename,
    validate_trace_record,
    validate_trace_stream,
)
from repro.telemetry.stream import (
    RunObserver,
    StreamSchema,
    TelemetryError,
    discover_streams,
)
from repro.telemetry.summarize import (
    export_prometheus,
    format_summary_table,
    read_streams,
    registry_from_records,
    summarize_records,
    summarize_streams,
)
from repro.telemetry.tracepath import (
    block_waterfall,
    critical_path,
    format_trace_report,
    read_trace_streams,
    trace_report,
    waterfall_figure,
    waterfall_svg,
)

__all__ = [
    "COUNTER",
    "DEFAULT_BUCKETS",
    "EVENT_KINDS",
    "FAULT",
    "GAUGE",
    "HISTOGRAM",
    "MONITOR_IDS",
    "MONITOR_SCHEMA_VERSION",
    "Metric",
    "MetricsError",
    "MetricsRegistry",
    "RUN_END",
    "RUN_START",
    "RunObserver",
    "SCHEMA_VERSION",
    "SLOT",
    "SLOT_SERIES_KEYS",
    "SPAN_SCHEMA_VERSION",
    "SpanRecorder",
    "StreamSchema",
    "TELEMETRY_ENV_VAR",
    "TRACE_SAMPLE_ENV_VAR",
    "TelemetryError",
    "TelemetryRecorder",
    "block_sampled",
    "block_waterfall",
    "critical_path",
    "discover_streams",
    "effective_trace_sample",
    "evaluate_monitors",
    "export_prometheus",
    "format_monitor_table",
    "format_summary_table",
    "format_trace_report",
    "is_trace_stream",
    "load_monitor_document",
    "parse_stream",
    "parse_trace_stream",
    "read_streams",
    "read_trace_streams",
    "registry_from_records",
    "run_observers",
    "schema_for",
    "span_stream_digest",
    "stream_filename",
    "summarize_records",
    "summarize_streams",
    "telemetry_dir_from_env",
    "trace_report",
    "trace_sample_from_env",
    "trace_stream_filename",
    "validate_monitor_document",
    "validate_record",
    "validate_stream",
    "validate_trace_record",
    "validate_trace_stream",
    "waterfall_figure",
    "waterfall_svg",
]


def run_observers(
    telemetry_dir: Optional[str], trace_sample: Optional[float] = None
) -> List[RunObserver]:
    """The recorders for one run: none without a telemetry directory,
    else a :class:`TelemetryRecorder`, plus a :class:`SpanRecorder`
    when ``trace_sample`` is set."""
    if not telemetry_dir:
        return []
    observers: List[RunObserver] = [TelemetryRecorder(telemetry_dir)]
    if trace_sample is not None:
        observers.append(SpanRecorder(telemetry_dir, sample=trace_sample))
    return observers
