"""The run-observer protocol and the one JSONL stream format behind it.

A :class:`RunObserver` is what the
:class:`~repro.scenario.runner.ScenarioRunner` walks: four no-op hooks
fired at the runner's existing boundaries, each handed the live
backend to make its own pure reads from.

Both telemetry streams — the v1 per-slot stream
(:mod:`repro.telemetry.events`) and the v2 block-trace stream
(:mod:`repro.telemetry.spans`) — share one on-disk format: canonical
compact-JSON lines (sorted keys), every record validated before it is
written, the stream truncated when a run opens it, table-driven field
checks, and line-by-line parsing that either raises on the first
defect or collects them all.  A :class:`StreamSchema` holds one
stream's record table and kind-specific checks; a
:class:`StreamRecorder` is the observer that writes one run's stream of
that schema.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

NUMBER = (int, float)

#: Required fields of one record (or nested object): name -> type(s).
Fields = Mapping[str, Tuple[type, ...]]

_UNSAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


class TelemetryError(ValueError):
    """A telemetry record or stream that violates the pinned schema."""


class RunObserver:
    """Hooks the :class:`~repro.scenario.runner.ScenarioRunner` walks.

    Every hook receives the live backend and may only make *pure reads*
    of it (``sample()``, ``telemetry_counters()``, ``current_time()``)
    or attach a read-side collector (``span_collector(rate)``) — never
    draw from a random stream, schedule an event or write state back.
    Hooks fire only at boundaries the runner drives anyway, so a run
    with observers is byte-identical to one without.
    """

    def run_started(self, spec, backend) -> None:
        """The backend is built; no slot has been driven yet."""

    def slot_advanced(self, slot: int, slots_covered: int, backend) -> None:
        """``slots_covered`` slots ending at ``slot`` were just driven."""

    def fault_applied(self, event, slot: int, backend) -> None:
        """The fault engine applied timeline ``event`` at ``slot``."""

    def run_finished(self, result, backend) -> None:
        """The run drained; ``result`` is its ``ScenarioResult``."""


def canonical_line(record: Mapping[str, Any]) -> str:
    """One record as its canonical compact-JSON stream line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def check_fields(
    record: Mapping[str, Any],
    spec: Fields,
    what: str,
    where: str,
    extra_ok: Iterable[str] = (),
) -> None:
    """Raise unless ``record`` carries exactly ``spec``'s typed fields."""
    for name, types in spec.items():
        if name not in record:
            raise TelemetryError(f"{where}{what} lacks field {name!r}")
        value = record[name]
        bad_bool = isinstance(value, bool) and bool not in types
        if not isinstance(value, types) or bad_bool:
            raise TelemetryError(
                f"{where}{what} field {name!r} has type "
                f"{type(value).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    unknown = set(record) - set(spec) - set(extra_ok)
    if unknown:
        raise TelemetryError(
            f"{where}{what} carries unknown field(s): "
            f"{', '.join(sorted(unknown))}"
        )


@dataclass(frozen=True)
class StreamSchema:
    """One pinned stream format: record table, checks and file naming.

    ``check_record(record, where)`` adds kind-specific checks after the
    table-driven ones; ``check_stream(records, source)`` certifies a
    whole parsed stream (the trace stream's terminal checksum).
    """

    version: int
    records: Mapping[str, Fields]
    prefix: str
    label: str
    version_noun: str
    kind_noun: str
    check_record: Optional[Callable[[Dict[str, Any], str], None]] = None
    check_stream: Optional[Callable[[List[Dict[str, Any]], str], None]] = None

    def validate_record(self, record: Any, line: int = 0) -> None:
        """Raise :class:`TelemetryError` unless ``record`` fits the schema."""
        where = f"line {line}: " if line else ""
        if not isinstance(record, dict):
            raise TelemetryError(f"{where}record must be a JSON object")
        version = record.get("v")
        if version != self.version:
            raise TelemetryError(
                f"{where}{self.version_noun} {version!r} is not the pinned "
                f"{self.version}"
            )
        kind = record.get("event")
        if kind not in self.records:
            raise TelemetryError(
                f"{where}unknown {self.kind_noun} {kind!r}; known: "
                f"{', '.join(self.records)}"
            )
        check_fields(
            record, self.records[kind], f"{kind} record", where,
            extra_ok=("v", "event"),
        )
        if self.check_record is not None:
            self.check_record(record, where)

    def _records(
        self, text: str, source: str, errors: Optional[List[str]] = None
    ) -> List[Dict[str, Any]]:
        """Per-line parse; raises on the first defect unless collecting."""
        records: List[Dict[str, Any]] = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                self.validate_record(record, line=line_number)
            except TelemetryError as error:
                message = f"{source}: {error}"
            except ValueError as error:
                message = f"{source}: line {line_number}: not valid JSON ({error})"
            else:
                records.append(record)
                continue
            if errors is None:
                raise TelemetryError(message)
            errors.append(message)
        return records

    def parse(self, text: str, source: str = "<stream>") -> List[Dict[str, Any]]:
        """Parse and validate one stream; raises on the first defect."""
        records = self._records(text, source)
        if self.check_stream is not None:
            self.check_stream(records, source)
        return records

    def validate(self, text: str, source: str = "<stream>") -> List[str]:
        """Every schema violation in ``text`` as messages (empty = clean)."""
        errors: List[str] = []
        records = self._records(text, source, errors)
        if not errors and self.check_stream is not None:
            try:
                self.check_stream(records, source)
            except TelemetryError as error:
                errors.append(str(error))
        return errors

    def filename(self, scenario: str, backend: str, seed: int) -> str:
        """The deterministic stream file name for one run."""
        safe = _UNSAFE_NAME.sub("-", scenario) or "scenario"
        return f"{self.prefix}-{safe}-{backend}-seed{seed}.jsonl"

    def owns(self, path: Union[str, Path]) -> bool:
        """Whether a stream file carries this schema (by name)."""
        name = Path(path).name
        return name.startswith(f"{self.prefix}-") and name.endswith(".jsonl")


def discover_streams(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Stream files under ``paths`` (files verbatim, dirs globbed)."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.glob("*.jsonl")))
        elif path.is_file():
            found.append(path)
        else:
            raise TelemetryError(f"no such telemetry file or directory: {raw}")
    return list(dict.fromkeys(found))


class StreamRecorder(RunObserver):
    """Write one run's stream of :attr:`schema` under a directory.

    ``_open`` (called from ``run_started``) truncates any previous
    stream of the same run name so a re-run leaves a clean,
    byte-deterministic file; ``_write`` validates every record before
    appending it, so a drifting instrumentation site fails loudly
    rather than silently corrupting streams.
    """

    schema: ClassVar[StreamSchema]

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path: Optional[Path] = None
        self.records_written = 0

    def _open(self, spec) -> None:
        self.path = self.directory / self.schema.filename(
            spec.name, spec.backend, spec.seed
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            self.path.unlink()
        except OSError:
            pass
        self.records_written = 0

    def _require_open(self) -> None:
        if self.path is None:
            raise TelemetryError(
                f"{self.schema.label} stream not opened; run_started() must "
                f"come first"
            )

    def _write(self, *records: Dict[str, Any]) -> List[str]:
        """Validate, then append ``records`` as one batch; returns the lines."""
        self._require_open()
        lines = []
        for record in records:
            self.schema.validate_record(record)
            lines.append(canonical_line(record))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        self.records_written += len(records)
        return lines
