"""The run-observer protocol: hook order, boundaries, the no-op contract.

A recording :class:`RunObserver` rides beside both stream recorders on
every backend, under a fault timeline.  It must see ``run_started``
first, ``slot_advanced``/``fault_applied`` exactly at the runner's own
slot boundaries, and ``run_finished`` last — while the seeded
simulation digest stays the one a run without observers produces.
"""

import pytest

from repro.scenario import ScenarioRunner, run_scenario
from repro.telemetry import (
    RunObserver,
    SpanRecorder,
    TelemetryRecorder,
    parse_stream,
    run_observers,
)

from test_spans import tiny_spec  # noqa: E402 - sibling test helper

BACKENDS = ("2ldag", "pbft", "iota")


class RecordingObserver(RunObserver):
    """Logs every hook call in order."""

    def __init__(self):
        self.calls = []

    def run_started(self, spec, backend):
        self.calls.append(("run_started", spec.name))

    def slot_advanced(self, slot, slots_covered, backend):
        self.calls.append(("slot_advanced", slot, slots_covered))

    def fault_applied(self, event, slot, backend):
        self.calls.append(("fault_applied", event, slot))

    def run_finished(self, result, backend):
        self.calls.append(("run_finished", result.trace_sha256))


@pytest.mark.parametrize("backend", BACKENDS)
def test_observer_sees_exactly_the_runner_boundaries(backend, tmp_path):
    spec = tiny_spec(backend, with_faults=True)
    bare = run_scenario(spec)
    recording = RecordingObserver()
    telemetry = TelemetryRecorder(tmp_path)
    runner = ScenarioRunner(spec, observers=[
        telemetry, recording, SpanRecorder(tmp_path, sample=1.0),
    ])
    result = runner.run()
    assert result.trace_sha256 == bare.trace_sha256

    calls = recording.calls
    assert calls[0] == ("run_started", spec.name)
    assert calls[-1] == ("run_finished", result.trace_sha256)
    middle = calls[1:-1]
    assert all(call[0] in ("slot_advanced", "fault_applied") for call in middle)

    slots = spec.workload.slots
    advanced = [call for call in middle if call[0] == "slot_advanced"]
    boundaries = {*spec.workload.sample_slots, slots}
    boundaries.update(
        s for s in runner.fault_engine.boundary_slots if 0 < s <= slots
    )
    assert [call[1] for call in advanced] == sorted(boundaries)
    assert sum(call[2] for call in advanced) == slots
    # The v1 stream beside it records the same boundaries.
    records = parse_stream(telemetry.path.read_text())
    assert [r["slot"] for r in records if r["event"] == "slot"] == sorted(
        boundaries
    )

    faults = [call for call in middle if call[0] == "fault_applied"]
    assert [call[1] for call in faults] == runner.fault_engine.applied
    reached = 0
    for call in middle:
        if call[0] == "slot_advanced":
            reached = call[1]
        else:
            # Faults fire at the boundary the runner has just reached,
            # before the next chunk is driven.
            assert call[2] == reached


def test_run_observers_factory(tmp_path):
    assert run_observers(None) == []
    assert run_observers(None, 0.5) == []
    (telemetry,) = run_observers(str(tmp_path))
    assert isinstance(telemetry, TelemetryRecorder)
    telemetry, spans = run_observers(str(tmp_path), 0.5)
    assert isinstance(telemetry, TelemetryRecorder)
    assert isinstance(spans, SpanRecorder) and spans.sample == 0.5
