"""Invariant monitors: end-to-end verdicts plus per-probe unit coverage.

End-to-end cases record real paired streams (v1 per-slot + v2 trace)
and expect clean verdicts; the crafted cases drive each probe's fail
path directly with minimal records, since a correct simulation cannot
be coaxed into violating its own invariants.
"""

import json

import pytest

from repro.scenario import run_scenario
from repro.telemetry import TelemetryError, TelemetryRecorder
from repro.telemetry.monitors import (
    FAULT_CONSISTENCY,
    LIVENESS_PROGRESS,
    MONITOR_FAIL,
    MONITOR_PASS,
    MONITOR_SCHEMA_VERSION,
    MONITOR_SKIP,
    SAFETY_COMMITS,
    SAFETY_MONOTONE,
    _check_commits,
    _check_fault_consistency,
    _check_liveness,
    _check_monotone,
    _crash_windows,
    evaluate_monitors,
    format_monitor_table,
    load_monitor_document,
    validate_monitor_document,
)
from repro.telemetry.spans import SpanRecorder

from test_spans import tiny_spec  # noqa: E402 - sibling test helper


def slot_record(slot, counters, deltas=None, series=None):
    base_series = {"storage_mb": 1.0, "traffic_mbit": 2.0}
    base_series.update(series or {})
    return {
        "v": 1, "event": "slot", "slot": slot,
        "counters": dict(counters),
        "counter_deltas": deltas if deltas is not None else dict(counters),
        "series": base_series,
    }


def block_trace(key, spans, origin=0, confirmed=True):
    return {
        "v": 2, "event": "block-trace", "block": key, "origin": origin,
        "confirmed": confirmed, "spans": spans, "faults": [],
    }


def span(phase, node, end, start=None, detail=None):
    out = {
        "phase": phase, "node": node, "slot": int(end),
        "start": end if start is None else start, "end": end,
    }
    if detail:
        out["detail"] = detail
    return out


class TestLiveness:
    def test_skip_without_slot_records(self):
        verdict = _check_liveness([])
        assert verdict["status"] == MONITOR_SKIP

    def test_skip_without_known_counter(self):
        verdict = _check_liveness([slot_record(1, {"weirdness": 3})])
        assert verdict["status"] == MONITOR_SKIP

    def test_pass_when_counter_grows(self):
        records = [slot_record(1, {"blocks": 9}), slot_record(2, {"blocks": 18})]
        verdict = _check_liveness(records)
        assert verdict["status"] == MONITOR_PASS
        assert "blocks reached 18" in verdict["detail"]

    def test_fail_when_counter_never_moves(self):
        records = [
            slot_record(1, {"blocks": 0}, deltas={"blocks": 0}),
            slot_record(2, {"blocks": 0}, deltas={"blocks": 0}),
        ]
        verdict = _check_liveness(records)
        assert verdict["status"] == MONITOR_FAIL


class TestMonotone:
    def test_pass_on_growing_series(self):
        records = [
            slot_record(1, {"blocks": 4}, series={"storage_mb": 1.0}),
            slot_record(2, {"blocks": 8}, series={"storage_mb": 2.0}),
        ]
        assert _check_monotone(records)["status"] == MONITOR_PASS

    def test_fail_on_shrinking_counter(self):
        records = [
            slot_record(1, {"blocks": 8}),
            slot_record(2, {"blocks": 4}),
        ]
        verdict = _check_monotone(records)
        assert verdict["status"] == MONITOR_FAIL
        assert "blocks shrank" in verdict["detail"]

    def test_fail_on_shrinking_storage(self):
        records = [
            slot_record(1, {"blocks": 4}, series={"storage_mb": 2.0}),
            slot_record(2, {"blocks": 8}, series={"storage_mb": 1.0}),
        ]
        verdict = _check_monotone(records)
        assert verdict["status"] == MONITOR_FAIL
        assert "storage_mb" in verdict["detail"]


class TestCommits:
    def test_skip_without_traces(self):
        assert _check_commits("pbft", None)["status"] == MONITOR_SKIP

    def test_duplicate_block_key_fails_any_backend(self):
        traces = [block_trace("a#1", []), block_trace("a#1", [])]
        verdict = _check_commits("2ldag", traces)
        assert verdict["status"] == MONITOR_FAIL
        assert "traced twice" in verdict["detail"]

    def test_pbft_conflicting_commit_fails(self):
        traces = [
            block_trace("blk:1:1", [span("commit", 0, 2.0,
                                         detail={"view": 0, "seq": 5})]),
            block_trace("blk:2:1", [span("commit", 1, 3.0,
                                         detail={"view": 0, "seq": 5})]),
        ]
        verdict = _check_commits("pbft", traces)
        assert verdict["status"] == MONITOR_FAIL
        assert "sequence 5" in verdict["detail"]

    def test_pbft_same_sequence_across_views_is_benign(self):
        traces = [
            block_trace("blk:1:1", [span("commit", 0, 2.0,
                                         detail={"view": 0, "seq": 5})]),
            block_trace("blk:2:1", [span("commit", 1, 9.0,
                                         detail={"view": 1, "seq": 5})]),
        ]
        assert _check_commits("pbft", traces)["status"] == MONITOR_PASS


class TestFaultConsistency:
    def fault(self, kind, time, nodes):
        return {"v": 2, "event": "fault", "kind": kind, "time": time,
                "nodes": list(nodes)}

    def test_skip_without_faults(self):
        traces = [block_trace("a#1", [span("created", 0, 1.0)])]
        assert _check_fault_consistency(traces, [])["status"] == MONITOR_SKIP

    def test_crash_windows_pair_with_rejoins(self):
        windows = _crash_windows([
            self.fault("node-crash", 4.0, [3]),
            self.fault("node-rejoin", 9.0, [3]),
            self.fault("node-crash", 12.0, [3]),
        ])
        assert windows == {3: [(4.0, 9.0), (12.0, None)]}

    def test_creation_inside_crash_window_fails(self):
        traces = [block_trace("3#2", [span("created", 3, 6.0)])]
        faults = [self.fault("node-crash", 4.0, [3]),
                  self.fault("node-rejoin", 9.0, [3])]
        verdict = _check_fault_consistency(traces, faults)
        assert verdict["status"] == MONITOR_FAIL
        assert "crashed node 3" in verdict["detail"]

    def test_creation_after_rejoin_passes(self):
        traces = [block_trace("3#2", [span("created", 3, 10.0)])]
        faults = [self.fault("node-crash", 4.0, [3]),
                  self.fault("node-rejoin", 9.0, [3])]
        assert _check_fault_consistency(traces, faults)["status"] == MONITOR_PASS

    def test_validation_phase_is_not_policed(self):
        traces = [block_trace("3#2", [span("validated", 3, 6.0)])]
        faults = [self.fault("node-crash", 4.0, [3])]
        assert _check_fault_consistency(traces, faults)["status"] == MONITOR_PASS


class TestEvaluateEndToEnd:
    @pytest.fixture(scope="class")
    def verdict_doc(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("streams")
        for backend in ("2ldag", "pbft", "iota"):
            run_scenario(
                tiny_spec(backend, with_faults=True),
                observers=[
                    TelemetryRecorder(directory),
                    SpanRecorder(directory, sample=1.0),
                ],
            )
        return evaluate_monitors([directory])

    def test_real_runs_raise_no_failures(self, verdict_doc):
        assert verdict_doc["status"] == MONITOR_PASS
        assert verdict_doc["counts"][MONITOR_FAIL] == 0
        assert len(verdict_doc["runs"]) == 3
        for run in verdict_doc["runs"]:
            assert len(run["streams"]) == 2
            assert [v["id"] for v in run["monitors"]] == [
                LIVENESS_PROGRESS, SAFETY_MONOTONE,
                SAFETY_COMMITS, FAULT_CONSISTENCY,
            ]

    def test_document_validates_and_roundtrips(self, verdict_doc, tmp_path):
        validate_monitor_document(verdict_doc)
        path = tmp_path / "monitors.json"
        path.write_text(json.dumps(verdict_doc))
        assert load_monitor_document(path) == verdict_doc

    def test_counts_tally_verdicts(self, verdict_doc):
        tally = {MONITOR_PASS: 0, MONITOR_FAIL: 0, MONITOR_SKIP: 0}
        for run in verdict_doc["runs"]:
            for verdict in run["monitors"]:
                tally[verdict["status"]] += 1
        assert tally == verdict_doc["counts"]

    def test_table_renders_summary_and_rows(self, verdict_doc):
        text = format_monitor_table(verdict_doc)
        assert text.startswith("monitors: pass")
        assert LIVENESS_PROGRESS in text

    def test_trace_only_run_skips_slot_probes(self, tmp_path):
        spans = SpanRecorder(tmp_path, sample=1.0)
        run_scenario(tiny_spec("2ldag"), observers=[spans])
        document = evaluate_monitors([tmp_path])
        (run,) = document["runs"]
        statuses = {v["id"]: v["status"] for v in run["monitors"]}
        assert statuses[LIVENESS_PROGRESS] == MONITOR_SKIP
        assert statuses[SAFETY_MONOTONE] == MONITOR_SKIP
        assert statuses[SAFETY_COMMITS] == MONITOR_PASS

    def test_empty_directory_yields_empty_document(self, tmp_path):
        document = evaluate_monitors([tmp_path])
        assert document["runs"] == []
        assert document["status"] == MONITOR_PASS
        assert "(no streams probed)" in format_monitor_table(document)


class TestDocumentSchema:
    def good(self):
        return {
            "v": MONITOR_SCHEMA_VERSION,
            "runs": [{
                "scenario": "s", "backend": "2ldag", "seed": 1,
                "streams": [], "monitors": [
                    {"id": LIVENESS_PROGRESS, "status": "pass", "detail": "d"},
                ],
            }],
            "counts": {"pass": 1, "fail": 0, "skip": 0},
            "status": "pass",
        }

    def test_good_document_validates(self):
        validate_monitor_document(self.good())

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(v=99),
        lambda d: d.update(extra=1),
        lambda d: d.pop("counts"),
        lambda d: d.update(status="skip"),
        lambda d: d["runs"][0].pop("seed"),
        lambda d: d["runs"][0]["monitors"][0].update(id="bogus"),
        lambda d: d["runs"][0]["monitors"][0].update(status="maybe"),
        lambda d: d["runs"][0]["monitors"][0].pop("detail"),
    ])
    def test_mutations_are_rejected(self, mutate):
        document = self.good()
        mutate(document)
        with pytest.raises(TelemetryError):
            validate_monitor_document(document)
