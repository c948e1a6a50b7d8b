"""Smoke tests for the ``repro.bench`` harness.

Tier-1 runs these in smoke scale (``REPRO_BENCH_FAST=1`` semantics):
the point is that the harness machinery works — ops run, JSON is
written, the regression comparison flags slowdowns — not to gather
statistically meaningful timings.
"""

import json

from repro.bench import runner as bench_runner
from repro.cli import main as cli_main


class TestRunner:
    def test_micro_op_produces_sane_result(self):
        results = bench_runner.run_benchmarks(
            fast=True, only=["header_references"]
        )
        assert set(results) == {"header_references"}
        result = results["header_references"]
        assert result.ns_per_op > 0
        assert result.ops_per_sec > 0
        assert result.iterations >= 1

    def test_slot_sim_reports_trace_and_rates(self):
        results = bench_runner.run_benchmarks(fast=True, only=["slot_sim"])
        metrics = results["slot_sim"].metrics
        assert metrics["events"] > 0
        assert metrics["blocks"] > 0
        assert metrics["events_per_sec"] > 0
        assert len(metrics["trace_sha256"]) == 64
        assert metrics["success_rate"] == 1.0

    def test_slot_sim_streams_are_complete(self, tmp_path):
        from repro.telemetry import parse_stream, parse_trace_stream

        bench_runner.run_benchmarks(
            fast=True, only=["slot_sim"], telemetry_dir=str(tmp_path),
            trace_sample=0.25,
        )
        (run,) = tmp_path.glob("run-*.jsonl")
        (trace,) = tmp_path.glob("trace-*.jsonl")
        assert parse_stream(run.read_text())[-1]["event"] == "run-end"
        kinds = [r["event"] for r in parse_trace_stream(trace.read_text())]
        assert kinds[-1] == "trace-end"
        assert "block-trace" in kinds

    def test_slot_sim_faults_row(self):
        results = bench_runner.run_benchmarks(
            fast=True, only=["slot_sim", "slot_sim_faults"]
        )
        faulted = results["slot_sim_faults"].metrics
        assert faulted["faulted"] is True
        assert faulted["scenario"] == "bench-fast-faults"
        assert len(faulted["trace_sha256"]) == 64
        # The injected crash must reach the macro trace; the fault-free
        # row must not move (the golden digest pins it too).
        clean = results["slot_sim"].metrics
        assert faulted["trace_sha256"] != clean["trace_sha256"]
        assert faulted["blocks"] < clean["blocks"]

    def test_fault_row_deterministic(self):
        first = bench_runner.run_benchmarks(fast=True, only=["slot_sim_faults"])
        second = bench_runner.run_benchmarks(fast=True, only=["slot_sim_faults"])
        assert (first["slot_sim_faults"].metrics["trace_sha256"]
                == second["slot_sim_faults"].metrics["trace_sha256"])

    def test_results_document_shape(self):
        results = bench_runner.run_benchmarks(
            fast=True, only=["header_references"]
        )
        document = bench_runner.results_to_json(results, fast=True, rev="test")
        assert document["schema"] == 1
        assert document["rev"] == "test"
        assert document["fast"] is True
        assert "header_references" in document["results"]


class TestRegressionComparison:
    def _doc(self, ns, wall):
        return {
            "fast": True,
            "results": {
                "header_references": {"ns_per_op": ns},
                "slot_sim": {"metrics": {"wall_s": wall}},
            },
        }

    def test_flags_regressions_beyond_factor(self):
        baseline = self._doc(100.0, 1.0)
        current = self._doc(100.0 * (bench_runner.REGRESSION_FACTOR + 0.5), 1.1)
        rows = dict(
            (name, (ratio, bad))
            for name, ratio, bad in bench_runner.compare_to_baseline(
                current, baseline
            )
        )
        assert rows["header_references"][1] is True
        assert rows["slot_sim"][1] is False

    def test_ignores_ops_missing_from_either_side(self):
        baseline = {"fast": True, "results": {"gone_op": {"ns_per_op": 1.0}}}
        current = self._doc(100.0, 1.0)
        assert bench_runner.compare_to_baseline(current, baseline) == []


class TestCli:
    def test_bench_writes_json_and_exits_zero(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = cli_main([
            "bench", "--fast", "--no-check",
            "--only", "header_references", "--out", str(out),
        ])
        assert rc == 0
        document = json.loads(out.read_text())
        assert "header_references" in document["results"]

    def test_bench_fails_on_regression_against_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "fast": True,
            "rev": "fake",
            "results": {"header_references": {"ns_per_op": 1e-6}},
        }))
        out = tmp_path / "bench.json"
        rc = cli_main([
            "bench", "--fast", "--only", "header_references",
            "--out", str(out), "--baseline", str(baseline),
        ])
        assert rc == 3

    def test_bench_rejects_unknown_only_op(self, tmp_path, capsys):
        rc = cli_main([
            "bench", "--fast", "--no-check",
            "--only", "bogus_op", "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert "unknown benchmark op" in capsys.readouterr().err

    def test_bench_skips_check_on_scale_mismatch(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "fast": False,
            "rev": "fake",
            "results": {"header_references": {"ns_per_op": 1e-6}},
        }))
        out = tmp_path / "bench.json"
        rc = cli_main([
            "bench", "--fast", "--only", "header_references",
            "--out", str(out), "--baseline", str(baseline),
        ])
        assert rc == 0
