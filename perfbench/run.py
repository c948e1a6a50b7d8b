"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing
off.  ``--trace 1`` prints the per-layer metrics of a traced run and
the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (host
fingerprint, sample counts, digests) is written to ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
try:
    import repro
except ImportError as error:
    sys.exit(f"perfbench: cannot import repro from {ROOT / 'src'}: {error}")
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {ROOT / 'src'}")

from perfbench import layers, workloads  # noqa: E402

#: Untraced rounds a ``--trace 0`` run makes at least, whatever ``--seconds``.
MIN_ROUNDS = 3
#: Timings are reported as on a host whose probe
#: (:func:`perfbench.workloads.probe`) takes this long: about the
#: uncontended probe time of the 2.1 GHz x86-64 host the reference
#: figures in README.md come from.
REFERENCE_PROBE_S = 230e-6
#: Traced rounds a ``--trace 1`` run makes at least; per-layer counts
#: must repeat exactly between them.
MIN_TRACED_ROUNDS = 2


def fingerprint() -> dict:
    """The host facts a reader needs to compare two results."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


class Run:
    """The rounds of one invocation and the checks made on them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.episode_fn = workloads.WORKLOADS[workload]
        self.seeds = workloads.episode_seeds(workload, seed)
        #: One list of Episode per round (None where the episode raised).
        self.untraced = []
        self.traced = []
        self.recorders = []
        self.problems = []

    def round(self, traced: bool) -> None:
        episodes = []
        recorder = layers.SpanRecorder() if traced else None
        if traced and self.recorders:
            self.recorders[-1].drop_spans()
        for scenario_seed in self.seeds:
            gc.collect()
            if traced:
                recorder.episode_starts.append(len(recorder.span_name))
            try:
                if traced:
                    with layers.Instrumentation(recorder):
                        episode = self.episode_fn(scenario_seed, recorder)
                else:
                    episode = self.episode_fn(scenario_seed, None)
            except Exception:
                self.problems.append(
                    f"seed {scenario_seed} raised:\n{traceback.format_exc()}"
                )
                episode = None
            episodes.append(episode)
        if traced:
            self.traced.append(episodes)
            self.recorders.append(recorder)
        else:
            self.untraced.append(episodes)

    # -- correctness ---------------------------------------------------------
    def check(self) -> tuple:
        """(attempted, failed) operations; records every problem found."""
        rounds = self.untraced + self.traced
        attempted = failed = 0
        reference = rounds[0]
        for episodes in rounds:
            for j, episode in enumerate(episodes):
                ops = len(reference[j].op_s) if reference[j] is not None else 1
                attempted += ops if episode is None else len(episode.op_s)
                if episode is None:
                    failed += ops
                    continue
                bad = list(episode.problems)
                if reference[j] is None or episode.digest != reference[j].digest:
                    bad.append(f"seed {self.seeds[j]}: digest differs between rounds")
                if bad:
                    failed += len(episode.op_s)
                    self.problems.extend(bad)
        digest = self.run_digest()
        pinned = json.loads(PINS.read_text()).get(self.workload, {}).get(str(self.seed))
        if pinned is not None and digest != pinned:
            self.problems.append(f"run digest {digest} differs from pinned {pinned}")
            failed = attempted
        if len(self.recorders) > 1:
            first = layer_counts(self.recorders[0], self.traced[0])
            for recorder, episodes in zip(self.recorders[1:], self.traced[1:]):
                if layer_counts(recorder, episodes) != first:
                    self.problems.append("per-layer counts differ between traced rounds")
                    failed = attempted
        return attempted, failed

    def run_digest(self) -> str:
        episodes = self.untraced[0]
        text = "\n".join(e.digest if e is not None else "error" for e in episodes)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- timing ----------------------------------------------------------------
    def probes(self):
        """Every host-speed probe of the run (each the mean of two)."""
        for episodes in self.untraced + self.traced:
            for episode in episodes:
                if episode is not None:
                    yield episode.setup_probe_s
                    yield from episode.op_probe_s

    @staticmethod
    def op_times(rounds, normalised: bool = True):
        """(median seconds over rounds, events, sampled) per operation.

        ``normalised`` scales each timing by ``REFERENCE_PROBE_S`` over
        the probe taken around it, giving the operation's time on a
        host whose probe takes the reference time.
        """
        times = []
        for j in range(len(rounds[0])):
            runs = [episodes[j] for episodes in rounds]
            first = runs[0]
            for i, sampled in enumerate(first.sampled):
                seconds = statistics.median(
                    run.op_s[i] * (REFERENCE_PROBE_S / run.op_probe_s[i] if normalised else 1.0)
                    for run in runs
                )
                times.append((seconds, first.op_events[i], sampled))
        return times

    def end_to_end(self) -> tuple:
        times = self.op_times(self.untraced)
        run_s = sum(seconds for seconds, _, _ in times)
        raw_run_s = sum(s for s, _, _ in self.op_times(self.untraced, normalised=False))
        events = sum(count for _, count, _ in times)
        samples = [seconds * 1e3 for seconds, _, sampled in times if sampled]
        q = statistics.quantiles(samples, n=4, method="inclusive")
        first = self.untraced[0]
        setups = [
            statistics.median(
                r[j].setup_s * REFERENCE_PROBE_S / r[j].setup_probe_s for r in self.untraced
            )
            for j in range(len(self.seeds))
        ]
        blocks = sum(e.blocks for e in first)
        pop_runs = sum(e.pop_runs for e in first)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "events_per_s": (events / run_s, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        detail = {
            "rounds": len(self.untraced),
            "deployments": len(self.seeds),
            "events": events,
            "blocks": blocks,
            "pop_runs": pop_runs,
            "pop_timeouts": sum(e.timeouts for e in first),
            "run_s": run_s,
            "run_s_unnormalised": raw_run_s,
            "blocks_per_s": blocks / run_s,
            "pop_per_s": pop_runs / run_s,
            "op_samples": len(samples),
            "op_ms.p50": q[1],
            "op_ms.p75": q[2],
        }
        return metrics, detail

    def per_layer(self) -> tuple:
        untraced_s = sum(s for s, _, _ in self.op_times(self.untraced))
        traced_s = sum(s for s, _, _ in self.op_times(self.traced))
        splits = []
        costs = []
        for recorder, episodes in zip(self.recorders, self.traced):
            raw = sum(sum(e.op_s) for e in episodes)
            normalised = sum(
                o * REFERENCE_PROBE_S / p for e in episodes for o, p in zip(e.op_s, e.op_probe_s)
            )
            scale = normalised / raw
            cost = recorder.span_cost(untraced_s / scale)
            costs.append(cost * scale)
            splits.append({
                name: seconds * scale
                for name, seconds in recorder.corrected_self_time(cost).items()
            })
        per_name = {
            name: statistics.median(split[name] for split in splits) for name in layers.NAMES
        }
        # Self time and shares are of the timed operations; set-up
        # (scenario.build) is reported on its own.
        self_s = dict.fromkeys(layers.LAYERS, 0.0)
        for name, seconds in per_name.items():
            if name != "scenario.build":
                self_s[layers.SPAN_LAYERS[name]] += seconds
        total = sum(self_s.values())
        # Block operations include the crypto they call (only they call
        # these crypto entry points), so a faster hash shows in both.
        self_s["core.block.build"] = (
            per_name["core.block.build"] + per_name["crypto.sign"]
            + per_name["crypto.merkle"] + per_name["crypto.puzzle_solve"]
        )
        self_s["core.block.auth"] = (
            per_name["core.block.auth"] + per_name["crypto.verify"]
            + per_name["crypto.puzzle_check"]
        )
        self_s["core.pop.wps"] = per_name["core.pop.wps"]
        # Times are reported as shares: a layer a workload never enters
        # (PoP on ingest) has no time to read, only a share of zero.
        metrics = {f"{part}.share": (seconds / total, "ratio") for part, seconds in self_s.items()}
        metrics["scenario.build_s"] = (per_name["scenario.build"], "s")
        for name, value in layer_counts(self.recorders[-1], self.traced[-1]).items():
            unit = "ratio" if name.endswith(("share", "per_msg")) else "count"
            metrics[name] = (value, unit)
        metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
        return metrics, {
            "traced_run_s": traced_s,
            "untraced_run_s": untraced_s,
            "span_cost_us": statistics.median(costs) * 1e6,
            "self_s": self_s,
        }


def layer_counts(recorder, episodes) -> dict:
    """Work counts of one traced round; must repeat exactly across rounds."""
    outcomes = recorder.outcomes
    retrieved = sum(o.headers_retrieved for o in outcomes)
    tps = sum(o.tps_steps for o in outcomes)
    messages = recorder.name_calls("net.transport.unicast")
    live = [e for e in episodes if e is not None]
    return {
        "sim.kernel.events": sum(sum(e.op_events) for e in live),
        "sim.kernel.cancelled": sum(e.cancelled for e in live),
        "net.transport.messages": messages,
        "net.transport.hops_per_msg": recorder.hops / messages if messages else 0.0,
        "core.node.digests_received": recorder.name_calls("core.node.on_digest"),
        "core.block.builds": recorder.name_calls("core.block.build"),
        "core.block.auth_checks": recorder.name_calls("core.block.auth"),
        "core.dag.inserts": recorder.name_calls("core.dag.insert"),
        "core.pop.runs": recorder.name_calls("core.pop.start"),
        "core.pop.requests": sum(o.requests_sent for o in outcomes),
        "core.pop.timeouts": sum(o.timeouts for o in outcomes),
        "core.pop.rollbacks": sum(o.rollbacks for o in outcomes),
        "core.pop.tps_hit_share": tps / (tps + retrieved) if tps + retrieved else 0.0,
        "core.pop.useful_share": (
            sum(len(o.path) for o in outcomes) / (tps + retrieved)
            if tps + retrieved else 0.0
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = fingerprint()
    run = Run(args.workload, args.seed)
    start = perf_counter()
    if args.trace:
        # One untraced round gives the digests the traced rounds must
        # reproduce and the denominator of trace.overhead; more untraced
        # rounds alternate with traced ones while time remains.
        run.round(traced=False)
        while len(run.traced) < MIN_TRACED_ROUNDS or perf_counter() - start < args.seconds:
            run.round(traced=True)
            if len(run.traced) >= MIN_TRACED_ROUNDS and perf_counter() - start < args.seconds:
                run.round(traced=False)
    else:
        while len(run.untraced) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            run.round(traced=False)
    measured_s = perf_counter() - start
    probes = sorted(run.probes())
    if probes:
        host["probe_s"] = {"fastest": probes[0], "median": statistics.median(probes)}

    attempted, failed = run.check()
    correct = failed == 0 and not run.problems
    metrics = {}
    detail = {}
    # Timings are only summarised when every episode of every round ran.
    if all(e is not None for r in run.untraced + run.traced for e in r):
        if args.trace:
            metrics, detail = run.per_layer()
            # The spans of the last traced round's first episode.
            recorder = run.recorders[-1]
            OUT_DIR.mkdir(exist_ok=True)
            detail["spans_written"] = recorder.write(
                OUT_DIR / f"{args.workload}-seed{args.seed}.spans.txt.gz",
                recorder.episode_starts[0],
                recorder.episode_starts[1]
                if len(recorder.episode_starts) > 1 else len(recorder.span_name),
            )
        else:
            metrics, detail = run.end_to_end()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": measured_s,
        "host": host,
        "run_digest": run.run_digest(),
        "detail": detail,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.untraced)}+{len(run.traced)} rounds in {measured_s:.1f} s")
    print(f"host {host['python']} {host['platform']} cpus={host['cpu_count']}")
    if probes:
        print(f"probe fastest {probes[0] * 1e6:.1f} us, "
              f"median {statistics.median(probes) * 1e6:.1f} us")
    print(f"run digest {record['run_digest']}")
    for key, value in detail.items():
        print(f"  {key:<28} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6f} {unit}")
    for problem in run.problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
