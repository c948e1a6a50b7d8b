"""Benchmark runner: timed micro-ops plus the slot-simulation macro.

Each micro-benchmark is a no-argument callable returning the number of
operations it performed; the harness calibrates a repeat count, times
several rounds and reports the *best* round (minimum is the standard
estimator for single-process benchmarks — slower rounds measure
interference, not the code).

Op set (tracked across PRs — renaming one silently drops its
regression coverage, so don't):

``header_encode_warm``     canonical header encoding, caches warm
``header_digest_cold``     header hash with identity caches cleared
``header_digest_warm``     header hash, caches warm (the common case:
                           every push/validate re-digests old headers)
``header_references``      Δ membership test (child-of check)
``header_verify_signature`` Eq. (6) check over the signing payload
``header_authenticate``    Eq. (6) signature + Eq. (5) nonce check, the
                           per-reply header authentication of PoP
``wire_encode_header``     wire-format serialization
``wps_select``             Algorithm 1 on a 50-node geometric topology
``kernel_callbacks``       schedule+dispatch of one-shot callbacks
``kernel_cancel_churn``    cancelled-event pops (lazy cancellation)
``message_push``           one digest push to every neighbour plus its
                           drain, per delivered message, on a 160-node
                           geometric topology with honest node handlers
``dag_insert_chain``       LogicalDag insertion of a 200-header chain
``slot_sim``               the macro workload (wall seconds, events/s,
                           blocks/s and a canonical trace digest)
``slot_sim_faults``        the macro workload under a mid-run crash +
                           rejoin (the fault-engine overhead row)
``slot_sim_pbft``          the PBFT baseline backend's macro workload
``slot_sim_iota``          the IOTA baseline backend's macro workload
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: A tracked op slower than ``baseline * REGRESSION_FACTOR`` fails the run.
REGRESSION_FACTOR = 2.0

#: Every op the harness knows (the valid values for ``--only``).
TRACKED_OPS = (
    "header_encode_warm",
    "header_digest_cold",
    "header_digest_warm",
    "header_references",
    "header_verify_signature",
    "header_authenticate",
    "wire_encode_header",
    "wps_select",
    "kernel_callbacks",
    "kernel_cancel_churn",
    "message_push",
    "dag_insert_chain",
    "slot_sim",
    "slot_sim_faults",
    "slot_sim_pbft",
    "slot_sim_iota",
)

#: Repository-relative location of the committed regression baseline.
BASELINE_RELPATH = os.path.join("benchmarks", "baselines", "BENCH_baseline.json")

#: Cache attributes BlockHeader memoises on first use (cleared by the
#: cold-path benchmarks; absent attributes are ignored, so this list
#: also works against builds without identity caching).
_HEADER_CACHE_ATTRS = (
    "_hdr_block_id",
    "_hdr_digest_map_bytes",
    "_hdr_signing_payload",
    "_hdr_encoded",
    "_hdr_digest_by_bits",
    "_hdr_ref_values",
    "_hdr_wire",
)


@dataclass
class BenchResult:
    """One benchmark's outcome."""

    name: str
    ns_per_op: float
    ops_per_sec: float
    iterations: int
    rounds: int
    metrics: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "ns_per_op": self.ns_per_op,
            "ops_per_sec": self.ops_per_sec,
            "iterations": self.iterations,
            "rounds": self.rounds,
            "metrics": self.metrics,
        }


def _time_op(
    name: str,
    op: Callable[[], int],
    min_round_time: float,
    rounds: int,
) -> BenchResult:
    """Time ``op`` (which returns its op count) over several rounds."""
    # Calibrate: repeat the op within a round until a round is long
    # enough for the clock to resolve it meaningfully.
    ops_per_call = max(1, op())
    repeats = 1
    start = time.perf_counter()
    op()
    single = max(time.perf_counter() - start, 1e-9)
    while single * repeats < min_round_time:
        repeats *= 2
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            op()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    total_ops = ops_per_call * repeats
    ns_per_op = best * 1e9 / total_ops
    return BenchResult(
        name=name,
        ns_per_op=ns_per_op,
        ops_per_sec=1e9 / ns_per_op if ns_per_op > 0 else 0.0,
        iterations=total_ops,
        rounds=rounds,
    )


def _clear_header_caches(header) -> None:
    """Drop memoised identity state so the next digest() is cold."""
    for attr in _HEADER_CACHE_ATTRS:
        header.__dict__.pop(attr, None)


# -- fixture construction ----------------------------------------------------

def _build_header_pool(count: int, digests_per_header: int):
    from repro.core.block import build_block, make_body
    from repro.core.config import ProtocolConfig
    from repro.crypto.hashing import hash_bytes
    from repro.crypto.keys import KeyPair

    config = ProtocolConfig(body_bits=80_000, gamma=8)
    keypair = KeyPair.generate(1)
    headers = []
    for i in range(count):
        digests = {
            j: hash_bytes(f"d{i}:{j}".encode())
            for j in range(digests_per_header)
        }
        block = build_block(
            origin=1, index=i, time=float(i), body=make_body(1, i, config),
            digests=digests, keypair=keypair, config=config,
        )
        headers.append(block.header)
    return headers, keypair, config


def _build_push_deployment():
    """Honest 160-node deployment: its simulator and nodes, no blocks yet."""
    from repro.core.config import ProtocolConfig
    from repro.core.node import IoTNode
    from repro.crypto.keys import KeyRegistry
    from repro.net.topology import sequential_geometric_topology
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RandomStreams

    topology = sequential_geometric_topology(node_count=160, streams=RandomStreams(1))
    sim = Simulator()
    network = Network(sim, topology)
    registry = KeyRegistry()
    config = ProtocolConfig()
    nodes = [IoTNode(i, network, registry, config) for i in topology.node_ids]
    return sim, nodes, config


def _build_chain_headers(length: int):
    from repro.core.block import build_block, make_body
    from repro.core.config import ProtocolConfig
    from repro.crypto.keys import KeyPair

    config = ProtocolConfig(body_bits=80_000, gamma=8)
    keypair = KeyPair.generate(1)
    headers = []
    previous = None
    for i in range(length):
        digests = {1: previous.digest()} if previous is not None else {}
        block = build_block(
            origin=1, index=i, time=float(i), body=make_body(1, i, config),
            digests=digests, keypair=keypair, config=config,
        )
        headers.append(block.header)
        previous = block
    return headers


# -- micro-benchmarks --------------------------------------------------------

def _micro_benchmarks(
    fast: bool, only: Optional[List[str]] = None
) -> List[Tuple[str, Callable[[], int]]]:
    """The micro op list; fixtures are built only for ops in ``only``.

    Building the header pool and chain means puzzle-solving and signing
    dozens of blocks, so a filtered run (``--only slot_sim``) must not
    pay for fixtures no selected op uses.
    """
    import random

    from repro.core import wire
    from repro.core.dag import LogicalDag
    from repro.core.pop.wps import weighted_path_selection
    from repro.crypto.hashing import hash_bytes
    from repro.crypto.puzzle import NoncePuzzle
    from repro.net.topology import sequential_geometric_topology
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RandomStreams

    def wanted(*names: str) -> bool:
        return not only or any(name in only for name in names)

    benchmarks: List[Tuple[str, Callable[[], int]]] = []

    if wanted(
        "header_encode_warm", "header_digest_cold", "header_digest_warm",
        "header_references", "header_verify_signature", "header_authenticate",
        "wire_encode_header",
    ):
        pool_size = 16 if fast else 64
        headers, keypair, config = _build_header_pool(pool_size, 8)
        puzzle = NoncePuzzle(config.puzzle_difficulty_bits, config.hash_bits)
        hit = next(iter(headers[0].digests.values()))
        miss = hash_bytes(b"not-a-parent")

        def header_encode_warm() -> int:
            for header in headers:
                header.encode()
            return len(headers)

        def header_digest_cold() -> int:
            for header in headers:
                _clear_header_caches(header)
                header.digest()
            return len(headers)

        def header_digest_warm() -> int:
            for header in headers:
                header.digest()
            return len(headers)

        def header_references() -> int:
            first = headers[0]
            for header in headers:
                first.references(hit)
                header.references(miss)
            return 2 * len(headers)

        def header_verify_signature() -> int:
            public = keypair.public
            for header in headers:
                header.verify_signature(public)
            return len(headers)

        def header_authenticate() -> int:
            public = keypair.public
            for header in headers:
                header.verify_signature(public)
                header.verify_nonce(puzzle)
            return len(headers)

        def wire_encode_header() -> int:
            for header in headers:
                wire.encode_header(header)
            return len(headers)

        benchmarks += [
            ("header_encode_warm", header_encode_warm),
            ("header_digest_cold", header_digest_cold),
            ("header_digest_warm", header_digest_warm),
            ("header_references", header_references),
            ("header_verify_signature", header_verify_signature),
            ("header_authenticate", header_authenticate),
            ("wire_encode_header", wire_encode_header),
        ]

    if wanted("wps_select"):
        topology = sequential_geometric_topology(
            node_count=50, streams=RandomStreams(1)
        )
        # Fixed-seed local RNGs: the microbench measures WPS wall time on
        # a frozen case set, outside any scenario's named streams.
        wps_rng = random.Random(0)  # repro: allow[unseeded-random]
        node_ids = topology.node_ids
        wps_cases = []
        case_rng = random.Random(7)  # repro: allow[unseeded-random]
        for _ in range(8 if fast else 32):
            node = case_rng.choice(node_ids)
            candidates = sorted(topology.neighbors(node)) or [node_ids[0]]
            consensus = set(case_rng.sample(node_ids, 10))
            wps_cases.append((consensus, candidates))

        def wps_select() -> int:
            for consensus, candidates in wps_cases:
                weighted_path_selection(consensus, candidates, topology, wps_rng)
            return len(wps_cases)

        benchmarks.append(("wps_select", wps_select))

    if wanted("kernel_callbacks", "kernel_cancel_churn"):
        kernel_events = 500 if fast else 5_000

        def kernel_callbacks() -> int:
            sim = Simulator()
            fired = [0]

            def tick() -> None:
                fired[0] += 1

            for i in range(kernel_events):
                sim.call_at(float(i % 17), tick)
            sim.run()
            return kernel_events

        def kernel_cancel_churn() -> int:
            sim = Simulator()
            handles = [sim.call_at(1.0, lambda: None) for _ in range(kernel_events)]
            for handle in handles[::2]:
                handle.cancel()
            sim.run()
            return kernel_events

        benchmarks.append(("kernel_callbacks", kernel_callbacks))
        benchmarks.append(("kernel_cancel_churn", kernel_cancel_churn))

    if wanted("message_push"):
        push_sim, push_nodes, push_config = _build_push_deployment()
        push_senders = push_nodes[::16 if fast else 4]
        push_digest = hash_bytes(b"message-push")
        push_bits = push_config.digest_message_bits

        def message_push() -> int:
            delivered = 0
            for node in push_senders:
                delivered += len(node.interface.broadcast_neighbors(
                    "digest", (node.node_id, push_digest), push_bits
                ))
            push_sim.run()
            return delivered

        benchmarks.append(("message_push", message_push))

    if wanted("dag_insert_chain"):
        chain = _build_chain_headers(50 if fast else 200)

        def dag_insert_chain() -> int:
            dag = LogicalDag()
            for header in chain:
                dag.add_header(header)
            return len(chain)

        benchmarks.append(("dag_insert_chain", dag_insert_chain))

    return benchmarks


# -- the macro workload -------------------------------------------------------

def _slot_sim_result(result, wall, routed=False, cached=False) -> BenchResult:
    """One macro row from a finished run's ``ScenarioResult``."""
    spec, events, blocks = result.spec, result.events, result.total_blocks
    metrics = {
        "scenario": spec.name,
        "nodes": spec.node_count,
        "slots": spec.workload.slots,
        "gamma": spec.protocol.gamma,
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "blocks": blocks,
        "blocks_per_sec": blocks / wall if wall > 0 else 0.0,
        "validations": result.validations,
        "success_rate": result.success_rate,
        "trace_sha256": result.trace_sha256,
    }
    if routed:
        metrics["campaign_routed"] = True
    if cached:
        metrics["cached"] = True
    return BenchResult(
        name="slot_sim",
        ns_per_op=wall * 1e9 / max(events, 1),
        ops_per_sec=events / wall if wall > 0 else 0.0,
        iterations=events,
        rounds=1,
        metrics=metrics,
    )


def _run_slot_sim(fast: bool, spec=None, executor=None,
                  observers=()) -> BenchResult:
    """The macro workload, timed.

    Without an executor the workload runs inline, timing
    ``runner.finish()`` — slot driving plus the drain and result
    assembly, not deployment construction.  With one, the run is
    submitted as a campaign cell — the worker-side wall time
    additionally covers deployment construction, so compare such
    numbers only against baselines recorded the same way.

    ``observers`` (from :func:`repro.telemetry.run_observers`) record
    the run's streams *inside* the timed region — that is deliberate,
    so ``bench --telemetry`` (and ``--trace-sample``) measures the
    instrumentation overhead the docs/observability.md budgets gate.
    They are ignored on the executor-routed path (cells run in worker
    processes).
    """
    from repro.scenario import ScenarioResult, ScenarioRunner, bench_scenario

    if spec is None:
        spec = bench_scenario(fast=fast)

    if executor is not None:
        from repro.campaign.executor import run_campaign
        from repro.campaign.spec import CampaignSpec, CellSpec

        campaign = CampaignSpec(
            name="bench-slot-sim", cells=(CellSpec(scenario=spec),)
        )
        cell = run_campaign(campaign, executor).cells[0]
        return _slot_sim_result(
            ScenarioResult.from_dict(cell.payload),
            wall=cell.elapsed_s,
            routed=True,
            cached=cell.cached,
        )

    runner = ScenarioRunner(spec, observers=observers).build()
    start = time.perf_counter()
    result = runner.finish()
    return _slot_sim_result(result, wall=time.perf_counter() - start)


def _run_ledger_slot_sim(backend: str, fast: bool, observers=()) -> BenchResult:
    """A baseline backend's macro workload, timed end to end.

    Unlike the 2LDAG macro (which leaves deployment construction out),
    construction is cheap here, so the whole
    :class:`~repro.scenario.runner.ScenarioRunner` drive is timed —
    build, slots, settle, digest collection.
    """
    from repro.scenario import ScenarioRunner, ledger_bench_scenario

    spec = ledger_bench_scenario(backend, fast=fast)
    start = time.perf_counter()
    result = ScenarioRunner(spec, observers=observers).run()
    bench = _slot_sim_result(result, wall=time.perf_counter() - start)
    bench.name = f"slot_sim_{backend}"
    bench.metrics["backend"] = backend
    return bench


# -- orchestration ------------------------------------------------------------

def run_benchmarks(
    fast: bool = False,
    only: Optional[List[str]] = None,
    log: Callable[[str], None] = lambda _msg: None,
    slot_sim_spec=None,
    executor=None,
    telemetry_dir: Optional[str] = None,
    trace_sample: Optional[float] = None,
) -> Dict[str, BenchResult]:
    """Run all (or ``only`` the named) benchmarks; returns name -> result.

    ``slot_sim_spec`` optionally replaces the macro workload's scenario
    (``python -m repro bench --scenario ...``); the default is the
    registered ``bench-fast`` / ``bench-full`` preset.  ``executor``
    routes the macro workload through the campaign engine (see
    :func:`_run_slot_sim` for the timing caveat).  ``telemetry_dir``
    records each macro workload's event stream there, inside the timed
    region — compare the ``slot_sim`` wall clock against a plain run to
    measure the instrumentation overhead.  ``trace_sample`` (requires
    ``telemetry_dir``) additionally records block-lifecycle trace
    streams at that sample rate, measuring the tracing budget the same
    way.
    """
    from repro.telemetry import run_observers

    if trace_sample is not None and telemetry_dir is None:
        raise ValueError("trace_sample requires telemetry_dir")

    min_round_time = 0.005 if fast else 0.1
    rounds = 2 if fast else 5
    results: Dict[str, BenchResult] = {}
    for name, op in _micro_benchmarks(fast, only):
        if only and name not in only:
            continue
        result = _time_op(name, op, min_round_time, rounds)
        results[name] = result
        log(f"{name:<26} {result.ns_per_op:>14,.0f} ns/op "
            f"({result.ops_per_sec:>14,.0f} ops/s)")
    if not only or "slot_sim" in only:
        result = _run_slot_sim(
            fast, spec=slot_sim_spec, executor=executor,
            observers=run_observers(telemetry_dir, trace_sample),
        )
        results["slot_sim"] = result
        metrics = result.metrics
        log(f"{'slot_sim':<26} {metrics['wall_s']:.3f} s wall, "
            f"{metrics['events_per_sec']:,.0f} events/s, "
            f"{metrics['blocks_per_sec']:,.0f} blocks/s, "
            f"trace {str(metrics['trace_sha256'])[:12]}…")
    if not only or "slot_sim_faults" in only:
        from repro.scenario import fault_bench_scenario

        result = _run_slot_sim(
            fast, spec=fault_bench_scenario(fast),
            observers=run_observers(telemetry_dir, trace_sample),
        )
        result.name = "slot_sim_faults"
        result.metrics["faulted"] = True
        results["slot_sim_faults"] = result
        metrics = result.metrics
        log(f"{'slot_sim_faults':<26} {metrics['wall_s']:.3f} s wall, "
            f"{metrics['events_per_sec']:,.0f} events/s, "
            f"{metrics['blocks_per_sec']:,.0f} blocks/s, "
            f"trace {str(metrics['trace_sha256'])[:12]}…")
    for backend in ("pbft", "iota"):
        name = f"slot_sim_{backend}"
        if only and name not in only:
            continue
        result = _run_ledger_slot_sim(
            backend, fast, observers=run_observers(telemetry_dir, trace_sample)
        )
        results[name] = result
        metrics = result.metrics
        log(f"{name:<26} {metrics['wall_s']:.3f} s wall, "
            f"{metrics['events_per_sec']:,.0f} events/s, "
            f"trace {str(metrics['trace_sha256'])[:12]}…")
    return results


def git_revision() -> str:
    """Short git revision of the working tree, or ``norev``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        # SubprocessError covers TimeoutExpired, which is not an OSError.
        pass
    return "norev"


def default_output_name(rev: Optional[str] = None) -> str:
    """``BENCH_<rev>.json``."""
    return f"BENCH_{rev if rev is not None else git_revision()}.json"


def results_to_json(
    results: Dict[str, BenchResult], fast: bool, rev: Optional[str] = None
) -> Dict[str, object]:
    """The serializable document written to ``BENCH_<rev>.json``."""
    return {
        "schema": 1,
        "rev": rev if rev is not None else git_revision(),
        "fast": fast,
        "results": {name: r.to_json() for name, r in sorted(results.items())},
    }


def compare_to_baseline(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[Tuple[str, float, bool]]:
    """Per-op slowdown ratios vs. a baseline document.

    Returns ``(name, ratio, regressed)`` for every op present in both
    documents; ``ratio`` is ``current_ns / baseline_ns`` (>1 is slower)
    and ``regressed`` flags ratios above :data:`REGRESSION_FACTOR`.
    Macro workloads (every ``slot_sim*`` row, baseline backends
    included) are compared on wall seconds — unless the current run
    routed the workload through the campaign executor
    (``campaign_routed``), whose wall time also covers deployment
    construction and is not comparable to serially recorded baselines;
    that row is skipped.  An op missing from the baseline document (a
    newly added row whose refreshed baseline has not landed yet) is
    skipped rather than failed.
    """
    rows: List[Tuple[str, float, bool]] = []
    current_results = current.get("results", {})
    baseline_results = baseline.get("results", {})
    for name in sorted(set(current_results) & set(baseline_results)):
        if name.startswith("slot_sim"):
            if current_results[name].get("metrics", {}).get("campaign_routed"):
                continue
            now = current_results[name].get("metrics", {}).get("wall_s")
            then = baseline_results[name].get("metrics", {}).get("wall_s")
        else:
            now = current_results[name].get("ns_per_op")
            then = baseline_results[name].get("ns_per_op")
        if not now or not then:
            continue
        ratio = float(now) / float(then)
        rows.append((name, ratio, ratio > REGRESSION_FACTOR))
    return rows


def load_baseline(path: str) -> Optional[Dict[str, object]]:
    """Parse a baseline document, or ``None`` if the file is absent."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)
