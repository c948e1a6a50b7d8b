"""The benchmark's three workloads, each a list of seeded episodes.

An *episode* builds one deployment through ``ScenarioSpec`` ->
``ScenarioRunner`` and drives it operation by operation; an
*operation* is one simulated slot, or one on-demand audit.  A run
repeats the same episodes in rounds, so every operation is timed
several times on identical work.

One run covers ``EPISODES[workload]`` deployments, kept short so that
several fit in a run: the simulated work of one seeded topology varies
by up to a third between seeds (node degrees, coalition placement),
and a run's figures should not depend on which seed it was given.
Episode ``j`` of a run with seed ``s`` gets
``ScenarioSpec.seed = s * EPISODES[workload] + j``, and the audit
choices of ``audit-attack`` come from ``random.Random(ScenarioSpec.seed)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from perfbench.layers import INDEX
from repro.bench.trace import slot_simulation_trace_digest
from repro.experiments.common import ExperimentScale
from repro.scenario import ScenarioRunner, ScenarioSpec, fig7_scenario, fig9_scenario
from repro.scenario.spec import ProtocolSpec, TopologySpec, WorkloadSpec

#: Deployments per run, by workload.
EPISODES = {"ingest": 6, "slot-mixed": 6, "audit-attack": 4}

#: ``ingest``: the top rung of the node-count ladder, writes only.
INGEST_NODES = 160
INGEST_SLOTS = 4

#: ``slot-mixed``: the paper's §VI workload with the minimum validation
#: age pinned well below the slot count, so PoP runs from slot 6 on.
MIXED_NODES = 50
MIXED_GAMMA = 12
MIXED_SLOTS = 14
MIXED_MIN_AGE = 6

#: ``audit-attack``: Fig. 9 with 11 of 24 nodes (46%) PoP-silent and
#: gamma equal to the coalition size.  The DAG grows to each stage
#: slot, then ``AUDITS_PER_STAGE`` early honest blocks are audited.
ATTACK_NODES = 24
ATTACK_GAMMA = 11
ATTACK_SILENT = 11
ATTACK_STAGES = (13, 17, 21)
AUDITS_PER_STAGE = 10


@dataclass
class Episode:
    """What one run of one episode measured and produced."""

    setup_s: float
    setup_probe_s: float
    #: Host seconds of every timed operation, in order.
    op_s: List[float]
    op_probe_s: List[float]
    #: Kernel events each operation processed.
    op_events: List[int]
    #: Which operations are the workload's latency samples (slots or
    #: audits); the others (DAG growth between audits) count only in
    #: ``run_s``.
    sampled: List[bool]
    blocks: int
    #: PoP runs started (on the slot workloads, including any still
    #: in flight when the last slot ended).
    pop_runs: int
    timeouts: int
    #: Cancelled kernel heap entries discarded.
    cancelled: int
    digest: str
    #: Coverage or completion problems; empty when the episode is sound.
    problems: List[str] = field(default_factory=list)


def probe() -> float:
    """Host seconds of a fixed pure-Python loop that runs no repro code.

    Timed next to every operation: the host's speed drifts by up to
    1.6x over tens of seconds (other tenants share its cores), and the
    probe sees that drift as the operation does, while no change to
    the code under test can speed it up.
    """
    t = perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(1500):
        acc = (acc + i * 7919) % 1000003
        table[i & 255] = table.get(i & 255, 0) + acc
    hashlib.sha256(acc.to_bytes(8, "big")).digest()
    return perf_counter() - t


class _Ops:
    """Times operations; under tracing each one is a root span."""

    def __init__(self, sim, recorder=None) -> None:
        self.op_s: List[float] = []
        #: Mean of the probes taken just before and just after each op.
        self.op_probe_s: List[float] = []
        self.op_events: List[int] = []
        self.sampled: List[bool] = []
        self._sim = sim
        self._recorder = recorder

    def time(self, fn: Callable[[], object], sampled: bool = True) -> object:
        recorder = self._recorder
        before = probe()
        if recorder is not None:
            recorder.enter(INDEX["scenario.drive"])
        events = self._sim.processed_count
        t = perf_counter()
        try:
            return fn()
        finally:
            self.op_s.append(perf_counter() - t)
            self.op_events.append(self._sim.processed_count - events)
            self.sampled.append(sampled)
            if recorder is not None:
                recorder.leave()
            self.op_probe_s.append((before + probe()) / 2)


def _build(spec: ScenarioSpec):
    before = probe()
    t = perf_counter()
    runner = ScenarioRunner(spec).build()
    setup_s = perf_counter() - t
    return runner, setup_s, (before + probe()) / 2


def _slot_episode(spec: ScenarioSpec, recorder) -> Episode:
    runner, setup_s, setup_probe_s = _build(spec)
    ops = _Ops(runner.deployment.sim, recorder)
    for slot in range(1, spec.workload.slots + 1):
        ops.time(lambda: runner.advance_to(slot))
    workload = runner.workload
    sim = runner.deployment.sim
    outcomes = [record.outcome for record in workload.validations]
    return Episode(
        setup_s=setup_s,
        setup_probe_s=setup_probe_s,
        op_s=ops.op_s,
        op_probe_s=ops.op_probe_s,
        op_events=ops.op_events,
        sampled=ops.sampled,
        blocks=workload.total_blocks(),
        pop_runs=len(outcomes) + workload.pending_validations,
        timeouts=sum(o.timeouts for o in outcomes),
        cancelled=sim.cancelled_count,
        digest=slot_simulation_trace_digest(workload),
    )


def ingest_spec(seed: int) -> ScenarioSpec:
    """Fig. 7's storage workload at 160 nodes: 1 block/slot/node, no PoP."""
    scale = ExperimentScale(
        node_count=INGEST_NODES, slots=INGEST_SLOTS, sample_slots=[],
        validation=False, seed=seed,
    )
    return fig7_scenario(body_mb=0.5, scale=scale)


def mixed_spec(seed: int) -> ScenarioSpec:
    """§VI: 50 nodes, gamma 12, every generating node validates an old block."""
    return ScenarioSpec(
        name="bench-slot-mixed",
        description="§VI generation + generation-time PoP",
        protocol=ProtocolSpec.paper(gamma=MIXED_GAMMA, body_mb=0.5),
        topology=TopologySpec(node_count=MIXED_NODES),
        workload=WorkloadSpec(
            slots=MIXED_SLOTS,
            generation_period=1,
            validate=True,
            validation_min_age_slots=MIXED_MIN_AGE,
        ),
        seed=seed,
    )


def attack_spec(seed: int) -> ScenarioSpec:
    """Fig. 9's shape: random-1-2 generation, no generation-time PoP."""
    spec = fig9_scenario(
        gamma=ATTACK_GAMMA,
        malicious=ATTACK_SILENT,
        slots=ATTACK_STAGES[-1],
        scale=ExperimentScale(node_count=ATTACK_NODES),
    )
    return dataclasses.replace(spec, seed=seed)


def ingest_episode(seed: int, recorder=None) -> Episode:
    episode = _slot_episode(ingest_spec(seed), recorder)
    if episode.pop_runs:
        episode.problems.append(f"ingest ran {episode.pop_runs} PoP validations")
    expected = INGEST_NODES * INGEST_SLOTS
    if episode.blocks != expected:
        episode.problems.append(f"ingest generated {episode.blocks} blocks, not {expected}")
    return episode


def mixed_episode(seed: int, recorder=None) -> Episode:
    episode = _slot_episode(mixed_spec(seed), recorder)
    if episode.pop_runs == 0:
        episode.problems.append("slot-mixed ran 0 PoP validations")
    return episode


def _outcome_line(outcome) -> str:
    consensus = ",".join(str(n) for n in sorted(outcome.consensus_set))
    return (
        f"success={outcome.success} consensus=[{consensus}] "
        f"req={outcome.requests_sent} timeouts={outcome.timeouts} "
        f"finished={outcome.finished_at!r}"
    )


def attack_episode(seed: int, recorder=None) -> Episode:
    spec = attack_spec(seed)
    runner, setup_s, setup_probe_s = _build(spec)
    ops = _Ops(runner.deployment.sim, recorder)
    rng = random.Random(seed)
    deployment = runner.deployment
    quorum = spec.protocol.gamma + 1
    lines: List[str] = []
    problems: List[str] = []
    timeouts = 0
    audits = 0
    for stage in ATTACK_STAGES:
        ops.time(lambda: runner.advance_to(stage), sampled=False)
        honest = deployment.honest_ids
        honest_set = set(honest)
        targets = [
            block
            for slot in range(ATTACK_GAMMA)
            for block in runner.workload.blocks_by_slot.get(slot, [])
            if block.origin in honest_set
        ]
        for _ in range(AUDITS_PER_STAGE):
            target = rng.choice(targets)
            auditor = rng.choice([n for n in honest if n != target.origin])

            def audit():
                process = deployment.node(auditor).verify_block(
                    target.origin, target, fetch_body=False
                )
                deployment.sim.run()
                return process

            process = ops.time(audit)
            audits += 1
            if not (process.triggered and process.ok):
                problems.append(f"audit {audits} of {target} never completed")
                lines.append(f"audit {auditor} {target} incomplete")
                continue
            outcome = process.value
            timeouts += outcome.timeouts
            if outcome.success and len(outcome.consensus_set) < quorum:
                problems.append(f"audit {audits} succeeded below quorum")
            lines.append(f"audit {auditor} {target} {_outcome_line(outcome)}")
    if timeouts == 0:
        problems.append("audit-attack saw no PoP timeout: the coalition never engaged")
    workload = runner.workload
    sim = deployment.sim
    payload = "\n".join([slot_simulation_trace_digest(workload)] + lines)
    return Episode(
        setup_s=setup_s,
        setup_probe_s=setup_probe_s,
        op_s=ops.op_s,
        op_probe_s=ops.op_probe_s,
        op_events=ops.op_events,
        sampled=ops.sampled,
        blocks=workload.total_blocks(),
        pop_runs=audits,
        timeouts=timeouts,
        cancelled=sim.cancelled_count,
        digest=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        problems=problems,
    )


#: Workload name -> episode function ``(scenario seed, recorder) -> Episode``.
WORKLOADS: Dict[str, Callable[[int, Optional[object]], Episode]] = {
    "ingest": ingest_episode,
    "slot-mixed": mixed_episode,
    "audit-attack": attack_episode,
}


def episode_seeds(workload: str, seed: int) -> List[int]:
    """The ``ScenarioSpec.seed`` of each episode of a run."""
    count = EPISODES[workload]
    return [seed * count + j for j in range(count)]
