"""The neighbour-push fast path equals a per-message unicast loop.

``Network.broadcast_neighbors`` skips routing and per-hop accounting
when no drop rule is installed.  These tests drive the same seeded
workload twice on identical topologies — once through the push path,
once through a reference loop of ``Network.unicast`` calls — and hold
ledgers, message counts, the delivery sequence and the kernel's event
count equal.
"""

import random

import pytest

from repro.attacks.eclipse import eclipse_victim
from repro.net.linkmodels import partition_drop_rule, random_loss_rule
from repro.net.messages import Message
from repro.net.topology import random_geometric_topology, sequential_geometric_topology
from repro.net.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.tracing import Tracer

KINDS = ("digest", "gossip", "req_child")


def reference_push(network, sender, kind, payload, size_bits):
    """What ``broadcast_neighbors`` did before the fast path existed."""
    messages = []
    for neighbor in sorted(network.topology.neighbors(sender)):
        message = Message(
            sender=sender, recipient=neighbor, kind=kind,
            payload=payload, size_bits=size_bits,
        )
        network.unicast(message)
        messages.append(message)
    return messages


def topologies():
    return [
        pytest.param(
            sequential_geometric_topology(40, streams=RandomStreams(seed)),
            id=f"sequential-{seed}",
        )
        for seed in (1, 2)
    ] + [
        pytest.param(
            random_geometric_topology(30, area_side=150.0, streams=RandomStreams(seed)),
            id=f"random-{seed}",
        )
        for seed in (3, 4)
    ]


def run_workload(topology, push, rules=(), seed=0):
    """Seeded pushes and multi-hop sends; returns everything observable."""
    tracer = Tracer(enabled=True, keep=True)
    sim = Simulator()
    network = Network(
        sim, topology, per_hop_latency=0.002, tracer=tracer,
        category_fn=lambda kind: "dag" if kind == "digest" else "other",
    )
    for rule in rules:
        network.add_drop_rule(rule)
    created = []
    deliveries = []
    for node in topology.node_ids:
        interface = network.attach(node)
        interface.on_any(
            lambda m, node=node: deliveries.append((sim.now, node, m.sender, m.msg_id))
        )
    rng = random.Random(seed)
    nodes = topology.node_ids

    def burst(round_index):
        for sender in rng.sample(nodes, len(nodes) // 2):
            kind = rng.choice(KINDS)
            created.extend(push(network, sender, kind, (sender, round_index), 256))
            if rng.random() < 0.3:
                recipient = rng.choice(nodes)
                created.append(network.interface(sender).send(recipient, "req_child", None, 512))

    for round_index in range(6):
        sim.call_at(round_index * 0.01, lambda r=round_index: burst(r))
    sim.run()

    order = {message.msg_id: index for index, message in enumerate(created)}
    ledger = network.ledger
    categories = ledger.categories()
    return {
        "tx": {n: [ledger.tx_bits(n, [c]) for c in categories] for n in nodes},
        "rx": {n: [ledger.rx_bits(n, [c]) for c in categories] for n in nodes},
        "tx_order": list(ledger.snapshot_tx().items()),
        "categories": categories,
        "counts": ledger.message_counts(),
        "deliveries": [(t, r, s, order[i]) for t, r, s, i in deliveries],
        "created": [(m.sender, m.recipient, m.kind) for m in created],
        "processed": sim.processed_count,
        "drops": [
            (r.time, r.node, r.detail["hop_to"], r.detail["kind"])
            for r in tracer.records if r.category == "net.dropped"
        ],
    }


def fast_push(network, sender, kind, payload, size_bits):
    return network.interface(sender).broadcast_neighbors(kind, payload, size_bits)


@pytest.mark.parametrize("topology", topologies())
def test_fast_path_matches_unicast_loop(topology):
    fast = run_workload(topology, fast_push)
    reference = run_workload(topology, reference_push)
    assert fast == reference
    assert fast["deliveries"], "workload delivered nothing"
    assert fast["drops"] == []


@pytest.mark.parametrize("topology", topologies())
@pytest.mark.parametrize("rule_name", ["partition", "eclipse", "loss"])
def test_drop_rules_take_the_per_hop_path(topology, rule_name):
    def rules():
        nodes = topology.node_ids
        if rule_name == "partition":
            return [partition_drop_rule([nodes[: len(nodes) // 3]])]
        if rule_name == "eclipse":
            return [eclipse_victim(nodes[0], block_kinds=KINDS)]
        return [random_loss_rule(0.3, rng=random.Random(9))]

    fast = run_workload(topology, fast_push, rules=rules())
    reference = run_workload(topology, reference_push, rules=rules())
    assert fast == reference
    assert fast["drops"], "the drop rule never fired"


def test_dropped_push_is_charged_up_to_the_failing_hop(grid9):
    tracer = Tracer(enabled=True, keep=True)
    network = Network(Simulator(), grid9, tracer=tracer)
    received = []
    for node in grid9.node_ids:
        network.attach(node).on("digest", received.append)
    network.add_drop_rule(partition_drop_rule([[4]]))
    messages = network.interface(4).broadcast_neighbors("digest", None, 256)
    network.sim.run()
    neighbors = sorted(grid9.neighbors(4))
    assert [m.recipient for m in messages] == neighbors
    assert received == []
    assert network.ledger.tx_bits(4) == 256 * len(neighbors)
    assert all(network.ledger.rx_bits(n) == 0 for n in neighbors)
    assert network.ledger.message_count("digest") == len(neighbors)
    drops = [r for r in tracer.records if r.category == "net.dropped"]
    assert [r.detail["hop_to"] for r in drops] == neighbors


def test_isolated_sender_touches_no_ledger_entry():
    topology = random_geometric_topology(1, streams=RandomStreams(0))
    network = Network(Simulator(), topology)
    network.attach(0)
    assert network.interface(0).broadcast_neighbors("digest", None, 256) == []
    assert network.ledger.categories() == []
    assert network.ledger.message_counts() == {}
    assert network.sim.pending_count == 0


def test_non_integer_sizes_fall_back_to_per_message_accounting(grid9):
    fast = Network(Simulator(), grid9)
    reference = Network(Simulator(), grid9)
    for network, push in ((fast, fast_push), (reference, reference_push)):
        for node in grid9.node_ids:
            network.attach(node)
        for _ in range(3):
            push(network, 4, "digest", None, 0.1)
        network.sim.run()
    assert fast.ledger.tx_bits(4) == reference.ledger.tx_bits(4)
