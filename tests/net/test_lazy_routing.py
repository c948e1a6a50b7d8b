"""Lazy per-source routing equals an eager all-pairs reference.

``RoutingTable`` runs each source's BFS on first use.  The reference
below is the eager construction it replaced (BFS from every source up
front, next hop found by walking parents back to the source), so any
drift in tie-breaking or reachability shows up as a mismatch.
"""

import itertools
import random
from collections import deque

import pytest

from repro.net.routing import UNREACHABLE, RoutingTable
from repro.net.topology import (
    Topology,
    explicit_topology,
    random_geometric_topology,
    sequential_geometric_topology,
)
from repro.net.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.tracing import Tracer


class EagerRoutes:
    """All-pairs BFS tables built up front, as routing used to be."""

    def __init__(self, topology):
        self.topology = topology
        self.distance = {}
        self.next_hop = {}
        for source in topology.node_ids:
            distance = {source: 0}
            parent = {}
            queue = deque([source])
            while queue:
                node = queue.popleft()
                for neighbor in sorted(topology.neighbors(node)):
                    if neighbor not in distance:
                        distance[neighbor] = distance[node] + 1
                        parent[neighbor] = node
                        queue.append(neighbor)
            hops = {}
            for destination in distance:
                if destination == source:
                    continue
                cursor = destination
                while parent[cursor] != source:
                    cursor = parent[cursor]
                hops[destination] = cursor
            self.distance[source] = distance
            self.next_hop[source] = hops

    def path(self, source, destination):
        route = [source]
        while route[-1] != destination:
            step = self.next_hop[route[-1]].get(destination)
            if step is None:
                return None
            route.append(step)
        return route


def disconnected_geometric(seed):
    """Independent uniform placement, sparse enough to split apart."""
    rng = random.Random(seed)
    positions = {n: (rng.uniform(0, 300), rng.uniform(0, 300)) for n in range(30)}
    adjacency = {
        a: frozenset(
            b for b in positions
            if b != a and ((positions[a][0] - positions[b][0]) ** 2
                           + (positions[a][1] - positions[b][1]) ** 2) <= 50.0 ** 2
        )
        for a in positions
    }
    topology = Topology(positions=positions, adjacency=adjacency, comm_range=50.0)
    assert not topology.is_connected()
    return topology


def topologies():
    return (
        [pytest.param(sequential_geometric_topology(40, streams=RandomStreams(s)),
                      id=f"sequential-{s}") for s in (1, 2)]
        + [pytest.param(random_geometric_topology(30, streams=RandomStreams(s)),
                        id=f"random-{s}") for s in (3, 4)]
        + [pytest.param(disconnected_geometric(s), id=f"disconnected-{s}") for s in (5, 6)]
    )


@pytest.mark.parametrize("topology", topologies())
def test_lazy_table_matches_eager_reference(topology):
    eager = EagerRoutes(topology)
    lazy = RoutingTable(topology)
    assert lazy.computed_sources == 0
    # Query in a shuffled order so sources are forced in no set pattern.
    pairs = list(itertools.product(topology.node_ids, repeat=2))
    random.Random(0).shuffle(pairs)
    for source, destination in pairs:
        expected_hops = eager.distance[source].get(destination, UNREACHABLE)
        assert lazy.hop_count(source, destination) == expected_hops
        if source == destination:
            assert lazy.next_hop(source, destination) is None
            assert lazy.path(source, destination) == [source]
            continue
        assert lazy.next_hop(source, destination) == eager.next_hop[source].get(destination)
        expected_path = eager.path(source, destination)
        if expected_path is None:
            with pytest.raises(ValueError):
                lazy.path(source, destination)
        else:
            assert lazy.path(source, destination) == expected_path
            # The memoised route comes back equal, and as a fresh list.
            again = lazy.path(source, destination)
            assert again == expected_path and again is not lazy.path(source, destination)


@pytest.mark.parametrize("topology", topologies())
def test_aggregates_match_eager_reference(topology):
    eager = EagerRoutes(topology)
    for source in topology.node_ids:
        reachable = eager.distance[source]
        assert RoutingTable(topology).nodes_sorted_by_distance(source) == sorted(
            reachable, key=lambda n: (reachable[n], n)
        )
        assert RoutingTable(topology).eccentricity(source) == max(reachable.values())
    assert RoutingTable(topology).diameter() == max(
        max(d.values()) for d in eager.distance.values()
    )


def test_aggregates_force_only_what_they_read(grid9):
    table = RoutingTable(grid9)
    table.nodes_sorted_by_distance(4)
    assert table.computed_sources == 1
    table.eccentricity(0)
    assert table.computed_sources == 2
    table.diameter()
    assert table.computed_sources == grid9.node_count


@pytest.mark.parametrize("topology", topologies()[4:])
def test_unroutable_unicast_still_emits(topology):
    eager = EagerRoutes(topology)
    source = topology.node_ids[0]
    stranded = next(n for n in topology.node_ids if n not in eager.distance[source])
    tracer = Tracer(enabled=True, keep=True)
    network = Network(Simulator(), topology, tracer=tracer)
    network.attach(stranded)
    network.attach(source).send(stranded, "ping", None, 10)
    network.sim.run()
    unroutable = [r for r in tracer.records if r.category == "net.unroutable"]
    assert [(r.node, r.detail["recipient"]) for r in unroutable] == [(source, stranded)]
    assert network.ledger.tx_bits(source) == 0


def test_neighbour_pushes_compute_no_routes():
    topology = sequential_geometric_topology(60, streams=RandomStreams(7))
    network = Network(Simulator(), topology)
    for node in topology.node_ids:
        network.attach(node)
    for node in topology.node_ids:
        network.interface(node).broadcast_neighbors("digest", None, 256)
    network.sim.run()
    assert network.routing.computed_sources == 0
    # One multi-hop message forces exactly the sources along its route.
    far = max(topology.node_ids, key=lambda n: network.routing.hop_count(0, n))
    route = network.routing.path(0, far)
    assert network.routing.computed_sources == len(route) - 1


def test_unroutable_pair_raises_on_every_call():
    table = RoutingTable(explicit_topology([(0, 1), (2, 3)]))
    for _ in range(2):
        with pytest.raises(ValueError):
            table.path(0, 3)
