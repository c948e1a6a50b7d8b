"""Shortest-path routing over a topology.

PoP's validator exchanges ``REQ_CHILD``/``RPY_CHILD`` with nodes that
are generally not its physical neighbours, so those unicasts traverse
multi-hop routes.  :class:`RoutingTable` derives hop counts and
next-hops with per-source BFS (unweighted links), which is exact for
the paper's unit-cost wireless graph; each source's BFS runs on first
use.

The paper's §VII names "construct the shortest path from a validator to
a verifier in the physical layer" as future work; this module is also
the substrate for that extension (see the validator's ``route_aware``
option).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.net.topology import Topology

#: Hop count reported for unreachable destinations.
UNREACHABLE = -1


class RoutingTable:
    """Shortest-path routes over a :class:`Topology`, built per source on demand.

    Routes are deterministic: among equal-length routes, the next hop
    with the smallest node id is chosen, keeping byte accounting
    reproducible across runs.

    Each source's BFS runs the first time a query needs it, so a run
    whose traffic is all one-hop neighbour pushes never pays for
    all-pairs routing.  The topology is immutable, so neither the
    per-source tables nor the memoised routes can go stale.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._distance: Dict[int, Dict[int, int]] = {}
        self._next_hop: Dict[int, Dict[int, int]] = {}
        self._routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    @property
    def computed_sources(self) -> int:
        """How many sources have had their BFS run so far."""
        return len(self._distance)

    def _compute_from(self, source: int) -> None:
        sorted_neighbors = self.topology.sorted_neighbors
        distance: Dict[int, int] = {source: 0}
        next_hop: Dict[int, int] = {}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            # The first hop toward anything discovered from ``node`` is
            # the first hop toward ``node`` itself (or the child, when
            # ``node`` is the source): the BFS tree's level-1 ancestor.
            first = next_hop.get(node)
            for neighbor in sorted_neighbors[node]:
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    next_hop[neighbor] = neighbor if first is None else first
                    queue.append(neighbor)
        self._distance[source] = distance
        self._next_hop[source] = next_hop

    def _distances(self, source: int) -> Dict[int, int]:
        if source not in self._distance:
            self._compute_from(source)
        return self._distance[source]

    def hop_count(self, source: int, destination: int) -> int:
        """Hops on the shortest route, 0 for self, ``UNREACHABLE`` if none."""
        if source == destination:
            return 0
        return self._distances(source).get(destination, UNREACHABLE)

    def next_hop(self, source: int, destination: int) -> Optional[int]:
        """First hop from ``source`` toward ``destination`` (``None`` if unreachable)."""
        if source == destination:
            return None
        if source not in self._next_hop:
            self._compute_from(source)
        return self._next_hop[source].get(destination)

    def path(self, source: int, destination: int) -> List[int]:
        """Full node sequence ``[source, ..., destination]``.

        Each hop follows the current node's own next hop, so a route is
        the chain of per-node routing decisions a real forwarder makes.
        Routes are memoised; the caller gets a fresh list.  Raises
        ``ValueError`` when the destination is unreachable.
        """
        if source == destination:
            return [source]
        route = self._routes.get((source, destination))
        if route is None:
            walk = [source]
            cursor = source
            while cursor != destination:
                step = self.next_hop(cursor, destination)
                if step is None:
                    raise ValueError(f"no route from {source} to {destination}")
                walk.append(step)
                cursor = step
            route = self._routes[(source, destination)] = tuple(walk)
        return list(route)

    def eccentricity(self, node: int) -> int:
        """Largest hop count from ``node`` to any reachable node."""
        return max(self._distances(node).values())

    def diameter(self) -> int:
        """Largest hop count over all reachable pairs."""
        return max(self.eccentricity(n) for n in self.topology.node_ids)

    def nodes_sorted_by_distance(self, source: int) -> List[int]:
        """All reachable nodes ordered by (hops, id) — used by experiments."""
        reachable = self._distances(source)
        return sorted(reachable, key=lambda n: (reachable[n], n))
