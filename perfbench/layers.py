"""Layer attribution for the traced benchmark run.

The benchmark never edits ``src/``: it wraps each layer's public entry
points where they are called from (a module global such as
``repro.core.node.build_block``, or a class attribute such as
``Network.unicast``) for the length of one traced episode, then puts
the originals back.  Every wrapped call is a span with a name, a start,
an end and the span that was open when it began; each timed operation
of the benchmark (a slot or an audit) opens a root span, so the spans
sharing a root belong to that one slot or audit.

Self time is charged by layer switching: whenever a span opens or
closes, the time since the last switch goes to the span that was
running.  A span's self time is therefore its duration minus the time
its child spans cover.  The recorder's own bookkeeping between two
clock reads is charged to no span, and the part that does land inside
spans is subtracted (:meth:`SpanRecorder.span_cost`), so the corrected
self times of a traced round add up to its untraced time.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Span name -> layer.  A layer's self time is the sum over its names.
SPAN_LAYERS: Dict[str, str] = {
    "scenario.drive": "scenario",
    "scenario.build": "scenario",
    "sim.kernel.run": "sim.kernel",
    "net.transport.unicast": "net.transport",
    "net.transport.deliver": "net.transport",
    "net.transport.request": "net.transport",
    "net.transport.reply": "net.transport",
    "net.transport.broadcast": "net.transport",
    "net.routing.path": "net.transport",
    "core.node.generate": "core.node",
    "core.node.on_digest": "core.node",
    "core.node.on_req_child": "core.node",
    "core.node.on_block_fetch": "core.node",
    "core.block.build": "core.block",
    "core.block.auth": "core.block",
    "crypto.sign": "crypto",
    "crypto.verify": "crypto",
    "crypto.merkle": "crypto",
    "crypto.puzzle_solve": "crypto",
    "crypto.puzzle_check": "crypto",
    "core.dag.insert": "core.dag",
    "core.storage.store": "core.storage",
    "core.pop.cache": "core.storage",
    "core.pop.start": "core.pop",
    "core.pop.run": "core.pop",
    "core.pop.tps": "core.pop",
    "core.pop.wps": "core.pop",
    "core.pop.responder": "core.pop",
    "core.protocol.generate": "core.protocol",
    "core.protocol.slot": "core.protocol",
    "metrics.ledger": "metrics",
}

#: Layers in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(SPAN_LAYERS.values()))

NAMES: Tuple[str, ...] = tuple(SPAN_LAYERS)
#: Span name -> the index the recorder files it under.
INDEX = {name: i for i, name in enumerate(NAMES)}


class SpanRecorder:
    """In-memory spans plus per-name self time and call counts."""

    def __init__(self) -> None:
        n = len(NAMES)
        self.self_time: List[float] = [0.0] * n
        self.calls: List[int] = [0] * n
        #: Spans opened directly under a span of each name.
        self.children: List[int] = [0] * n
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        #: [running name index, running span id, time of last switch]
        self._state: List = [-1, -1, 0.0]
        self._stack: List[Tuple[int, int]] = []
        #: Route hops of every message, and every finished PoP outcome.
        self.hops = 0
        self.outcomes: List = []
        #: Span count when each episode of the round began.
        self.episode_starts: List[int] = []

    def enter(self, index: int) -> None:
        """Open a span of name ``index`` under the running span."""
        t = perf_counter()
        state = self._state
        if state[0] >= 0:
            self.self_time[state[0]] += t - state[2]
            self.children[state[0]] += 1
        self._stack.append((state[0], state[1]))
        span_id = len(self.span_name)
        self.span_name.append(index)
        self.span_start.append(t)
        self.span_end.append(0.0)
        self.span_parent.append(state[1])
        self.calls[index] += 1
        state[0] = index
        state[1] = span_id
        state[2] = perf_counter()

    def leave(self) -> None:
        """Close the running span and resume its parent."""
        t = perf_counter()
        state = self._state
        self.self_time[state[0]] += t - state[2]
        self.span_end[state[1]] = t
        state[0], state[1] = self._stack.pop()
        state[2] = perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        index = INDEX[name]
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            enter(index)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    # -- results -------------------------------------------------------------
    def corrected_self_time(self, span_cost: float) -> Dict[str, float]:
        """Self seconds per span name, less the recorder's own cost.

        Opening and closing a span costs the span itself and its parent
        some bookkeeping on top of the real work; ``span_cost`` is that
        cost per span and per child span (see :meth:`span_cost`).
        Without the correction a layer entered a million times (the
        ledger, the transport) would look far heavier than it is.
        """
        return {
            name: max(0.0, seconds - (calls + children) * span_cost)
            for name, seconds, calls, children in zip(
                NAMES, self.self_time, self.calls, self.children
            )
        }

    def name_calls(self, name: str) -> int:
        """Calls of one span name."""
        return self.calls[INDEX[name]]

    def span_cost(self, untraced_s: float) -> float:
        """Bookkeeping seconds per span boundary, from the untraced time.

        ``untraced_s`` is what the same operations took with tracing
        off, at this round's host speed.  The self time the spans
        record beyond it is the recorder's own cost, spread evenly
        over every span's own and parent side; a synthetic calibration
        loop underestimates it by half, because the real workload pays
        cache and branch-predictor misses for the extra code.
        """
        ops = [i for i, name in enumerate(NAMES) if name != "scenario.build"]
        recorded = sum(self.self_time[i] for i in ops)
        boundaries = sum(self.calls[i] + self.children[i] for i in ops)
        return max(0.0, recorded - untraced_s) / boundaries if boundaries else 0.0

    def drop_spans(self) -> None:
        """Free the span arrays, keeping the per-name totals."""
        for spans in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del spans[:]

    def write(self, path, first: int, last: int) -> int:
        """Write spans ``first`` to ``last`` (exclusive) as gzipped text.

        One line per span: ``name start_s end_s parent root``, times in
        seconds from the first written span, ``parent``/``root`` as line
        numbers from 0 (-1 for a root's parent).  Returns the count.
        """
        origin = self.span_start[first] if last > first else 0.0
        roots = array("l", [0]) * (last - first)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("# name start_s end_s parent root\n")
            for i in range(first, last):
                parent = self.span_parent[i]
                parent = parent - first if parent >= first else -1
                line = i - first
                roots[line] = line if parent < 0 else roots[parent]
                out.write(
                    f"{NAMES[self.span_name[i]]} {self.span_start[i] - origin:.7f} "
                    f"{self.span_end[i] - origin:.7f} {parent} {roots[line]}\n"
                )
        return last - first


class _TracedGenerator:
    """A PoP validator generator whose every resumption is a span.

    :class:`repro.sim.process.Process` drives it through ``send`` and
    ``throw`` only; the outcome is captured when the run returns.
    """

    __slots__ = ("_gen", "_recorder", "_index")

    def __init__(self, gen, recorder: SpanRecorder, index: int) -> None:
        self._gen = gen
        self._recorder = recorder
        self._index = index

    def _step(self, method, value):
        recorder = self._recorder
        recorder.enter(self._index)
        try:
            return method(value)
        except StopIteration as stop:
            recorder.outcomes.append(stop.value)
            raise
        finally:
            recorder.leave()

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, exc):
        return self._step(self._gen.throw, exc)


def _targets():
    """(owner, attribute, span name) for every wrapped layer entry point.

    Module-global targets are the names a caller looks up at call time
    (so the wrapper is seen exactly where the layer is entered); class
    targets cover method calls.  ``IoTNode`` registers its bound
    handlers at construction, which is why instrumentation is installed
    before a traced episode builds its deployment.
    """
    import repro.core.block as block_mod
    import repro.core.node as node_mod
    import repro.core.pop.validator as validator_mod
    from repro.core.block import BlockBody, BlockHeader
    from repro.core.dag import LogicalDag
    from repro.core.pop.cache import HeaderCache
    from repro.core.protocol import SlotSimulation
    from repro.core.storage import BlockStore
    from repro.crypto.puzzle import NoncePuzzle
    from repro.metrics.collector import TrafficLedger
    from repro.net.routing import RoutingTable
    from repro.net.transport import Network, NodeInterface
    from repro.scenario.runner import ScenarioRunner
    from repro.sim.kernel import Simulator

    return [
        (ScenarioRunner, "build", "scenario.build"),
        (Simulator, "run", "sim.kernel.run"),
        (Network, "unicast", "net.transport.unicast"),
        (Network, "_deliver", "net.transport.deliver"),
        (NodeInterface, "request", "net.transport.request"),
        (NodeInterface, "reply", "net.transport.reply"),
        (NodeInterface, "broadcast_neighbors", "net.transport.broadcast"),
        (RoutingTable, "path", "net.routing.path"),
        (node_mod.IoTNode, "generate_block", "core.node.generate"),
        (node_mod.IoTNode, "_on_digest", "core.node.on_digest"),
        (node_mod.IoTNode, "_on_req_child", "core.node.on_req_child"),
        (node_mod.IoTNode, "_on_block_fetch", "core.node.on_block_fetch"),
        (node_mod.IoTNode, "verify_block", "core.pop.start"),
        (node_mod, "build_block", "core.block.build"),
        (node_mod, "serve_req_child", "core.pop.responder"),
        (BlockHeader, "verify_signature", "core.block.auth"),
        (BlockHeader, "verify_nonce", "core.block.auth"),
        (block_mod, "sign", "crypto.sign"),
        (block_mod, "verify", "crypto.verify"),
        (BlockBody, "root", "crypto.merkle"),
        (NoncePuzzle, "solve", "crypto.puzzle_solve"),
        (NoncePuzzle, "check", "crypto.puzzle_check"),
        (LogicalDag, "add_header", "core.dag.insert"),
        (BlockStore, "add", "core.storage.store"),
        (BlockStore, "get", "core.storage.store"),
        (BlockStore, "oldest_child_of", "core.storage.store"),
        (HeaderCache, "add", "core.pop.cache"),
        (HeaderCache, "find_child", "core.pop.cache"),
        (validator_mod.PopValidator, "run", "core.pop.run"),
        (validator_mod, "trust_path_selection", "core.pop.tps"),
        (validator_mod, "weighted_path_selection", "core.pop.wps"),
        (SlotSimulation, "_make_generator", "core.protocol.generate"),
        (SlotSimulation, "_schedule_slot", "core.protocol.slot"),
        (SlotSimulation, "_pick_validation_target", "core.protocol.slot"),
        (SlotSimulation, "_harvest_completed", "core.protocol.slot"),
        (TrafficLedger, "record_tx", "metrics.ledger"),
        (TrafficLedger, "record_rx", "metrics.ledger"),
        (TrafficLedger, "record_message", "metrics.ledger"),
    ]


class Instrumentation:
    """Context manager installing a recorder's wrappers, then undoing them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _wrapper(self, name: str, original):
        recorder = self.recorder
        if name == "core.pop.run":
            index = INDEX[name]

            def run(*args, **kwargs):
                return _TracedGenerator(original(*args, **kwargs), recorder, index)

            return run
        if name == "core.protocol.generate":
            wrap = recorder.wrap

            def make_generator(*args, **kwargs):
                return wrap(name, original(*args, **kwargs))

            return make_generator
        if name == "net.routing.path":
            enter, leave = recorder.enter, recorder.leave
            index = INDEX[name]

            def path(*args, **kwargs):
                enter(index)
                try:
                    route = original(*args, **kwargs)
                finally:
                    leave()
                recorder.hops += len(route) - 1
                return route

            return path
        return recorder.wrap(name, original)

    def __enter__(self) -> SpanRecorder:
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
