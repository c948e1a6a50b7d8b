"""ScheduledCall fast path, unified lazy cancellation and the run loop."""

import heapq
import random

import pytest

from repro.sim.errors import EventStateError, SimulationError
from repro.sim.kernel import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ScheduledCall,
    Simulator,
    Timeout,
)


class TestScheduledCall:
    def test_call_at_returns_scheduled_call(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        assert isinstance(handle, ScheduledCall)
        assert not handle.processed
        assert not handle.cancelled

    def test_processed_after_run(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        sim.run()
        assert handle.processed

    def test_cancel_prevents_run(self, sim):
        hits = []
        handle = sim.call_in(1.0, lambda: hits.append(1))
        handle.cancel()
        sim.run()
        assert hits == []
        assert handle.cancelled
        assert not handle.processed

    def test_cancel_after_processing_raises(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(EventStateError):
            handle.cancel()

    def test_cancel_drops_closure(self, sim):
        handle = sim.call_at(1.0, lambda: None)
        handle.cancel()
        assert handle.fn is None


class TestOrderingWithFullEvents:
    def test_interleaves_with_timeouts_in_schedule_order(self, sim):
        order = []
        sim.call_at(1.0, lambda: order.append("call-1"))
        timeout = Timeout(sim, 1.0, value="timeout")
        timeout.callbacks.append(lambda ev: order.append(ev.value))
        sim.call_at(1.0, lambda: order.append("call-2"))
        sim.run()
        assert order == ["call-1", "timeout", "call-2"]

    def test_priority_still_beats_schedule_order(self, sim):
        order = []
        sim.call_at(1.0, lambda: order.append("normal"))
        sim.call_at(1.0, lambda: order.append("high"), priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal"]

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            for tag in range(30):
                if tag % 3 == 0:
                    timeout = Timeout(sim, float(tag % 5), value=tag)
                    timeout.callbacks.append(lambda ev: order.append(ev.value))
                else:
                    sim.call_at(float(tag % 5), lambda t=tag: order.append(t))
            sim.run()
            return order

        assert run_once() == run_once()


class TestCancelledCount:
    def test_counts_cancelled_pops(self, sim):
        handles = [sim.call_at(1.0, lambda: None) for _ in range(5)]
        for handle in handles[:3]:
            handle.cancel()
        sim.run()
        assert sim.cancelled_count == 3
        assert sim.processed_count == 2

    def test_peek_and_step_count_each_discard_once(self, sim):
        first = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0          # discards the cancelled head
        assert sim.cancelled_count == 1
        assert sim.step() is True          # must not double-count
        assert sim.cancelled_count == 1
        assert sim.processed_count == 1

    def test_cancelled_event_objects_also_counted(self, sim):
        event = sim.event()
        event.succeed("value", delay=1.0)
        event.cancel()
        sim.run()
        assert sim.cancelled_count == 1
        assert not event.processed

    def test_zero_when_nothing_cancelled(self, sim):
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert sim.cancelled_count == 0


# -- run() against a peek()/step() reference loop ------------------------------

PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)
DELAYS = (0.0, 0.5, 1.0, 1.0, 2.0, 3.5)


def step_run(sim, until=None, max_events=None):
    """The reference: ``run`` spelled out with the public ``peek``/``step``.

    Leaves ``sim.now`` where the last event put it; the caller compares
    against ``max(now, until)``.
    """
    processed = 0
    while True:
        next_time = sim.peek()
        if next_time is None:
            break
        if until is not None and next_time > until:
            break
        sim.step()
        processed += 1
        if max_events is not None and processed >= max_events:
            raise SimulationError(f"max_events budget of {max_events} exhausted")


def random_schedule(seed):
    """A seeded mix of calls, timeouts, events and processes.

    Callbacks draw from the schedule's own RNG while running, so two
    copies built from one seed stay identical only if they dispatch in
    the same order.  Returns ``(sim, log)``.
    """
    rng = random.Random(seed)
    sim = Simulator()
    log = []
    handles = []

    def call(tag, depth):
        def fire():
            log.append(("call", tag, sim.now))
            roll = rng.random()
            if roll < 0.35 and depth < 3:
                handles.append(sim.call_in(
                    rng.choice(DELAYS), call(f"{tag}.{depth}", depth + 1),
                    rng.choice(PRIORITIES),
                ))
            elif roll < 0.6:
                # Cancel a pending entry: often the heap top (same time,
                # next sequence), otherwise one deeper in the heap.
                victim = rng.choice(handles)
                if not victim.processed:
                    victim.cancel()
        return fire

    def worker(tag, steps):
        for i in range(steps):
            value = yield sim.timeout(rng.choice(DELAYS), value=i)
            log.append(("proc", tag, value, sim.now))
        return tag

    for i in range(rng.randint(20, 60)):
        kind = rng.random()
        when = float(rng.randint(0, 8)) / 2
        if kind < 0.55:
            handles.append(sim.call_at(when, call(i, 0), rng.choice(PRIORITIES)))
        elif kind < 0.75:
            timeout = Timeout(sim, when, value=i)
            timeout.callbacks.append(lambda ev: log.append(("timeout", ev.value, sim.now)))
        elif kind < 0.9:
            event = sim.event()
            event.callbacks.append(lambda ev, i=i: log.append(("event", i, sim.now)))
            event.succeed(delay=when)
            if rng.random() < 0.4:
                event.cancel()
        else:
            process = sim.process(worker(i, rng.randint(1, 4)))
            process.callbacks.append(lambda ev: log.append(("done", ev.value, sim.now)))
    # Cancel before the run starts: the earliest entry (the heap top)
    # and a random handful of others.
    earliest = sim.call_at(0.0, call("top", 3), PRIORITY_HIGH)
    earliest.cancel()
    for handle in rng.sample(handles, len(handles) // 5):
        handle.cancel()
    return sim, log


def observed(sim, log):
    return (list(log), sim.processed_count, sim.cancelled_count, sim.pending_count)


class TestRunMatchesStepLoop:
    @pytest.mark.parametrize("seed", range(30))
    def test_drain(self, seed):
        fast, fast_log = random_schedule(seed)
        slow, slow_log = random_schedule(seed)
        fast.run()
        step_run(slow)
        assert fast_log, "schedule dispatched nothing"
        assert observed(fast, fast_log) == observed(slow, slow_log)
        assert fast.now == slow.now

    @pytest.mark.parametrize("seed", range(30))
    def test_until_segments(self, seed):
        fast, fast_log = random_schedule(seed)
        slow, slow_log = random_schedule(seed)
        clock = 0.0
        for until in (0.0, 0.75, 1.5, 1.5, 3.0, 4.25, None):
            fast.run(until=until)
            step_run(slow, until=until)
            assert observed(fast, fast_log) == observed(slow, slow_log)
            # The reference's clock stops at its last event; run() also
            # advances to every ``until`` it was given.
            clock = max(clock, slow.now, until if until is not None else clock)
            assert fast.now == clock
            if until is not None:
                next_time = fast.peek()
                assert next_time is None or next_time > until

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("budget", [1, 7, 25])
    def test_max_events(self, seed, budget):
        fast, fast_log = random_schedule(seed)
        slow, slow_log = random_schedule(seed)
        with pytest.raises(SimulationError) as fast_error:
            fast.run(max_events=budget)
        with pytest.raises(SimulationError) as slow_error:
            step_run(slow, max_events=budget)
        assert str(fast_error.value) == str(slow_error.value)
        assert fast.processed_count == budget
        assert observed(fast, fast_log) == observed(slow, slow_log)


class TestRunLoopContract:
    def test_until_leaves_later_events_queued(self, sim):
        hits = []
        sim.call_at(1.0, lambda: hits.append(1.0))
        sim.call_at(5.0, lambda: hits.append(5.0))
        sim.run(until=3.0)
        assert hits == [1.0]
        assert sim.now == 3.0
        assert sim.pending_count == 1
        assert sim.peek() == 5.0

    def test_until_with_only_cancelled_entries_before_it(self, sim):
        hits = []
        sim.call_at(1.0, lambda: hits.append(1.0)).cancel()
        sim.call_at(2.0, lambda: hits.append(2.0)).cancel()
        sim.call_at(5.0, lambda: hits.append(5.0))
        sim.run(until=3.0)
        assert hits == []
        assert sim.now == 3.0
        assert sim.processed_count == 0
        assert sim.cancelled_count == 2
        assert sim.pending_count == 1
        assert sim.peek() == 5.0

    def test_until_discards_a_cancelled_top_beyond_it(self, sim):
        # As peek() would: the cancelled top goes even past ``until``.
        sim.call_at(4.0, lambda: None).cancel()
        sim.call_at(5.0, lambda: None)
        sim.run(until=3.0)
        assert sim.cancelled_count == 1
        assert sim.pending_count == 1

    def test_until_in_the_past_keeps_the_clock(self, sim):
        sim.call_at(2.0, lambda: None)
        sim.run()
        sim.run(until=1.0)
        assert sim.now == 2.0

    def test_max_events_raises_after_exactly_n(self, sim):
        hits = []
        for i in range(10):
            handle = sim.call_at(float(i), lambda i=i: hits.append(i))
            if i % 3 == 0:
                handle.cancel()
        with pytest.raises(SimulationError, match="max_events budget of 4 exhausted"):
            sim.run(max_events=4)
        assert hits == [1, 2, 4, 5]
        assert sim.processed_count == 4
        assert sim.now == 5.0

    def test_max_events_counts_per_call(self, sim):
        for i in range(6):
            sim.call_at(float(i), lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert sim.processed_count == 6

    def test_reentrant_run_raises(self, sim):
        sim.call_at(1.0, lambda: sim.run())
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()
        # The guard is released, so the simulator is usable again.
        hits = []
        sim.call_at(2.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [2.0]

    def test_time_moving_backwards_is_detected(self, sim):
        sim.call_at(2.0, lambda: None)
        sim.run()
        heapq.heappush(sim._heap, (1.0, PRIORITY_NORMAL, -1, ScheduledCall(lambda: None)))
        with pytest.raises(SimulationError, match="time moved backwards"):
            sim.run()

    def test_callbacks_may_step_inside_run(self, sim):
        order = []
        sim.call_at(1.0, lambda: (order.append("a"), sim.step()))
        sim.call_at(1.0, lambda: order.append("b"))
        sim.call_at(2.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.processed_count == 3
