"""Unit tests for generator-based processes."""

import pytest

from repro.sim.errors import StopProcess
from repro.sim.kernel import Simulator
from repro.sim.process import Process


class TestBasics:
    def test_process_advances_through_timeouts(self, sim):
        trace = []

        def worker():
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            yield sim.timeout(3.0)
            trace.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trace == [0.0, 2.0, 5.0]

    def test_return_value_becomes_process_value(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return 42

        process = sim.process(worker())
        sim.run()
        assert process.triggered
        assert process.value == 42

    def test_timeout_value_is_delivered_to_yield(self, sim):
        got = []

        def worker():
            value = yield sim.timeout(1.0, value="tick")
            got.append(value)

        sim.process(worker())
        sim.run()
        assert got == ["tick"]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_yielding_non_event_raises_inside_process(self, sim):
        def worker():
            yield "not an event"

        sim.process(worker())
        with pytest.raises(TypeError):
            sim.run()


class TestComposition:
    def test_process_waits_on_another_process(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return "inner-result"

        def outer():
            result = yield sim.process(inner())
            return ("outer", result, sim.now)

        process = sim.process(outer())
        sim.run()
        assert process.value == ("outer", "inner-result", 2.0)

    def test_waiting_on_already_completed_event(self, sim):
        timeout = sim.timeout(1.0, value="early")

        def worker():
            yield sim.timeout(5.0)
            value = yield timeout  # long since processed
            return value

        process = sim.process(worker())
        sim.run()
        assert process.value == "early"

    def test_two_processes_interleave(self, sim):
        trace = []

        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                trace.append((name, sim.now))

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 3.0))
        sim.run()
        # At t=6 both fire; b's timeout was enqueued at t=3 (before a's
        # at t=4), so the kernel's schedule-order tie-break runs b first.
        assert trace == [
            ("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0), ("a", 6.0), ("b", 9.0),
        ]


class TestFailures:
    def test_failed_event_throws_into_process(self, sim):
        caught = []

        def worker():
            event = sim.event()
            event.fail(RuntimeError("boom"))
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(worker())
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_exception_propagates_without_waiters(self, sim):
        def worker():
            yield sim.timeout(1.0)
            raise ValueError("unhandled")

        sim.process(worker())
        with pytest.raises(ValueError):
            sim.run()

    def test_exception_delivered_to_waiting_process(self, sim):
        outcome = []

        def failing():
            yield sim.timeout(1.0)
            raise ValueError("inner failure")

        def waiter():
            try:
                yield sim.process(failing())
            except ValueError as exc:
                outcome.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert outcome == ["inner failure"]


class TestInterrupt:
    def test_interrupt_stops_process(self, sim):
        trace = []

        def worker():
            trace.append("start")
            yield sim.timeout(10.0)
            trace.append("never")

        process = sim.process(worker())
        sim.call_at(1.0, lambda: process.interrupt())
        sim.run()
        assert trace == ["start"]
        assert process.triggered

    def test_interrupt_allows_cleanup(self, sim):
        trace = []

        def worker():
            try:
                yield sim.timeout(10.0)
            except StopProcess:
                trace.append("cleanup")
                raise

        process = sim.process(worker())
        sim.call_at(1.0, lambda: process.interrupt())
        sim.run()
        assert trace == ["cleanup"]

    def test_interrupt_after_completion_is_noop(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(worker())
        sim.run()
        process.interrupt()
        assert process.value == "done"


class SendThrowOnly:
    """A generator wrapper exposing only ``send`` and ``throw``.

    The shape of the benchmark's traced PoP generators: a process must
    drive whatever it is given through these two methods alone.
    """

    __slots__ = ("_gen", "calls")

    def __init__(self, gen):
        self._gen = gen
        self.calls = []

    def send(self, value):
        self.calls.append("send")
        return self._gen.send(value)

    def throw(self, exc):
        self.calls.append("throw")
        return self._gen.throw(exc)


def bare(gen):
    return gen


class TestSendThrowDriver:
    """Wrapped and bare generators are driven to the same result."""

    @staticmethod
    def drive(sim, make_worker, wrap, interrupt_at=None):
        trace = []
        process = sim.process(wrap(make_worker(sim, trace)))
        if interrupt_at is not None:
            sim.call_at(interrupt_at, lambda: process.interrupt("stop"))
        sim.run()
        return trace, process.ok, process.value, sim.now, sim.processed_count

    @staticmethod
    def failed_event_worker(sim, trace):
        event = sim.event()
        event.fail(RuntimeError("boom"), delay=1.0)
        try:
            yield event
        except RuntimeError as exc:
            trace.append(("caught", str(exc), sim.now))
        value = yield sim.timeout(1.0, value="after")
        trace.append((value, sim.now))
        return "recovered"

    @staticmethod
    def processed_event_worker(sim, trace):
        early = sim.timeout(1.0, value="early")
        failed = sim.event()
        failed.fail(ValueError("late failure"), delay=2.0)
        yield sim.timeout(5.0)
        value = yield early  # already processed: resumed through a relay
        trace.append((value, sim.now))
        try:
            yield failed  # already processed and failed
        except ValueError as exc:
            trace.append(("caught", str(exc), sim.now))
        return "relayed"

    @staticmethod
    def interrupted_worker(sim, trace):
        try:
            yield sim.timeout(10.0)
            trace.append("never")
        except StopProcess as stop:
            trace.append(("stopped", str(stop), sim.now))
            raise

    @pytest.mark.parametrize(
        "worker, interrupt_at, expected_value",
        [
            ("failed_event_worker", None, "recovered"),
            ("processed_event_worker", None, "relayed"),
            ("interrupted_worker", 3.0, None),
        ],
    )
    def test_wrapped_matches_bare(self, worker, interrupt_at, expected_value):
        make_worker = getattr(self, worker)
        outcomes = []
        for wrap in (bare, SendThrowOnly):
            sim = Simulator()
            outcomes.append(self.drive(sim, make_worker, wrap, interrupt_at))
        assert outcomes[0] == outcomes[1]
        trace, ok, value, _now, _count = outcomes[0]
        assert trace
        assert ok
        assert value == expected_value

    def test_wrapper_sees_sends_and_throws(self, sim):
        wrapped = SendThrowOnly(self.processed_event_worker(sim, []))
        sim.process(wrapped)
        sim.run()
        # Bootstrap send, the 5.0 wait, the relayed value, the relayed failure.
        assert wrapped.calls == ["send", "send", "send", "throw"]

    def test_interrupt_throws_through_the_wrapper(self, sim):
        wrapped = SendThrowOnly(self.interrupted_worker(sim, []))
        process = sim.process(wrapped)
        sim.call_at(3.0, lambda: process.interrupt("stop"))
        sim.run()
        assert wrapped.calls == ["send", "throw"]
        assert process.triggered
