"""Unit tests for the event primitives and simulator core."""

import pytest

from repro.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42
        assert ev.ok

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callbacks_run_in_order(self, sim):
        ev = sim.event()
        order = []
        ev.callbacks.append(lambda e: order.append(1))
        ev.callbacks.append(lambda e: order.append(2))
        ev.succeed()
        sim.run()
        assert order == [1, 2]
        assert ev.processed

    def test_unhandled_failure_raises_simulation_error(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(SimulationError):
            sim.run()


class TestTimeout:
    def test_fires_at_right_time(self, sim):
        seen = {}
        t = sim.timeout(2.5, value="hello")
        t.callbacks.append(lambda e: seen.update(t=sim.now, v=e.value))
        sim.run()
        assert seen == {"t": 2.5, "v": "hello"}

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_ordering_of_simultaneous_timeouts(self, sim):
        order = []
        a = sim.timeout(1.0)
        b = sim.timeout(1.0)
        b.callbacks.append(lambda e: order.append("b"))
        a.callbacks.append(lambda e: order.append("a"))
        sim.run()
        # Creation (scheduling) order breaks the tie, not callback order.
        assert order == ["a", "b"]


class TestClockAndRun:
    def test_run_until_advances_clock(self, sim):
        sim.timeout(1.0)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_excludes_later_events(self, sim):
        fired = []
        sim.call_in(10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert fired == []
        sim.run(until=15.0)
        assert fired == [True]

    def test_run_until_past_raises(self, sim):
        sim.run(until=3.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_without_until_drains_like_until_inf(self):
        def load(sim):
            cancelled = sim.call_in(2.0, lambda: None)
            sim.call_in(1.0, cancelled.cancel)
            sim.call_fast(3.0, lambda arg: sim.timeout(4.0), None)
            return sim

        bare, bounded = load(Simulator(seed=1)), load(Simulator(seed=1))
        bare.run()
        bounded.run(until=float("inf"))
        # Drained to the last live entry, not parked at infinity.
        assert bare.now == bounded.now == 7.0
        assert bare.events_processed == bounded.events_processed == 3
        assert bare.peek() == float("inf")

    def test_peek_empty(self, sim):
        assert sim.peek() == float("inf")


class TestTimers:
    def test_call_in_and_cancel(self, sim):
        fired = []
        h1 = sim.call_in(1.0, fired.append, "a")
        h2 = sim.call_in(2.0, fired.append, "b")
        h2.cancel()
        sim.run()
        assert fired == ["a"]
        assert h1.time == 1.0

    def test_call_at(self, sim):
        fired = []
        sim.call_at(4.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    def test_call_at_in_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_call_at_now_is_allowed(self, sim):
        sim.run(until=5.0)
        fired = []
        sim.call_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_in(-0.5, lambda: None)


class TestConditions:
    def test_any_of_first_wins(self, sim):
        got = {}
        cond = sim.any_of([sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")])
        cond.callbacks.append(lambda e: got.update(t=sim.now, v=e.value))
        sim.run()
        assert got["t"] == 1.0
        assert got["v"] == ["fast"]

    def test_all_of_waits_for_all(self, sim):
        got = {}
        cond = sim.all_of([sim.timeout(3.0, "a"), sim.timeout(1.0, "b")])
        cond.callbacks.append(lambda e: got.update(t=sim.now, v=e.value))
        sim.run()
        assert got["t"] == 3.0
        assert sorted(got["v"]) == ["a", "b"]

    def test_empty_condition_triggers_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered

    def test_condition_with_already_processed_event(self, sim):
        t = sim.timeout(1.0, "x")
        sim.run()
        cond = sim.any_of([t])
        assert cond.triggered
        assert cond.value == ["x"]

    def test_cross_simulator_rejected(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            sim.all_of([other.timeout(1.0)])

    def test_failed_member_fails_condition(self, sim):
        ev = sim.event()
        cond = sim.all_of([ev, sim.timeout(1.0)])
        failures = []
        cond.callbacks.append(lambda e: failures.append(e.ok))
        ev.fail(ValueError("bad"))
        cond._defused = True  # we observe the failure via callbacks
        sim.run()
        assert failures == [False]


class TestRunUntilEvent:
    def test_returns_value(self, sim):
        ev = sim.timeout(2.0, "done")
        assert sim.run_until_event(ev) == "done"
        assert sim.now == 2.0

    def test_queue_drain_raises(self, sim):
        ev = sim.event()  # never triggered
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run_until_event(ev)

    def test_limit_raises(self, sim):
        ev = sim.timeout(10.0)
        with pytest.raises(SimulationError):
            sim.run_until_event(ev, limit=5.0)


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a, b = Simulator(seed=7), Simulator(seed=7)
        assert list(a.rng.random(5)) == list(b.rng.random(5))

    def test_events_processed_counts(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.events_processed == 2
