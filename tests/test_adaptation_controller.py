"""The closed-loop :class:`repro.slo.AdaptationController`: boost on
violation, degradation ladder under denial and outage, flap-rate
bounds, and the no-double-booking contract across broker restarts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import MpichGQ, Simulator, garnet, mbps
from repro.faults import ChaosSchedule
from repro.slo import (
    CLOSED,
    RUNG_AF,
    RUNG_BEST_EFFORT,
    RUNG_PREMIUM,
    AdaptationController,
    SloMonitor,
    SloSpec,
)


def make_deployment(seed=11, backbone=mbps(30.0)):
    sim = Simulator(seed=seed)
    testbed = garnet(sim, backbone_bandwidth=backbone)
    gq = MpichGQ.on_garnet(testbed, resilient=True)
    return sim, testbed, gq


def make_monitor(sim, window=0.5):
    spec = SloSpec(p95_latency_s=0.05, goodput_floor_bps=mbps(4.0))
    return SloMonitor(
        sim, spec, window=window, n_windows=4, k_violations=2,
        clear_windows=2,
    )


def pressure(sim, monitor, bad=lambda: True, until=1e9, period=0.25):
    """Synthetic feed: violating samples while ``bad()`` is true."""

    def gen():
        while sim.now < until:
            if bad():
                monitor.record_latency(0.200)
                monitor.record_delivered(1_000)
            else:
                monitor.record_latency(0.001)
                monitor.record_delivered(500_000)
            monitor.record_sent(1)
            yield sim.timeout(period)

    sim.process(gen())


class TestClosedLoop:
    def test_violation_triggers_upward_renegotiation(self):
        sim, testbed, gq = make_deployment()
        monitor = make_monitor(sim)
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(2.0),
            monitor=monitor, boost_factor=2.0, max_bps=mbps(8.0),
            upgrade_interval=None,
        )
        assert ctl.granted_bps == mbps(2.0)
        pressure(sim, monitor)
        sim.run(until=10.0)
        # The loop boosted 2 -> 4 -> 8 and stopped at the ceiling.
        assert ctl.granted_bps == mbps(8.0)
        assert ctl.renegotiations >= 2
        assert ctl.rung == RUNG_PREMIUM

    def test_clear_resets_and_stops_boosting(self):
        sim, testbed, gq = make_deployment()
        monitor = make_monitor(sim)
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(2.0),
            monitor=monitor, max_bps=mbps(8.0), upgrade_interval=None,
        )
        phase = {"bad": True}
        pressure(sim, monitor, bad=lambda: phase["bad"])
        sim.call_at(4.0, lambda: phase.update(bad=False))
        sim.run(until=12.0)
        assert ctl.state == "MEETING"
        assert not monitor.violating
        granted_after_clear = ctl.granted_bps
        sim.run(until=20.0)
        assert ctl.granted_bps == granted_after_clear  # no idle boosts

    def test_denials_walk_ladder_to_af(self):
        sim, testbed, gq = make_deployment()
        # Eat the EF headroom (21 Mb/s at 30 Mb/s backbone) so every
        # boost is denied on capacity.
        gq.agent.reserve_flows(0, 1, mbps(15.0))
        monitor = make_monitor(sim)
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(5.0),
            monitor=monitor, boost_factor=1.6, max_bps=mbps(15.0),
            cooldown=1.0, denials_before_degrade=2, upgrade_interval=None,
        )
        rungs = []
        ctl.listeners.append(lambda c: rungs.append(c.rung))
        pressure(sim, monitor)
        sim.run(until=6.0)
        assert ctl.denials >= 2
        assert ctl.degradations >= 1
        # The ladder dropped to AF when boosts were denied, and climbed
        # back whenever the un-boosted rate fit again (restore-first):
        # a bounded premium <-> AF oscillation, never a one-way slide.
        assert RUNG_AF in rungs
        assert ctl.restores >= 1
        assert ctl.flaps <= ctl.flap_bound(6.0)
        # Conservation even in the denial storm.
        manager = gq.gara.manager("network")
        assert gq.broker.conservation_errors(manager._claims.values()) == []


class TestFlapBound:
    def test_oscillating_load_no_flap_storm(self):
        sim, testbed, gq = make_deployment()
        gq.agent.reserve_flows(0, 1, mbps(15.0))  # boosts always denied
        monitor = make_monitor(sim)
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(5.0),
            monitor=monitor, boost_factor=1.6, max_bps=mbps(15.0),
            cooldown=2.0, denials_before_degrade=2,
            upgrade_interval=1.0,  # restore pressure against the ladder
        )
        # Load flips between violating and clean every 2 s: the worst
        # case for flapping (each phase is long enough for the vote to
        # trip/clear, so without cooldowns the rung would toggle every
        # phase, plus once more per restore tick).
        horizon = 40.0
        pressure(
            sim, monitor, bad=lambda: int(sim.now / 2.0) % 2 == 0,
            until=horizon,
        )
        sim.run(until=horizon)
        assert ctl.degradations >= 1  # ladder actually engaged
        assert ctl.restores >= 1  # and climbed back
        assert ctl.flaps >= 2  # oscillation did move the rung...
        assert ctl.flaps <= ctl.flap_bound(horizon)  # ...boundedly

    def test_flap_bound_formula(self):
        sim, testbed, gq = make_deployment()
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(1.0), cooldown=3.0, upgrade_interval=None
        )
        assert ctl.flap_bound(0.0) == 1
        assert ctl.flap_bound(8.9) == 3  # 1 + floor(8.9/3)
        assert ctl.flap_bound(-1.0) == 0


class TestBrokerOutage:
    def test_ladder_bottoms_out_and_recovers_after_restart(self):
        sim, testbed, gq = make_deployment()
        monitor = make_monitor(sim)
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(5.0),
            monitor=monitor, boost_factor=1.6, max_bps=mbps(15.0),
            cooldown=0.5, denials_before_degrade=2,
            max_broker_retries=1, backoff_base=0.1, backoff_cap=0.2,
            upgrade_interval=1.0,
        )
        pressure(sim, monitor)
        chaos = ChaosSchedule(sim, testbed.network)
        chaos.at(2.0).crash(gq.broker)
        rungs = []
        ctl.listeners.append(lambda c: rungs.append(c.rung))
        # A long outage: retry exhaustion counts as denials, premium
        # drops to AF, continued violations at AF drop to best-effort.
        # (The restore tick keeps probing back up at the cooldown-
        # bounded rate — AF needs no admission — so the rung oscillates
        # below premium rather than parking at the bottom.)
        sim.run(until=10.0)
        assert ctl.rung in (RUNG_AF, RUNG_BEST_EFFORT)
        assert RUNG_BEST_EFFORT in rungs  # the ladder bottomed out
        assert ctl.broker_retries >= 1
        assert RUNG_AF in rungs  # stepped through AF, no rung skipped
        assert ctl.reservation is None  # nothing premium held while down
        # Restart: the upgrade tick climbs best-effort -> AF -> premium.
        gq.broker.restart()
        sim.run(until=20.0)
        assert ctl.rung == RUNG_PREMIUM
        assert ctl.reservation is not None
        assert ctl.restores >= 2

    def test_no_double_booking_across_mid_renegotiation_crash(self):
        sim, testbed, gq = make_deployment()
        monitor = make_monitor(sim)
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(5.0),
            monitor=monitor, boost_factor=1.6, max_bps=mbps(15.0),
            upgrade_interval=1.0,
        )
        pressure(sim, monitor)
        chaos = ChaosSchedule(sim, testbed.network)
        # The vote trips at ~1.5s and boosts continue; the crash lands
        # while the loop is mid-flight, the restart during backoff.
        chaos.at(2.0).crash(gq.broker)
        chaos.at(2.6).restart(gq.broker)
        sim.run(until=10.0)
        assert ctl.broker_retries >= 1  # the outage hit a renegotiation
        broker = gq.broker
        manager = gq.gara.manager("network")
        assert broker.conservation_errors(manager._claims.values()) == []
        # The retried modify went through rather than re-reserving.
        assert ctl.reservation is not None
        assert ctl.granted_bps > mbps(5.0)
        # Full teardown leaves no residue anywhere.
        ctl.close()
        sim.run(until=12.0)
        assert broker.conservation_errors([]) == []


class TestProperties:
    @given(
        actions=st.lists(
            st.sampled_from(
                ["violation", "clear", "tick", "negotiate", "boost",
                 "retry", "close", "run"]
            ),
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_no_transition_out_of_closed(self, actions):
        sim, testbed, gq = make_deployment()
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(2.0), upgrade_interval=1.0
        )
        ctl.close()
        assert ctl.state == CLOSED
        clock = {"until": sim.now}
        for action in actions:
            if action == "violation":
                ctl._on_violation(None, ["synthetic"])
            elif action == "clear":
                ctl._on_clear(None)
            elif action == "tick":
                ctl._upgrade_tick()
            elif action == "negotiate":
                assert ctl.negotiate() == 0.0
            elif action == "boost":
                ctl._attempt_boost()
            elif action == "retry":
                ctl._broker_retry(1)
            elif action == "close":
                ctl.close()
            elif action == "run":
                clock["until"] += 2.0
                sim.run(until=clock["until"])
            assert ctl.state == CLOSED
            assert ctl.reservation is None
            assert ctl.granted_bps == 0.0

    @given(violations=st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_renegotiations_bounded_per_window(self, violations):
        sim, testbed, gq = make_deployment()
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(1.0),
            boost_factor=1.05, max_bps=mbps(15.0),
            max_renegotiations_per_window=3, renegotiation_window=100.0,
            upgrade_interval=None,
        )
        ctl.state = "VIOLATING"
        for _ in range(violations):
            # Same instant: all inside one renegotiation window.
            ctl._on_violation(None, ["synthetic"])
        assert ctl.renegotiations <= 3
        assert ctl.renegotiations == min(violations, 3)


class TestLegacyShim:
    def test_adaptive_qos_session_is_the_controller(self):
        from repro.core import AdaptiveQosSession

        assert issubclass(AdaptiveQosSession, AdaptationController)

    def test_close_cancels_upgrade_timer(self):
        # The PR 8 leak fix: close() must disarm the background
        # upgrade tick, not leave it firing against a dead session.
        # Non-resilient deployment: no heartbeat detector, so any
        # event processed after settling is the leaked timer.
        sim = Simulator(seed=11)
        testbed = garnet(sim, backbone_bandwidth=mbps(30.0))
        gq = MpichGQ.on_garnet(testbed)
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(1.0), upgrade_interval=2.0
        )
        ctl.close()
        assert ctl._upgrade_timer is None
        sim.run(until=1.0)
        events_before = sim.events_processed
        sim.run(until=30.0)
        # No periodic wakeups remain: the event count is flat.
        assert sim.events_processed == events_before

    def test_notify_survives_raising_listener(self):
        sim, testbed, gq = make_deployment()
        ctl = AdaptationController(
            gq.agent, 0, 1, mbps(1.0), upgrade_interval=None
        )
        seen = []
        ctl.listeners.append(lambda c: 1 / 0)
        ctl.listeners.append(lambda c: seen.append(c.granted_bps))
        ctl.reservation.cancel()  # forces a renegotiate + notify
        sim.run(until=1.0)
        assert seen  # the second listener still ran
        assert ctl.listener_errors >= 1
