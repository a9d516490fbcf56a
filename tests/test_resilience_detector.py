"""Heartbeat failure detection and the lease-aware agent's
degrade-to-best-effort / re-admit-on-recovery behaviour."""

import pytest

from repro import ChaosSchedule, MpichGQ, Simulator, mbps
from repro.faults import LEASE_DEGRADED, LEASE_HELD
from repro.gara import ReservationError
from repro.net.topology import garnet
from repro.resilience import FailureDetector, WATCH_DOWN, WATCH_UP


class FlakyService:
    def __init__(self):
        self.alive = True

    def crash(self):
        self.alive = False

    def restart(self):
        self.alive = True


class TestFailureDetector:
    def test_suspicion_and_recovery(self):
        sim = Simulator(seed=3)
        detector = FailureDetector(sim, interval=0.25, timeout=0.8)
        service = FlakyService()
        events = []
        watch = detector.watch(
            "svc",
            service,
            on_down=lambda w: events.append(("down", sim.now)),
            on_up=lambda w: events.append(("up", sim.now)),
        )
        sim.call_at(2.0, service.crash)
        sim.call_at(5.0, service.restart)
        sim.run(until=8.0)
        assert watch.state == WATCH_UP
        assert watch.suspicions == 1 and watch.recoveries == 1
        assert [kind for kind, _t in events] == ["down", "up"]
        down_t, up_t = events[0][1], events[1][1]
        # Suspected only after the timeout's worth of silence, and
        # recovered at the first poll past the restart.
        assert down_t >= 2.0 + detector.timeout - detector.interval
        assert 5.0 <= up_t <= 5.0 + 2 * detector.interval

    def test_detection_is_deterministic_per_seed(self):
        def timeline(seed):
            sim = Simulator(seed=seed)
            detector = FailureDetector(sim)
            service = FlakyService()
            marks = []
            detector.watch(
                "svc", service, on_down=lambda w: marks.append(sim.now)
            )
            sim.call_at(1.0, service.crash)
            sim.run(until=4.0)
            return marks

        assert timeline(7) == timeline(7)
        assert timeline(7) != timeline(8)  # jitter differs across seeds

    def test_no_false_suspicion_while_alive(self):
        sim = Simulator(seed=3)
        detector = FailureDetector(sim)
        watch = detector.watch("svc", FlakyService())
        sim.run(until=10.0)
        assert watch.state == WATCH_UP
        assert detector.suspicions == 0

    def test_close_stops_polling(self):
        sim = Simulator(seed=3)
        detector = FailureDetector(sim)
        service = FlakyService()
        watch = detector.watch("svc", service)
        detector.close()
        service.crash()
        sim.run(until=5.0)
        assert watch.suspicions == 0

    def test_parameter_validation(self):
        sim = Simulator(seed=3)
        with pytest.raises(ValueError):
            FailureDetector(sim, interval=0)
        with pytest.raises(ValueError):
            FailureDetector(sim, interval=0.5, timeout=0.2)
        with pytest.raises(ValueError):
            FailureDetector(sim, jitter=1.0)


class TestPushModeEpochs:
    """Push-mode watches: monotonic heartbeats and epoch fencing."""

    def test_push_mode_heartbeat_keeps_peer_up(self):
        sim = Simulator(seed=4)
        detector = FailureDetector(sim, interval=0.25, timeout=0.8)
        watch = detector.watch("peer")  # no component: push mode
        for step in range(1, 17):
            sim.call_at(0.5 * step, watch.heartbeat)
        sim.run(until=8.0)
        assert watch.state == WATCH_UP
        assert watch.suspicions == 0

    def test_push_mode_silence_suspects_then_heartbeat_recovers(self):
        sim = Simulator(seed=4)
        detector = FailureDetector(sim, interval=0.25, timeout=0.8)
        down, up = [], []
        watch = detector.watch(
            "peer",
            on_down=lambda w: down.append(sim.now),
            on_up=lambda w: up.append(sim.now),
        )
        sim.run(until=2.0)  # silent past the timeout
        assert watch.suspected and len(down) == 1
        sim.call_at(2.5, watch.heartbeat)
        sim.run(until=3.0)
        assert watch.state == WATCH_UP and len(up) == 1

    def test_last_heartbeat_is_monotonic(self):
        sim = Simulator(seed=4)
        detector = FailureDetector(sim)
        watch = detector.watch("peer")
        sim.run(until=1.0)
        watch.heartbeat()
        recorded = watch.last_heartbeat
        assert recorded == 1.0
        # A second report at the same instant cannot move it backwards
        # and later accepted reports only advance it.
        watch.heartbeat()
        assert watch.last_heartbeat == recorded
        sim.run(until=1.5)
        watch.heartbeat()
        assert watch.last_heartbeat == 1.5

    def test_reregistration_opens_fresh_epoch(self):
        sim = Simulator(seed=4)
        detector = FailureDetector(sim)
        first = detector.watch("peer")
        assert first.epoch == 1
        detector.evict(first)
        second = detector.watch("peer")
        assert second.epoch == 2
        assert detector.lookup("peer") is second
        assert detector.evictions == 1

    def test_stale_epoch_heartbeat_cannot_resurrect_peer(self):
        sim = Simulator(seed=4)
        detector = FailureDetector(sim, interval=0.25, timeout=0.8)
        first = detector.watch("peer")
        old_epoch = first.epoch
        detector.evict(first)
        second = detector.watch("peer")
        sim.run(until=2.0)  # the new incarnation is silent: suspected
        assert second.suspected
        # A delayed heartbeat stamped by the dead incarnation must be
        # dropped — counted, and the peer stays DOWN.
        assert second.heartbeat(old_epoch) is False
        assert second.suspected
        assert second.stale_heartbeats == 1
        assert detector.stale_heartbeats == 1
        # The right epoch does recover it.
        assert second.heartbeat(second.epoch) is True
        assert second.state == WATCH_UP

    def test_closed_watch_rejects_heartbeats(self):
        sim = Simulator(seed=4)
        detector = FailureDetector(sim)
        watch = detector.watch("peer")
        watch.close()
        assert watch.closed
        assert watch.heartbeat() is False
        assert detector.lookup("peer") is None


@pytest.fixture
def deployment():
    sim = Simulator(seed=17)
    tb = garnet(sim, backbone_bandwidth=mbps(10))
    gq = MpichGQ.on_garnet(tb, resilient=True)
    return sim, tb, gq


class TestAgentBrokerOutage:
    def test_degrades_while_broker_dead_and_readmits_on_recovery(
        self, deployment
    ):
        sim, tb, gq = deployment
        lease = gq.agent.lease_flows(0, 1, mbps(1))
        assert lease.state == LEASE_HELD
        chaos = ChaosSchedule(sim, tb.network)
        chaos.at(2.0).crash(gq.broker).at(5.0).restart(gq.broker)
        sim.run(until=4.0)
        # The detector's suspicion degraded the lease to best-effort.
        assert lease.state == LEASE_DEGRADED
        assert "broker" in lease.last_error
        assert gq.detector.suspicions == 1
        sim.run(until=10.0)
        assert lease.state == LEASE_HELD
        assert lease.readmissions >= 1
        assert gq.detector.recoveries == 1
        # Exactly one live path claim: the write-behind release of the
        # pre-crash claims flushed at restart, so nothing double-books.
        held = list(gq.network_manager._claims.values())
        assert len(held) == 1
        assert gq.broker.conservation_errors(held) == []
        spec = [mbps(1)] * len(
            tb.network.path_interfaces(tb.premium_src, tb.premium_dst)
        )
        assert [c[3] for c in held[0]] == spec
        now = [gq.broker.table_for(c[0]).usage_at(sim.now) for c in held[0]]
        assert now == pytest.approx(spec)
        sim.run(until=10.0 + gq.broker.gc_grace + 1.0)
        assert gq.broker.orphans_collected == 0

    def test_premium_attr_flips_with_broker(self, deployment):
        sim, tb, gq = deployment
        from repro.core import QOS_PREMIUM, QosAttribute

        attr = QosAttribute(QOS_PREMIUM, bandwidth_kbps=500)

        def main(comm):
            comm.attr_put(gq.qos_keyval, attr)
            yield sim.timeout(0.01)

        gq.world.launch(main)
        chaos = ChaosSchedule(sim, tb.network)
        chaos.at(2.0).crash(gq.broker).at(5.0).restart(gq.broker)
        sim.run(until=1.5)
        assert attr.granted
        sim.run(until=4.5)
        assert not attr.granted
        assert "best-effort" in attr.error
        sim.run(until=12.0)
        assert attr.granted
        assert attr.error is None


class TestAgentControlSessionCrash:
    def test_crashed_agent_refuses_requests(self, deployment):
        sim, tb, gq = deployment
        gq.agent.crash()
        with pytest.raises(ReservationError, match="control session"):
            gq.agent.reserve_flows(0, 1, mbps(1))
        with pytest.raises(ReservationError, match="control session"):
            gq.agent.lease_flows(0, 1, mbps(1))
        gq.agent.restart()
        assert gq.agent.reserve_flows(0, 1, mbps(1)) is not None

    def test_attr_put_during_outage_records_error(self, deployment):
        sim, tb, gq = deployment
        from repro.core import QOS_PREMIUM, QosAttribute

        attr = QosAttribute(QOS_PREMIUM, bandwidth_kbps=500)
        gq.agent.crash()

        def main(comm):
            comm.attr_put(gq.qos_keyval, attr)
            yield sim.timeout(0.01)

        gq.world.launch(main)
        sim.run(until=1.0)
        assert not attr.granted
        assert "control session" in attr.error

    def test_crash_suspends_lease_supervision(self, deployment):
        sim, tb, gq = deployment
        lease = gq.agent.lease_flows(0, 1, mbps(1))
        chaos = ChaosSchedule(sim, tb.network)
        chaos.at(1.0).crash(gq.agent)
        chaos.at(2.0).crash(gq.broker).at(4.0).restart(gq.broker)
        chaos.at(8.0).restart(gq.agent)
        sim.run(until=7.0)
        # Supervision frozen: the lease never noticed the outage (and
        # burned no retry budget); the broker's replay + the network
        # manager's re-registration kept its claims alive meanwhile.
        assert lease.state == LEASE_HELD
        assert lease.degradations == 0
        sim.run(until=12.0)
        assert lease.state == LEASE_HELD
        assert gq.agent.crashes == 1 and gq.agent.restarts == 1
