"""Lease lifecycle, idempotent cancellation, and broker release
accounting under revoke/re-admit cycles."""

import pytest

from repro import MpichGQ, Simulator, mbps
from repro.faults import (
    LEASE_DEGRADED,
    LEASE_HELD,
    LEASE_LOST,
    LeaseManager,
    ReservationLost,
)
from repro.gara import (
    ACTIVE,
    CANCELLED,
    EXPIRED,
    NetworkReservationSpec,
)
from repro.net.topology import garnet


@pytest.fixture
def deployment():
    sim = Simulator(seed=9)
    tb = garnet(sim, backbone_bandwidth=mbps(10), redundant_backbone=True)
    gq = MpichGQ.on_garnet(tb, resilient=True)
    return sim, tb, gq


def spec_for(tb, bandwidth=1_000_000.0):
    return NetworkReservationSpec(
        tb.premium_src, tb.premium_dst, bandwidth
    )


# ---------------------------------------------------------------------------
# Reservation.cancel idempotency (regression: double-cancel)
# ---------------------------------------------------------------------------


class TestIdempotentCancel:
    def test_double_cancel_is_noop(self, deployment):
        sim, tb, gq = deployment
        reservation = gq.gara.reserve(spec_for(tb))
        assert reservation.state == ACTIVE
        reservation.cancel()
        assert reservation.state == CANCELLED
        reservation.cancel()  # second cancel must not raise or double-free
        assert reservation.state == CANCELLED
        assert gq.broker.conservation_errors([]) == []

    def test_cancel_after_expiry_is_noop(self, deployment):
        sim, tb, gq = deployment
        reservation = gq.gara.reserve(spec_for(tb), duration=1.0)
        sim.run(until=2.0)
        assert reservation.state == EXPIRED
        reservation.cancel()
        assert reservation.state == EXPIRED
        assert reservation.finished

    def test_gara_cancel_on_expired_is_noop(self, deployment):
        sim, tb, gq = deployment
        reservation = gq.gara.reserve(spec_for(tb), duration=1.0)
        sim.run(until=2.0)
        gq.gara.cancel(reservation)
        assert reservation.state == EXPIRED


# ---------------------------------------------------------------------------
# Lease lifecycle
# ---------------------------------------------------------------------------


class TestLeaseLifecycle:
    def test_acquire_and_close(self, deployment):
        sim, tb, gq = deployment
        lm = gq.lease_manager
        lease = lm.lease(spec_for(tb))
        assert lease.held
        assert lease.reservation.state == ACTIVE
        assert lease in lm.leases
        reservation = lease.reservation
        lease.close()
        assert lease.finished
        assert reservation.state == CANCELLED
        assert lease not in lm.leases
        lease.close()  # idempotent
        assert lease.finished

    def test_external_revocation_triggers_readmission(self, deployment):
        sim, tb, gq = deployment
        events = []
        lease = gq.lease_manager.lease(
            spec_for(tb),
            on_degraded=lambda l, why: events.append(("degraded", why)),
            on_restored=lambda l: events.append(("restored",)),
        )
        first = lease.reservation
        sim.call_at(1.0, first.cancel)  # an external actor revokes it
        sim.run(until=8.0)
        assert lease.state == LEASE_HELD
        assert lease.reservation is not first
        assert lease.degradations == 1
        assert lease.readmissions == 1
        assert events[0][0] == "degraded"
        assert "revoked" in events[0][1]
        assert events[-1] == ("restored",)

    def test_path_failure_releases_claims_and_readmits(self, deployment):
        sim, tb, gq = deployment
        lease = gq.lease_manager.lease(spec_for(tb))
        claimed_ifaces = [
            iface
            for iface, _e, _o, _b in gq.network_manager.claims_of(
                lease.reservation
            )
        ]
        assert claimed_ifaces  # path claims exist
        sim.call_at(1.0, tb.network.fail_link, "edge1", "core")
        sim.run(until=8.0)
        assert lease.state == LEASE_HELD
        assert lease.degradations == 1
        # The re-admitted claims sit on the standby path, and no claim
        # survived on the failed one.
        new_ifaces = [
            iface
            for iface, _e, _o, _b in gq.network_manager.claims_of(
                lease.reservation
            )
        ]
        assert all(iface.up for iface in new_ifaces)
        assert new_ifaces != claimed_ifaces
        lease.close()
        assert gq.broker.conservation_errors([]) == []

    def test_retries_exhausted_is_terminal(self):
        sim = Simulator(seed=17)
        tb = garnet(sim, backbone_bandwidth=mbps(10))  # no standby path
        gq = MpichGQ.on_garnet(tb, resilient=True)
        gq.lease_manager.max_retries = 3
        lost = []
        lease = gq.lease_manager.lease(
            spec_for(tb),
            on_lost=lambda l, exc: lost.append(exc),
        )
        sim.call_at(0.5, tb.network.fail_link, "edge1", "core")
        sim.run(until=60.0)
        assert lease.state == LEASE_LOST
        assert lease not in gq.lease_manager.leases
        assert len(lost) == 1
        assert isinstance(lost[0], ReservationLost)
        assert "gave up after 3" in str(lost[0])

    def test_bounded_lease_expires_naturally(self, deployment):
        sim, tb, gq = deployment
        events = []
        lease = gq.lease_manager.lease(
            spec_for(tb),
            duration=2.0,
            on_degraded=lambda l, why: events.append("degraded"),
        )
        sim.run(until=5.0)
        # Deadline reached: a clean close, never treated as a fault.
        assert lease.finished
        assert events == []

    def test_backoff_delay_respects_cap(self):
        sim = Simulator(seed=1)
        from repro.gara import Gara

        manager = LeaseManager(
            Gara(sim), backoff_base=0.1, backoff_cap=1.0, jitter=0.0
        )
        delays = [manager._backoff_delay(i) for i in range(8)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert all(d == 1.0 for d in delays[4:])

    def test_invalid_manager_parameters(self):
        sim = Simulator(seed=1)
        from repro.gara import Gara

        gara = Gara(sim)
        with pytest.raises(ValueError):
            LeaseManager(gara, heartbeat=0.0)
        with pytest.raises(ValueError):
            LeaseManager(gara, jitter=1.5)
        with pytest.raises(ValueError):
            LeaseManager(gara, max_retries=0)
        with pytest.raises(ValueError):
            LeaseManager(gara, backoff_base=1.0, backoff_cap=0.5)


# ---------------------------------------------------------------------------
# Broker accounting across revoke / re-admit cycles
# ---------------------------------------------------------------------------


class TestBrokerAccounting:
    def test_exact_occupancy_after_flap_cycles(self, deployment):
        sim, tb, gq = deployment
        lease = gq.lease_manager.lease(spec_for(tb))
        # Three full revoke/re-admit cycles: each flap kills whichever
        # backbone the lease last landed on, bouncing it back and forth
        # between the primary and standby cores.
        for i, router in enumerate(["core", "core_b", "core"]):
            t = 2.0 + 4.0 * i
            sim.call_at(t, tb.network.fail_link, "edge1", router)
            sim.call_at(t + 2.0, tb.network.restore_link, "edge1", router)
        sim.run(until=16.0)
        assert lease.state == LEASE_HELD
        assert lease.degradations >= 3
        # Exactly one set of path claims is live mid-run: one 1 Mb/s
        # entry per hop, active now...
        held = list(gq.network_manager._claims.values())
        assert len(held) == 1
        assert gq.broker.conservation_errors(held) == []
        spec = [1_000_000.0] * len(
            tb.network.path_interfaces(tb.premium_src, tb.premium_dst)
        )
        assert [c[3] for c in held[0]] == spec
        now = [gq.broker.table_for(c[0]).usage_at(sim.now) for c in held[0]]
        assert now == pytest.approx(spec)
        # ...and release empties the tables: no leaked and no
        # double-freed slot entries.
        lease.close()
        assert gq.broker.conservation_errors([]) == []

    def test_plain_reservation_cycle_is_exact(self, deployment):
        sim, tb, gq = deployment
        for _ in range(4):
            reservation = gq.gara.reserve(spec_for(tb))
            reservation.cancel()
            reservation.cancel()  # double-cancel must not double-free
        assert gq.broker.conservation_errors([]) == []

    def test_owner_usage_restored(self, deployment):
        sim, tb, gq = deployment
        broker = gq.broker
        broker.set_quota("alice", 0.5)
        spec = spec_for(tb)
        spec.owner = "alice"
        for _ in range(3):
            reservation = gq.gara.reserve(spec)
            reservation.cancel()
        assert broker._owner_usage == {}
