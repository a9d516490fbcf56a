"""Broker crash/restart recovery: journal replay equivalence, orphan
GC, write-behind release flushing, and exact rollback accounting."""

import pytest

from repro import MpichGQ, Simulator, mbps
from repro.gara import (
    BandwidthBroker,
    BrokerUnavailable,
    NetworkReservationSpec,
    ReservationError,
)
from repro.net.topology import garnet
from repro.resilience import Journal


@pytest.fixture
def setup():
    sim = Simulator(seed=11)
    tb = garnet(sim, backbone_bandwidth=mbps(10))
    journal = Journal(name="broker-wal")
    broker = BandwidthBroker(tb.network, ef_share=0.7, journal=journal)
    return sim, tb, broker, journal


# ---------------------------------------------------------------------------
# Satellite: exact per-owner usage rollback on failed path admission
# ---------------------------------------------------------------------------


class TestExactRollback:
    def test_failed_admission_restores_usage_bitwise(self, setup):
        """Regression: rollback must restore ``_owner_usage`` to its
        exact prior value. Arithmetic rollback ``(u + b) - b`` leaves
        float residue for adversarial magnitudes (0.1 + 0.3 - 0.3 !=
        0.1), which then accretes across rejected admissions."""
        sim, tb, broker, _ = setup
        src, dst = tb.premium_src, tb.premium_dst
        broker.admit_path(src, dst, 0.1, 0, 10, owner="alice")
        before = dict(broker._owner_usage)
        # Fill the last hop so the next admission fails mid-path.
        last = tb.network.path_interfaces(src, dst)[-1]
        table = broker.table_for(last)
        table.add(0, 100, table.available(0, 100))
        with pytest.raises(ReservationError):
            broker.admit_path(src, dst, 0.3, 0, 10, owner="alice")
        assert dict(broker._owner_usage) == before  # ==, not approx

    def test_repeated_link_path_rolls_back_cleanly(self, setup, monkeypatch):
        """A path that traverses the same egress twice (as a looped
        route can) must roll back both claims and the doubly-bumped
        usage entry."""
        sim, tb, broker, _ = setup
        src, dst = tb.premium_src, tb.premium_dst
        ifaces = tb.network.path_interfaces(src, dst)
        a, blocked = ifaces[0], ifaces[1]
        broker.table_for(blocked).add(
            0, 100, broker.table_for(blocked).capacity
        )
        monkeypatch.setattr(
            tb.network, "path_interfaces", lambda s, d: [a, a, blocked]
        )
        with pytest.raises(ReservationError):
            broker.admit_path(src, dst, 0.3, 0, 10, owner="alice")
        assert len(broker.table_for(a)) == 0
        assert ("alice", a) not in broker._owner_usage

    def test_repeated_link_success_then_release_conserves(
        self, setup, monkeypatch
    ):
        sim, tb, broker, _ = setup
        src, dst = tb.premium_src, tb.premium_dst
        a = tb.network.path_interfaces(src, dst)[0]
        monkeypatch.setattr(
            tb.network, "path_interfaces", lambda s, d: [a, a]
        )
        claims = broker.admit_path(src, dst, 0.3, 0, 10, owner="alice")
        assert len(claims) == 2
        assert broker._owner_usage[("alice", a)] == pytest.approx(0.6)
        broker.release(claims)
        assert ("alice", a) not in broker._owner_usage
        assert len(broker.table_for(a)) == 0


# ---------------------------------------------------------------------------
# Crash semantics
# ---------------------------------------------------------------------------


class TestCrash:
    def test_dead_broker_refuses_control_calls(self, setup):
        sim, tb, broker, _ = setup
        broker.crash()
        assert not broker.alive
        with pytest.raises(BrokerUnavailable):
            broker.admit_path(tb.premium_src, tb.premium_dst, 1e5, 0, 10)
        with pytest.raises(BrokerUnavailable):
            broker.set_quota("alice", 0.5)
        assert broker.path_available(tb.premium_src, tb.premium_dst, 0, 10) == 0.0

    def test_release_to_dead_broker_is_deaf_noop(self, setup):
        sim, tb, broker, _ = setup
        claims = broker.admit_path(tb.premium_src, tb.premium_dst, 1e5, 0, 10)
        broker.crash()
        broker.release(claims)  # must not raise
        assert broker.deaf_releases == 1
        assert broker.releases == 0

    def test_crash_is_idempotent(self, setup):
        sim, tb, broker, _ = setup
        broker.crash()
        broker.crash()
        assert broker.crashes == 1

    def test_claims_invalid_while_dead(self, setup):
        sim, tb, broker, _ = setup
        claims = broker.admit_path(tb.premium_src, tb.premium_dst, 1e5, 0, 10)
        assert broker.claims_valid(claims)
        broker.crash()
        assert not broker.claims_valid(claims)


# ---------------------------------------------------------------------------
# Journal replay equivalence
# ---------------------------------------------------------------------------


class TestReplay:
    def _mutate(self, tb, broker):
        src, dst = tb.premium_src, tb.premium_dst
        broker.set_quota("alice", 0.9)
        a = broker.admit_path(src, dst, mbps(1), 0, 50, owner="alice")
        b = broker.admit_path(src, dst, mbps(2), 0, 50, owner="bob")
        c = broker.admit_path(dst, src, mbps(0.5), 10, 40, owner="alice")
        broker.release(b)
        return [a, c]

    def test_replay_reconstructs_exact_state(self, setup):
        sim, tb, broker, journal = setup
        live = self._mutate(tb, broker)
        pre = broker.snapshot()
        stats = (broker.admissions, broker.releases)
        broker.crash()
        assert broker.snapshot() != pre  # state really was lost
        broker.restart()
        assert broker.last_replay_snapshot == pre
        assert broker.snapshot() == pre
        assert (broker.admissions, broker.releases) == stats
        assert broker.journal_replays == len(journal)
        # Replayed claims stay releasable under their original ids.
        for claims in live:
            broker.reregister(claims)
            broker.release(claims)
        assert broker.conservation_errors([]) == []

    def test_replay_preserves_entry_id_uniqueness(self, setup):
        sim, tb, broker, _ = setup
        src, dst = tb.premium_src, tb.premium_dst
        old = broker.admit_path(src, dst, mbps(1), 0, 50)
        broker.crash()
        broker.restart()
        broker.reregister(old)
        new = broker.admit_path(src, dst, mbps(1), 0, 50)
        old_ids = {e for _i, e, _o, _b in old}
        new_ids = {e for _i, e, _o, _b in new}
        assert not old_ids & new_ids

    def test_double_crash_replay_converges(self, setup):
        sim, tb, broker, _ = setup
        self._mutate(tb, broker)
        broker.crash()
        broker.restart()
        first = broker.snapshot()
        broker.crash()
        broker.restart()
        assert broker.snapshot() == first

    def test_unjournaled_broker_restarts_empty(self, setup):
        sim, tb, _broker, _ = setup
        bare = BandwidthBroker(tb.network, ef_share=0.7)
        bare.admit_path(tb.premium_src, tb.premium_dst, mbps(1), 0, 50)
        bare.crash()
        bare.restart()
        assert bare.conservation_errors([]) == []
        assert bare.snapshot() == ((), (), ())


# ---------------------------------------------------------------------------
# Orphan GC and re-registration
# ---------------------------------------------------------------------------


class TestOrphanGC:
    def test_unregistered_claims_are_collected(self, setup):
        sim, tb, broker, journal = setup
        claims = broker.admit_path(
            tb.premium_src, tb.premium_dst, mbps(1), 0, 1e6, owner="alice"
        )
        broker.crash()
        broker.restart()  # nobody re-registers
        assert broker.conservation_errors([claims]) == []
        sim.run(until=sim.now + broker.gc_grace + 0.1)
        assert broker.conservation_errors([]) == []
        assert broker.orphans_collected == len(claims)
        assert broker.orphan_paths_collected == 1
        assert ("alice", claims[0][0]) not in broker._owner_usage
        assert journal.records[-1].op == "gc"

    def test_reregistration_prevents_collection(self, setup):
        sim, tb, broker, _ = setup
        claims = broker.admit_path(
            tb.premium_src, tb.premium_dst, mbps(1), 0, 1e6, owner="alice"
        )
        broker.restart_listeners.append(lambda b: b.reregister(claims))
        broker.crash()
        broker.restart()
        sim.run(until=sim.now + broker.gc_grace + 0.1)
        assert broker.conservation_errors([claims]) == []
        assert broker.orphans_collected == 0
        assert broker.reregistrations == len(claims)

    def test_gc_replays_after_second_crash(self, setup):
        sim, tb, broker, _ = setup
        broker.admit_path(
            tb.premium_src, tb.premium_dst, mbps(1), 0, 1e6, owner="alice"
        )
        broker.crash()
        broker.restart()
        sim.run(until=sim.now + broker.gc_grace + 0.1)
        collected = broker.orphans_collected
        post_gc = broker.snapshot()
        broker.crash()
        broker.restart()
        assert broker.snapshot() == post_gc
        assert broker.orphans_collected == collected

    # Satellite: crash-safe Reservation.cancel -> stale release no-op.
    def test_release_of_collected_claim_is_counted_noop(self, setup):
        sim, tb, broker, _ = setup
        claims = broker.admit_path(
            tb.premium_src, tb.premium_dst, mbps(1), 0, 1e6, owner="alice"
        )
        broker.crash()
        broker.restart()
        sim.run(until=sim.now + broker.gc_grace + 0.1)
        assert broker.conservation_errors([]) == []
        releases_before = broker.releases
        broker.release(claims)  # already GC'd: must not raise
        assert broker.stale_releases == len(claims)
        assert broker.releases == releases_before


# ---------------------------------------------------------------------------
# Write-behind releases through the network manager
# ---------------------------------------------------------------------------


class TestPendingReleaseFlush:
    @pytest.fixture
    def gq(self):
        sim = Simulator(seed=13)
        tb = garnet(sim, backbone_bandwidth=mbps(10))
        return sim, tb, MpichGQ.on_garnet(tb, resilient=True)

    def test_cancel_while_broker_dead_flushes_on_restart(self, gq):
        sim, tb, gq = gq
        spec = NetworkReservationSpec(
            tb.premium_src, tb.premium_dst, mbps(1)
        )
        reservation = gq.gara.reserve(spec)
        gq.broker.crash()
        reservation.cancel()  # queued write-behind, not lost
        assert len(gq.network_manager._pending_releases) == 1
        gq.broker.restart()
        # The flush (not the orphan GC) freed the capacity.
        assert len(gq.network_manager._pending_releases) == 0
        assert gq.broker.conservation_errors([]) == []
        sim.run(until=sim.now + gq.broker.gc_grace + 0.5)
        assert gq.broker.orphans_collected == 0

    def test_live_claims_reregister_on_restart(self, gq):
        sim, tb, gq = gq
        spec = NetworkReservationSpec(
            tb.premium_src, tb.premium_dst, mbps(1)
        )
        reservation = gq.gara.reserve(spec)
        held = list(gq.network_manager._claims.values())
        gq.broker.crash()
        gq.broker.restart()
        assert gq.broker.reregistrations == len(held[0])
        sim.run(until=sim.now + gq.broker.gc_grace + 0.5)
        assert gq.broker.conservation_errors(held) == []
        reservation.cancel()
        assert gq.broker.conservation_errors([]) == []
