"""Two-phase co-reservation: phase timeouts, rollback on partial
failure, idempotency keys, and the chaos crash/restart injector."""

import pytest

from repro import ChaosSchedule, Simulator, mbps, kbps
from repro.cpu import Cpu
from repro.diffserv import DiffServDomain
from repro.gara import (
    ACTIVE,
    BandwidthBroker,
    CANCELLED,
    CpuReservationSpec,
    ManagerUnavailable,
    NetworkReservationSpec,
    ReservationError,
    StorageReservationSpec,
    StorageServer,
    build_standard_gara,
)
from repro.net.topology import garnet


@pytest.fixture
def stack():
    sim = Simulator(seed=21)
    tb = garnet(sim, backbone_bandwidth=mbps(10))
    domain = DiffServDomain(sim, [tb.edge1, tb.core, tb.edge2])
    broker = BandwidthBroker(tb.network)
    gara = build_standard_gara(sim, domain=domain, broker=broker)
    cpu = Cpu(sim, name="c0")
    server = StorageServer(sim, "dpss", bandwidth=mbps(80))
    return sim, tb, broker, gara, cpu, server


def three_branches(tb, cpu, server):
    return [
        (
            NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(500)),
            None,
            20.0,
        ),
        (CpuReservationSpec(cpu, 0.4), None, 20.0),
        (StorageReservationSpec(server, mbps(10)), None, 20.0),
    ]


def residual_claims(broker, gara):
    """(network claims, CPU entries, storage entries) still booked. The
    network claims are checked against the broker's slot tables."""
    held = gara.manager("network")._claims.values()
    assert broker.conservation_errors(held) == []
    cpu_entries = sum(
        len(t) for t in gara.manager("cpu")._tables.values()
    )
    storage_entries = sum(
        len(t) for t in gara.manager("storage")._tables.values()
    )
    return len(held), cpu_entries, storage_entries


class TestCommitPath:
    def test_three_way_co_reservation_commits(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        res = gara.reserve_many(three_branches(tb, cpu, server))
        assert [r.state for r in res] == [ACTIVE] * 3
        assert gara.coordinator.committed == 1
        assert gara.coordinator.aborted == 0

    def test_admission_veto_leaves_zero_residual(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        requests = three_branches(tb, cpu, server)
        requests[2] = (StorageReservationSpec(server, mbps(500)), None, 20.0)
        with pytest.raises(ReservationError):
            gara.reserve_many(requests)
        assert residual_claims(broker, gara) == (0, 0, 0)
        assert gara.coordinator.aborted == 1


class TestPrepareTimeout:
    def test_dead_storage_manager_vetoes_with_zero_residual(self, stack):
        """Acceptance: a co-reservation whose storage prepare times out
        must leave zero residual claims on the network and CPU
        managers."""
        sim, tb, broker, gara, cpu, server = stack
        gara.manager("storage").crash()
        with pytest.raises(ReservationError, match="did not answer prepare"):
            gara.reserve_many(three_branches(tb, cpu, server))
        assert residual_claims(broker, gara) == (0, 0, 0)
        assert gara.coordinator.prepare_timeouts == 1
        assert gara.coordinator.aborted == 1

    def test_aborted_key_is_retryable_after_recovery(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        storage = gara.manager("storage")
        storage.crash()
        with pytest.raises(ReservationError):
            gara.reserve_many(three_branches(tb, cpu, server), "txn-1")
        storage.restart()
        res = gara.reserve_many(three_branches(tb, cpu, server), "txn-1")
        assert [r.state for r in res] == [ACTIVE] * 3
        assert gara.coordinator.idempotent_replays == 0


class TestCommitTimeout:
    def test_manager_dying_between_phases_rolls_back(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        storage = gara.manager("storage")
        real_prepare = storage.prepare

        def prepare_then_die(spec, start=None, duration=None):
            branch = real_prepare(spec, start, duration)
            storage.alive = False  # dies after acking prepare
            return branch

        storage.prepare = prepare_then_die
        with pytest.raises(ReservationError, match="did not answer commit"):
            gara.reserve_many(three_branches(tb, cpu, server))
        storage.prepare = real_prepare
        storage.alive = True
        assert residual_claims(broker, gara) == (0, 0, 0)
        assert gara.coordinator.commit_timeouts == 1


class TestIdempotency:
    def test_retry_with_same_key_does_not_double_book(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        first = gara.reserve_many(three_branches(tb, cpu, server), "txn-9")
        admissions = broker.admissions
        entries = residual_claims(broker, gara)
        again = gara.reserve_many(three_branches(tb, cpu, server), "txn-9")
        assert again == first  # the recorded outcome, same objects
        assert broker.admissions == admissions
        assert residual_claims(broker, gara) == entries
        assert gara.coordinator.idempotent_replays == 1
        assert gara.coordinator.transactions == 1

    def test_distinct_keys_book_independently(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        a = gara.reserve_many(
            [(CpuReservationSpec(cpu, 0.2), None, 20.0)], "txn-a"
        )
        b = gara.reserve_many(
            [(CpuReservationSpec(cpu, 0.2), None, 20.0)], "txn-b"
        )
        assert a[0] is not b[0]


class TestBranchStateMachine:
    def test_abort_is_idempotent(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        manager = gara.manager("cpu")
        branch = manager.prepare(CpuReservationSpec(cpu, 0.5))
        manager.abort(branch)
        assert branch.state == "aborted"
        assert branch.reservation.state == CANCELLED
        manager.abort(branch)  # no-op, no double release
        assert residual_claims(broker, gara)[1] == 0

    def test_commit_after_abort_raises(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        manager = gara.manager("cpu")
        branch = manager.prepare(CpuReservationSpec(cpu, 0.5))
        manager.abort(branch)
        with pytest.raises(ReservationError, match="aborted"):
            manager.commit(branch)

    def test_prepared_claim_holds_capacity(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        manager = gara.manager("cpu")
        manager.prepare(CpuReservationSpec(cpu, 0.6))
        with pytest.raises(ReservationError):
            manager.request(CpuReservationSpec(cpu, 0.6))

    def test_dead_manager_refuses_control_calls(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        manager = gara.manager("cpu")
        reservation = manager.request(CpuReservationSpec(cpu, 0.3))
        manager.crash()
        with pytest.raises(ManagerUnavailable):
            manager.request(CpuReservationSpec(cpu, 0.1))
        with pytest.raises(ManagerUnavailable):
            manager.cancel(reservation)
        manager.restart()
        manager.cancel(reservation)
        assert manager.crashes == 1 and manager.restarts == 1


class TestChaosCrashInjection:
    def test_scheduled_crash_and_restart(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        chaos = ChaosSchedule(sim, tb.network)
        chaos.at(1.0).crash(broker).at(2.0).restart(broker)
        chaos.at(1.0).crash(gara.manager("storage"))
        chaos.at(2.0).restart(gara.manager("storage"))
        sim.run(until=1.5)
        assert not broker.alive
        assert not gara.manager("storage").alive
        sim.run(until=2.5)
        assert broker.alive
        assert gara.manager("storage").alive

    def test_non_crashable_component_rejected(self, stack):
        sim, tb, broker, gara, cpu, server = stack
        chaos = ChaosSchedule(sim, tb.network)
        with pytest.raises(TypeError):
            chaos.at(1.0).crash(object())
        with pytest.raises(TypeError):
            chaos.at(1.0).restart(tb.network)
