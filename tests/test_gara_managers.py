"""Integration tests for GARA: managers, broker, facade, lifecycle."""

import pytest

from repro.cpu import Cpu
from repro.diffserv import BEST_EFFORT, DiffServDomain, EF, FlowSpec
from repro.gara import (
    ACTIVE,
    BandwidthBroker,
    CANCELLED,
    CpuReservationSpec,
    DsrtCpuManager,
    DiffServNetworkManager,
    EXPIRED,
    Gara,
    NetworkReservationSpec,
    PENDING,
    ReservationError,
    SlotEntry,
    StorageReservationSpec,
    StorageServer,
    build_standard_gara,
)
from repro.kernel import Simulator
from repro.net import PROTO_UDP, Packet, garnet, kbps, mbps


@pytest.fixture
def sim():
    return Simulator(seed=5)


@pytest.fixture
def testbed(sim):
    tb = garnet(sim, backbone_bandwidth=mbps(10))
    domain = DiffServDomain(sim, [tb.edge1, tb.core, tb.edge2])
    broker = BandwidthBroker(tb.network)
    gara = build_standard_gara(sim, domain=domain, broker=broker)
    return tb, domain, broker, gara


class TestBroker:
    def test_path_capacity_is_min_link_headroom(self, sim):
        tb = garnet(sim, backbone_bandwidth=mbps(10), access_bandwidth=mbps(100))
        broker = BandwidthBroker(tb.network, ef_share=0.7)
        avail = broker.path_available(tb.premium_src, tb.premium_dst, 0, 10)
        assert avail == pytest.approx(mbps(7))

    def test_admit_and_release(self, sim):
        tb = garnet(sim, backbone_bandwidth=mbps(10))
        broker = BandwidthBroker(tb.network, ef_share=0.7)
        claims = broker.admit_path(tb.premium_src, tb.premium_dst, mbps(5), 0, 10)
        assert broker.path_available(tb.premium_src, tb.premium_dst, 0, 10) == (
            pytest.approx(mbps(2))
        )
        broker.release(claims)
        assert broker.path_available(tb.premium_src, tb.premium_dst, 0, 10) == (
            pytest.approx(mbps(7))
        )

    def test_all_or_nothing_rollback(self, sim):
        tb = garnet(sim, backbone_bandwidth=mbps(10), access_bandwidth=mbps(100))
        broker = BandwidthBroker(tb.network, ef_share=0.7)
        # Saturate only one backbone egress.
        bottleneck = tb.forward_backbone[1]
        broker.table_for(bottleneck).add(0, 100, mbps(7))
        with pytest.raises(ReservationError):
            broker.admit_path(tb.premium_src, tb.premium_dst, mbps(1), 0, 50)
        # Nothing must remain claimed on the other links.
        assert broker.table_for(tb.forward_backbone[0]).max_usage(0, 100) == 0

    def test_competing_paths_share_backbone(self, sim):
        tb = garnet(sim, backbone_bandwidth=mbps(10))
        broker = BandwidthBroker(tb.network, ef_share=0.7)
        broker.admit_path(tb.premium_src, tb.premium_dst, mbps(5), 0, 10)
        with pytest.raises(ReservationError):
            broker.admit_path(
                tb.competitive_src, tb.competitive_dst, mbps(3), 0, 10
            )


class TestConservationErrors:
    """One message per violation, naming the table and the entry."""

    @pytest.fixture
    def hop(self, sim):
        tb = garnet(sim, backbone_bandwidth=mbps(10))
        broker = BandwidthBroker(tb.network)
        # premium_src -> edge1 is one egress, so each claim is one entry.
        return broker, lambda: broker.admit_path(
            tb.premium_src, tb.edge1, mbps(1), 0, 10
        )

    @staticmethod
    def only_error(broker, holders, claims):
        (error,) = broker.conservation_errors(holders)
        iface, entry_id, _owner, _bw = claims[0]
        assert f"{broker.table_for(iface).name} entry {entry_id} " in error
        return error

    def test_held_claims_conserve(self, hop):
        broker, admit = hop
        assert broker.conservation_errors([]) == []
        assert broker.conservation_errors([admit(), admit()]) == []

    def test_forgotten_claims_leak(self, hop):
        broker, admit = hop
        kept, forgotten = admit(), admit()
        assert "held by no one" in self.only_error(broker, [kept], forgotten)

    def test_released_claims_are_missing(self, hop):
        broker, admit = hop
        kept, gone = admit(), admit()
        broker.release(gone)
        assert "not booked" in self.only_error(broker, [kept, gone], gone)

    def test_claims_held_twice(self, hop):
        broker, admit = hop
        claims = admit()
        assert "twice" in self.only_error(broker, [claims, claims], claims)

    def test_held_bandwidth_differs_from_booking(self, hop):
        broker, admit = hop
        iface, entry_id, owner, bandwidth = admit()[0]
        wrong = [(iface, entry_id, owner, bandwidth / 2)]
        assert "booked at" in self.only_error(broker, [wrong], wrong)

    def test_restored_entry_past_capacity(self, hop):
        broker, admit = hop
        claims = admit()
        table = broker.table_for(claims[0][0])
        table.restore(SlotEntry(-1, 0, 10, table.capacity))
        restored = [(claims[0][0], -1, None, table.capacity)]
        (error,) = broker.conservation_errors([claims, restored])
        assert error.startswith(f"{table.name} is over capacity")


class TestReservationLifecycle:
    def test_immediate_reservation_is_active(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(500))
        res = gara.reserve(spec)
        assert res.state == ACTIVE

    def test_advance_reservation_timeline(self, testbed):
        tb, domain, broker, gara = testbed
        sim = tb.sim
        spec = CpuReservationSpec(Cpu(sim, name="c"), 0.5)
        res = gara.reserve(spec, start=10.0, duration=5.0)
        transitions = []
        res.register_callback(
            lambda r, old, new: transitions.append((sim.now, old, new))
        )
        assert res.state == PENDING
        sim.run(until=30.0)
        assert transitions == [
            (10.0, PENDING, ACTIVE),
            (15.0, ACTIVE, EXPIRED),
        ]

    def test_cancel_releases_capacity(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, mbps(7))
        res = gara.reserve(spec)
        # Path is full now.
        with pytest.raises(ReservationError):
            gara.reserve(
                NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(1))
            )
        res.cancel()
        assert res.state == CANCELLED
        gara.reserve(
            NetworkReservationSpec(tb.premium_src, tb.premium_dst, mbps(7))
        )

    def test_double_cancel_is_counted_noop(self, testbed):
        # A retried cancel (client resend after a lost ack) must not
        # release capacity twice or disturb the broker's accounting.
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, mbps(7))
        res = gara.reserve(spec)
        res.cancel()
        released = broker.releases
        res.cancel()
        res.cancel()
        assert res.state == CANCELLED
        assert broker.releases == released
        assert broker.conservation_errors([]) == []
        # The freed capacity is admissible exactly once.
        gara.reserve(spec)
        with pytest.raises(ReservationError):
            gara.reserve(
                NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(1))
            )

    def test_cancel_after_expiry_is_noop(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, mbps(2))
        res = gara.reserve(spec, start=1.0, duration=3.0)
        tb.sim.run(until=10.0)
        assert res.state == EXPIRED
        released = broker.releases
        res.cancel()  # idempotent: the expiry already released claims
        assert res.state == EXPIRED
        assert broker.releases == released

    def test_start_in_past_rejected(self, testbed):
        tb, domain, broker, gara = testbed
        tb.sim.run(until=5.0)
        with pytest.raises(ReservationError):
            gara.reserve(
                NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(1)),
                start=1.0,
            )

    def test_modify_expired_rejected(self, testbed):
        tb, domain, broker, gara = testbed
        spec = CpuReservationSpec(Cpu(tb.sim, name="c"), 0.5)
        res = gara.reserve(spec, duration=1.0)
        tb.sim.run(until=2.0)
        assert res.state == EXPIRED
        with pytest.raises(ReservationError):
            res.modify(fraction=0.6)


class TestNetworkManagerEnforcement:
    def _send_probe(self, tb, received):
        class Sink:
            def receive(self, pkt):
                received.append(pkt)

        tb.premium_dst.protocols.clear()
        tb.premium_dst.register_protocol(PROTO_UDP, Sink())
        src = tb.premium_src
        src.default_interface().send(
            Packet(src.addr, tb.premium_dst.addr, 10, 20, PROTO_UDP, 500)
        )

    def test_bound_flow_marked_ef_while_active(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(500))
        res = gara.reserve(spec, duration=10.0)
        gara.bind(
            res,
            FlowSpec(src=tb.premium_src.addr, dst=tb.premium_dst.addr,
                     proto=PROTO_UDP),
        )
        received = []
        self._send_probe(tb, received)
        tb.sim.run(until=1.0)
        assert received[0].dscp == EF

    def test_flow_reverts_to_be_after_expiry(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(500))
        res = gara.reserve(spec, duration=2.0)
        gara.bind(res, FlowSpec(src=tb.premium_src.addr, proto=PROTO_UDP))
        tb.sim.run(until=5.0)
        received = []
        self._send_probe(tb, received)
        tb.sim.run(until=6.0)
        assert received[0].dscp == BEST_EFFORT

    def test_bind_before_enable_installs_at_start(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(500))
        res = gara.reserve(spec, start=2.0, duration=10.0)
        gara.bind(res, FlowSpec(src=tb.premium_src.addr, proto=PROTO_UDP))
        received = []
        self._send_probe(tb, received)
        tb.sim.run(until=1.0)
        assert received[0].dscp == BEST_EFFORT  # not yet active
        tb.sim.run(until=3.0)
        received.clear()
        self._send_probe(tb, received)
        tb.sim.run(until=4.0)
        assert received[0].dscp == EF

    def test_modify_bandwidth(self, testbed):
        tb, domain, broker, gara = testbed
        mgr = gara.manager("network")
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(500))
        res = gara.reserve(spec)
        gara.bind(res, FlowSpec(src=tb.premium_src.addr, proto=PROTO_UDP))
        gara.modify(res, bandwidth=kbps(900))
        handle = mgr.handle_of(res)
        assert handle.rate == kbps(900)

    def test_modify_beyond_capacity_rolls_back(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(tb.premium_src, tb.premium_dst, mbps(5))
        res = gara.reserve(spec)
        with pytest.raises(ReservationError):
            gara.modify(res, bandwidth=mbps(50))
        assert res.spec.bandwidth == mbps(5)
        # Old claim still holds capacity.
        assert broker.path_available(
            tb.premium_src, tb.premium_dst, tb.sim.now, tb.sim.now + 1
        ) == pytest.approx(mbps(2))

    def test_bucket_depth_rule(self, testbed):
        tb, domain, broker, gara = testbed
        spec = NetworkReservationSpec(
            tb.premium_src, tb.premium_dst, kbps(400), bucket_divisor=4
        )
        assert spec.depth_bytes == pytest.approx(400e3 / 4)


class TestCpuManager:
    def test_enable_sets_scheduler_reservation(self, sim):
        cpu = Cpu(sim)
        mgr = DsrtCpuManager(sim)
        task = cpu.create_task("app")
        res = mgr.request(CpuReservationSpec(cpu, 0.9), duration=10.0)
        mgr.bind(res, task)
        assert task.reservation == 0.9
        sim.run(until=11.0)
        assert task.reservation == 0.0  # expired

    def test_admission_limit(self, sim):
        cpu = Cpu(sim)
        mgr = DsrtCpuManager(sim)
        mgr.request(CpuReservationSpec(cpu, 0.6))
        with pytest.raises(ReservationError):
            mgr.request(CpuReservationSpec(cpu, 0.5))

    def test_fraction_bounds(self, sim):
        cpu = Cpu(sim)
        mgr = DsrtCpuManager(sim)
        with pytest.raises(ReservationError):
            mgr.request(CpuReservationSpec(cpu, 0.99))

    def test_bad_binding_type(self, sim):
        cpu = Cpu(sim)
        mgr = DsrtCpuManager(sim)
        res = mgr.request(CpuReservationSpec(cpu, 0.5))
        with pytest.raises(ReservationError):
            mgr.bind(res, "not-a-task")

    def test_modify_fraction(self, sim):
        cpu = Cpu(sim)
        mgr = DsrtCpuManager(sim)
        task = cpu.create_task("app")
        res = mgr.request(CpuReservationSpec(cpu, 0.5))
        mgr.bind(res, task)
        mgr.modify(res, fraction=0.8)
        assert task.reservation == 0.8


class TestStorage:
    def test_reserved_client_rate(self, sim):
        server = StorageServer(sim, "dpss", bandwidth=mbps(80))
        done = {}
        ev = server.read("fast", 10_000_000)  # 80 Mbit
        ev.callbacks.append(lambda e: done.setdefault("fast", sim.now))
        ev2 = server.read("slow", 10_000_000)
        ev2.callbacks.append(lambda e: done.setdefault("slow", sim.now))
        server.set_client_reservation("fast", mbps(60))
        sim.run()
        # fast: 80Mbit at 60Mb/s = 1.33s; slow gets 20 then 80.
        assert done["fast"] == pytest.approx(80 / 60, rel=0.01)
        assert done["slow"] > done["fast"]

    def test_manager_lifecycle(self, sim):
        server = StorageServer(sim, "dpss", bandwidth=mbps(100))
        from repro.gara import DpssStorageManager

        mgr = DpssStorageManager(sim)
        res = mgr.request(StorageReservationSpec(server, mbps(50)), duration=5.0)
        mgr.bind(res, "client-1")
        assert server._reserved["client-1"] == mbps(50)
        sim.run(until=6.0)
        assert "client-1" not in server._reserved


class TestFacade:
    def test_dispatch_by_spec_type(self, testbed):
        tb, domain, broker, gara = testbed
        cpu = Cpu(tb.sim, name="c")
        net_res = gara.reserve(
            NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(100))
        )
        cpu_res = gara.reserve(CpuReservationSpec(cpu, 0.5))
        assert net_res.manager.resource_type == "network"
        assert cpu_res.manager.resource_type == "cpu"

    def test_unknown_spec(self, testbed):
        tb, domain, broker, gara = testbed
        with pytest.raises(ReservationError):
            gara.reserve(object())

    def test_co_reservation_all_or_nothing(self, testbed):
        tb, domain, broker, gara = testbed
        cpu = Cpu(tb.sim, name="c")
        # Second request cannot be admitted -> first must be cancelled.
        with pytest.raises(ReservationError):
            gara.reserve_many(
                [
                    (CpuReservationSpec(cpu, 0.5), None, None),
                    (CpuReservationSpec(cpu, 0.6), None, None),
                ]
            )
        # Full capacity available again.
        res = gara.reserve(CpuReservationSpec(cpu, 0.9))
        assert res.state == ACTIVE

    def test_co_reservation_success(self, testbed):
        tb, domain, broker, gara = testbed
        cpu = Cpu(tb.sim, name="c")
        net = NetworkReservationSpec(tb.premium_src, tb.premium_dst, kbps(100))
        both = gara.reserve_many(
            [(net, None, 10.0), (CpuReservationSpec(cpu, 0.5), None, 10.0)]
        )
        assert [r.state for r in both] == [ACTIVE, ACTIVE]

    def test_duplicate_manager_rejected(self, sim):
        gara = Gara(sim)
        gara.register_manager(DsrtCpuManager(sim))
        with pytest.raises(ValueError):
            gara.register_manager(DsrtCpuManager(sim))
