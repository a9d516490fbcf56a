"""Property-based slot-table conservation: any interleaving of
admissions, releases, quota changes, and crash/replay cycles must keep
the journal-reconstructed state byte-identical to the live state, and
the admission/release counters consistent with the live claim count."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Simulator, mbps, kbps
from repro.cpu import Cpu
from repro.diffserv import DiffServDomain
from repro.gara import (
    BandwidthBroker,
    CpuReservationSpec,
    NetworkReservationSpec,
    ReservationError,
    StorageReservationSpec,
    StorageServer,
    build_standard_gara,
)
from repro.net.topology import garnet
from repro.resilience import Journal

OWNERS = ("alice", "bob", None)

op_strategy = st.one_of(
    st.tuples(
        st.just("admit"),
        st.booleans(),  # direction: src->dst or dst->src
        st.sampled_from(OWNERS),
        st.floats(min_value=0.05, max_value=3.0),  # Mb/s
        st.floats(min_value=0.0, max_value=50.0),  # start offset
        st.floats(min_value=1.0, max_value=100.0),  # duration
    ),
    st.tuples(st.just("release"), st.integers(min_value=0)),
    st.tuples(
        st.just("quota"),
        st.sampled_from(("alice", "bob")),
        st.floats(min_value=0.1, max_value=1.0),
    ),
    st.tuples(st.just("crash_replay")),
)


class TestBrokerConservation:
    @given(ops=st.lists(op_strategy, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_replay_equivalence_and_counter_conservation(self, ops):
        sim = Simulator(seed=29)
        tb = garnet(sim, backbone_bandwidth=mbps(10))
        broker = BandwidthBroker(
            tb.network, ef_share=0.7, journal=Journal(name="wal")
        )
        live = []  # claim lists the (always-returning) holders hold
        for op in ops:
            if op[0] == "admit":
                _, forward, owner, bw_mbps, start, duration = op
                src, dst = tb.premium_src, tb.premium_dst
                if not forward:
                    src, dst = dst, src
                try:
                    live.append(
                        broker.admit_path(
                            src, dst, bw_mbps * 1e6,
                            start, start + duration, owner=owner,
                        )
                    )
                except ReservationError:
                    pass  # rejections mutate nothing
            elif op[0] == "release":
                if live:
                    broker.release(live.pop(op[1] % len(live)))
            elif op[0] == "quota":
                broker.set_quota(op[1], op[2])
            else:  # crash_replay
                pre = broker.snapshot()
                counters = (broker.admissions, broker.releases)
                broker.crash()
                broker.restart()
                # Byte-identical reconstruction, replay-derived
                # counters included.
                assert broker.last_replay_snapshot == pre
                assert broker.snapshot() == pre
                assert (broker.admissions, broker.releases) == counters
                # Every holder in this model comes back.
                for claims in live:
                    broker.reregister(claims)

        # Conservation: every admitted path is either still held or
        # was released/collected, never duplicated or leaked.
        assert (
            broker.admissions
            - broker.releases
            - broker.orphan_paths_collected
            == len(live)
        )
        assert broker.conservation_errors(live) == []
        # Releasing everything drains the tables and usage completely.
        for claims in live:
            broker.release(claims)
        assert broker.conservation_errors([]) == []
        assert broker._owner_usage == {}


class TestCoReservationConservation:
    @given(
        storage_dead=st.booleans(),
        cpu_fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=25, deadline=None)
    def test_vetoed_transaction_never_leaks(
        self, storage_dead, cpu_fraction, seed
    ):
        """Acceptance: a co-reservation that fails (storage prepare
        timeout or storage admission veto) leaves network and CPU
        slot tables exactly as they were."""
        sim = Simulator(seed=seed)
        tb = garnet(sim, backbone_bandwidth=mbps(10))
        domain = DiffServDomain(sim, [tb.edge1, tb.core, tb.edge2])
        broker = BandwidthBroker(tb.network)
        gara = build_standard_gara(sim, domain=domain, broker=broker)
        cpu = Cpu(sim, name="c0")
        server = StorageServer(sim, "dpss", bandwidth=mbps(50))
        if storage_dead:
            gara.manager("storage").crash()
            storage_req = StorageReservationSpec(server, mbps(10))
        else:
            storage_req = StorageReservationSpec(server, mbps(500))  # veto
        before = (
            broker.snapshot(),
            sum(len(t) for t in gara.manager("cpu")._tables.values()),
        )
        with pytest.raises(ReservationError):
            gara.reserve_many(
                [
                    (
                        NetworkReservationSpec(
                            tb.premium_src, tb.premium_dst, kbps(400)
                        ),
                        None,
                        10.0,
                    ),
                    (CpuReservationSpec(cpu, cpu_fraction), None, 10.0),
                    (storage_req, None, 10.0),
                ]
            )
        after = (
            broker.snapshot(),
            sum(len(t) for t in gara.manager("cpu")._tables.values()),
        )
        assert after == before
