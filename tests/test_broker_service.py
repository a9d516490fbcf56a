"""End-to-end broker service tests over real localhost TCP: admission
round trips, idempotent retry (including across crash/restart),
deterministic RETRY-AFTER, load shedding, heartbeat eviction, and
graceful degradation to best-effort."""

import asyncio

import pytest

from repro import Simulator, mbps
from repro.broker_service import (
    AdmissionRejected,
    BrokerClient,
    BrokerService,
    BrokerUnreachable,
    RequestFailed,
)
from repro.broker_service.protocol import (
    STATUS_BUSY,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_RETRY,
    encode_frame,
    read_frame,
)
from repro.gara import BandwidthBroker
from repro.net import Network
from repro.resilience import Journal

# 10 Mb/s link at the default 0.7 EF share -> 7 Mb/s admissible.
LINK = mbps(10.0)
CAP = LINK * 0.7


def build_service(**kwargs):
    sim = Simulator(seed=2)
    network = Network(sim)
    a = network.add_host("a")
    b = network.add_host("b")
    network.connect(a, b, bandwidth=LINK, delay=1e-4)
    network.build_routes()
    broker = BandwidthBroker(
        network, journal=Journal("broker"), gc_grace=0.5
    )
    kwargs.setdefault("tick", None)
    return BrokerService(broker, Journal("svc"), **kwargs)


def held_reservations(service):
    """Live reservations, after checking the slot tables against them."""
    assert service.broker.conservation_errors(service._claims.values()) == []
    return len(service._claims)


async def raw_conn(service):
    return await asyncio.open_connection("127.0.0.1", service.port)


async def ask(reader, writer, msg):
    writer.write(encode_frame(msg))
    return await read_frame(reader)


# ---------------------------------------------------------------------------
# Happy path and admission outcomes
# ---------------------------------------------------------------------------


class TestAdmissionRoundtrip:
    def test_reserve_claim_cancel(self):
        async def go():
            service = build_service()
            await service.start()
            client = BrokerClient("127.0.0.1", service.port, name="c0")
            res = await client.reserve("a", "b", mbps(5), 0.0, 30.0,
                                       owner="app")
            assert res.held and res.rid is not None
            claim = await client.claim(res)
            assert claim["owner"] == "app"
            assert claim["bandwidth"] == mbps(5)
            assert len(claim["claims"]) >= 1
            assert held_reservations(service) == 1
            assert await client.cancel(res) == 1
            assert service.broker.conservation_errors([]) == []
            await client.close()
            await service.close()

        asyncio.run(go())

    def test_over_capacity_rejected(self):
        async def go():
            service = build_service()
            await service.start()
            client = BrokerClient("127.0.0.1", service.port, name="c0")
            await client.reserve("a", "b", mbps(5), 0.0, 30.0)
            with pytest.raises(AdmissionRejected):
                await client.reserve("a", "b", mbps(5), 0.0, 30.0)
            assert service.rejections == 1
            await client.close()
            await service.close()

        asyncio.run(go())

    def test_unknown_rid_claim_fails(self):
        async def go():
            service = build_service()
            await service.start()
            reader, writer = await raw_conn(service)
            reply = await ask(reader, writer, ["clm", 1, 999])
            assert reply[1] == 5  # UNKNOWN
            assert service.unknown_rids == 1
            writer.close()
            await service.close()

        asyncio.run(go())

    def test_modify_is_make_before_break(self):
        async def go():
            service = build_service()
            await service.start()
            client = BrokerClient("127.0.0.1", service.port, name="c0")
            res = await client.reserve("a", "b", mbps(2), 0.0, 30.0)
            # Make-before-break: the new grant is admitted while the
            # old one still holds (2 + 4 <= 7), then the old is freed.
            await client.modify(res, bandwidth=mbps(4))
            claim = await client.claim(res)
            assert claim["bandwidth"] == mbps(4)
            assert held_reservations(service) == 1  # old entry released
            # A transition that cannot coexist with the old grant
            # (4 + 5 > 7) fails and leaves the old grant intact.
            with pytest.raises(AdmissionRejected):
                await client.modify(res, bandwidth=mbps(5))
            assert (await client.claim(res))["bandwidth"] == mbps(4)
            await client.close()
            await service.close()

        asyncio.run(go())

    def test_batch_summary_and_plain(self):
        async def go():
            service = build_service()
            await service.start()
            reader, writer = await raw_conn(service)
            subs = [
                ["rsv", 1, "a1", None, "a", "b", mbps(5), 0.0, 30.0],
                ["rsv", 2, "a2", None, "a", "b", mbps(5), 0.0, 30.0],
                ["can", 3, None, None, "a1"],
            ]
            reply = await ask(reader, writer, ["batch", 9, subs, 1])
            # Second reserve exceeds capacity: 2 OK, 1 REJECTED.
            assert reply == [9, STATUS_OK, [2, 1]]
            # Plain batches still return per-sub replies.
            reply = await ask(reader, writer, ["batch", 10, [["st", 11]]])
            assert reply[1] == STATUS_OK and reply[2][0][1] == STATUS_OK
            writer.close()
            await service.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Idempotency (satellite: duplicate retries are counted no-ops)
# ---------------------------------------------------------------------------


class TestIdempotency:
    def test_duplicate_reserve_replays_same_rid(self):
        async def go():
            service = build_service()
            await service.start()
            reader, writer = await raw_conn(service)
            msg = ["rsv", 1, "dup-key", None, "a", "b", mbps(3), 0.0, 9.0]
            first = await ask(reader, writer, msg)
            second = await ask(reader, writer, msg)
            assert first[1] == second[1] == STATUS_OK
            assert first[2] == second[2]          # same rid
            assert first[3] == 0 and second[3] == 1  # replay flagged
            assert service.admissions == 1
            assert service.broker.admissions == 1
            assert service.idempotent_replays == 1
            writer.close()
            await service.close()

        asyncio.run(go())

    def test_duplicate_cancel_counted_once(self):
        async def go():
            service = build_service()
            await service.start()
            reader, writer = await raw_conn(service)
            rsv = await ask(
                reader, writer,
                ["rsv", 1, "k1", None, "a", "b", mbps(3), 0.0, 9.0],
            )
            can = ["can", 2, "c1", rsv[2], None]
            first = await ask(reader, writer, can)
            second = await ask(reader, writer, can)
            assert first[2] == 1      # freed capacity now
            assert second[2] == 1     # replayed outcome, not re-counted
            assert second[3] == 1
            assert service.cancels == 1
            assert service.broker.releases == 1
            writer.close()
            await service.close()

        asyncio.run(go())

    def test_idempotent_reserve_across_crash_restart(self):
        async def go():
            service = build_service()
            await service.start()
            reader, writer = await raw_conn(service)
            msg = ["rsv", 1, "crashy", None, "a", "b", mbps(3), 0.0, 9.0]
            first = await ask(reader, writer, msg)
            assert first[1] == STATUS_OK
            await service.crash()
            await service.restart()
            assert service.replayed_reservations == 1
            reader, writer = await raw_conn(service)
            second = await ask(reader, writer, msg)
            assert second[1] == STATUS_OK
            assert second[2] == first[2]  # same rid survived the crash
            assert second[3] == 1         # served from the journaled cache
            assert held_reservations(service) == 1  # never double-booked
            writer.close()
            await service.close()

        asyncio.run(go())

    def test_cancel_by_key_tombstones_uncommitted_reserve(self):
        async def go():
            service = build_service()
            await service.start()
            reader, writer = await raw_conn(service)
            # Cancel an admission that never committed: a no-op now,
            # but the key is tombstoned so a late retry cannot book it.
            reply = await ask(
                reader, writer, ["can", 1, "c9", None, "ghost-key"]
            )
            assert reply[1] == STATUS_OK and reply[2] == 0
            assert service.tombstones == 1
            late = await ask(
                reader, writer,
                ["rsv", 2, "ghost-key", None, "a", "b", mbps(1), 0.0, 5.0],
            )
            assert late[1] == STATUS_REJECTED
            # The tombstone is journaled: it survives a crash too.
            await service.crash()
            await service.restart()
            reader, writer = await raw_conn(service)
            later = await ask(
                reader, writer,
                ["rsv", 3, "ghost-key", None, "a", "b", mbps(1), 0.0, 5.0],
            )
            assert later[1] == STATUS_REJECTED
            assert service.broker.conservation_errors([]) == []
            writer.close()
            await service.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Crash recovery and retry/backoff
# ---------------------------------------------------------------------------


class TestRecoveryAndRetry:
    def test_broker_down_yields_deterministic_retry_after(self):
        async def go():
            service = build_service(down_retry_after=0.125)
            await service.start()
            service.broker.crash()
            reader, writer = await raw_conn(service)
            reply = await ask(
                reader, writer,
                ["rsv", 1, "k", None, "a", "b", mbps(1), 0.0, 5.0],
            )
            assert reply == [1, STATUS_RETRY, 0.125]
            assert service.retry_replies == 1
            # Status still answers while the broker is down.
            status = await ask(reader, writer, ["st", 2])
            assert status[1] == STATUS_OK
            service.broker.restart()
            ok = await ask(
                reader, writer,
                ["rsv", 3, "k", None, "a", "b", mbps(1), 0.0, 5.0],
            )
            assert ok[1] == STATUS_OK
            writer.close()
            await service.close()

        asyncio.run(go())

    def test_client_retries_through_hard_crash(self):
        async def go():
            service = build_service()
            await service.start()
            client = BrokerClient(
                "127.0.0.1", service.port, name="c0",
                timeout=0.5, backoff_base=0.02, backoff_cap=0.1,
                max_retries=40,
            )
            res = await client.reserve("a", "b", mbps(2), 0.0, 30.0)
            await service.crash()  # hard: aborts every connection

            async def comeback():
                await asyncio.sleep(0.15)
                await service.restart()

            task = asyncio.ensure_future(comeback())
            # The request rides retry + backoff through the outage.
            res2 = await client.reserve("a", "b", mbps(2), 30.0, 60.0)
            await task
            assert res2.held
            assert client.retries + client.conn_failures > 0
            assert service.replayed_reservations == 1  # res survived
            claim = await client.claim(res)
            assert claim["rid"] == res.rid
            await client.close()
            await service.close()

        asyncio.run(go())

    def test_recovery_replay_is_equivalent(self):
        async def go():
            service = build_service(compact_every=6)
            await service.start()
            client = BrokerClient("127.0.0.1", service.port, name="c0")
            held = []
            for i in range(5):
                held.append(await client.reserve(
                    "a", "b", mbps(1), 10.0 * i, 10.0 * i + 5.0,
                    owner=f"o{i}",
                ))
            await client.cancel(held.pop(0))
            await client.cancel(held.pop(0))
            expected = service.broker.snapshot()
            expected_live = held_reservations(service)
            await service.crash()
            await service.restart()
            assert service.broker.snapshot() == expected
            assert held_reservations(service) == expected_live
            assert service.journal.snapshots_total >= 1  # compaction ran
            for res in held:
                assert (await client.claim(res))["rid"] == res.rid
            await client.close()
            await service.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Overload shedding
# ---------------------------------------------------------------------------


class TestLoadShedding:
    def test_oversized_batch_is_shed_busy(self):
        async def go():
            service = build_service(max_pending=2, busy_retry_after=0.05)
            await service.start()
            reader, writer = await raw_conn(service)
            big = ["batch", 1, [["st", i] for i in range(8)]]
            reply = await ask(reader, writer, big)
            assert reply == [1, STATUS_BUSY, 0.05]
            assert service.sheds == 8
            assert service.busy_replies == 1
            # A request within bounds still succeeds immediately.
            ok = await ask(reader, writer, ["st", 2])
            assert ok[1] == STATUS_OK
            writer.close()
            await service.close()

        asyncio.run(go())

    def test_connection_limit_sheds_new_conns(self):
        async def go():
            service = build_service(max_connections=1)
            await service.start()
            r1, w1 = await raw_conn(service)
            assert (await ask(r1, w1, ["st", 1]))[1] == STATUS_OK
            r2, w2 = await raw_conn(service)
            greeting = await read_frame(r2)
            assert greeting[1] == STATUS_BUSY
            assert service.conn_sheds == 1
            # The first connection is unaffected.
            assert (await ask(r1, w1, ["st", 2]))[1] == STATUS_OK
            w1.close()
            w2.close()
            await service.close()

        asyncio.run(go())

    def test_busy_hint_paces_client_backoff(self):
        async def go():
            service = build_service(max_pending=2, busy_retry_after=0.02)
            await service.start()
            client = BrokerClient(
                "127.0.0.1", service.port, name="c0",
                backoff_base=0.01, max_retries=3,
            )
            with pytest.raises(BrokerUnreachable):
                await client.request_batch([["st", i] for i in range(8)])
            assert client.busy_seen >= 1
            await client.close()
            await service.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Heartbeats and eviction
# ---------------------------------------------------------------------------


class TestHeartbeats:
    def test_register_evict_and_stale_epoch(self):
        async def go():
            service = build_service(evict_after=1.0)
            await service.start()
            reader, writer = await raw_conn(service)
            first = await ask(reader, writer, ["hb", 1, "peer", None])
            assert first[1] == STATUS_OK and first[3] == 1
            epoch = first[2]
            assert service.detector.lookup("peer") is not None
            # Silence past the eviction deadline: watch expelled.
            service.advance(3.0)
            assert service.detector.lookup("peer") is None
            assert service.evictions == 1
            # A heartbeat stamped by the dead incarnation is stale...
            reader, writer = await raw_conn(service)
            stale = await ask(reader, writer, ["hb", 2, "peer", epoch])
            assert stale[3] == 0
            assert service.detector.lookup("peer") is None
            # ...while an unstamped one re-registers with a new epoch.
            again = await ask(reader, writer, ["hb", 3, "peer", None])
            assert again[3] == 1 and again[2] == epoch + 1
            writer.close()
            await service.close()

        asyncio.run(go())

    def test_client_heartbeat_reregisters_after_eviction(self):
        async def go():
            service = build_service(evict_after=1.0)
            await service.start()
            client = BrokerClient("127.0.0.1", service.port, name="c0")
            assert await client.heartbeat() is True
            service.advance(3.0)  # evicted server-side
            assert await client.heartbeat() is False  # stale epoch
            assert await client.heartbeat() is True   # re-registered
            assert client.stale_epochs == 1
            await client.close()
            await service.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_degrades_to_best_effort_then_upgrades(self):
        async def go():
            service = build_service()
            await service.start()
            await service.crash()  # broker service gone

            upgraded = asyncio.Event()
            client = BrokerClient(
                "127.0.0.1", service.port, name="c0",
                timeout=0.2, backoff_base=0.02, backoff_cap=0.05,
                max_retries=2, degrade_after=0.3,
                on_upgrade=lambda res: upgraded.set(),
            )
            res = await client.reserve("a", "b", mbps(2), 0.0, 30.0)
            assert res.best_effort and res.rid is None
            assert client.degradations == 1

            await service.restart()
            await asyncio.wait_for(upgraded.wait(), timeout=5.0)
            assert res.held and res.rid is not None
            assert client.upgrades == 1
            assert held_reservations(service) == 1  # premium capacity booked
            assert await client.cancel(res) == 1
            await client.close()
            await service.close()

        asyncio.run(go())

    def test_without_degrade_reserve_raises_unreachable(self):
        async def go():
            service = build_service()
            await service.start()
            await service.crash()
            client = BrokerClient(
                "127.0.0.1", service.port, name="c0",
                timeout=0.2, backoff_base=0.01, max_retries=2,
            )
            with pytest.raises(BrokerUnreachable):
                await client.reserve("a", "b", mbps(2), 0.0, 30.0)
            await client.close()

        asyncio.run(go())


class TestBrokerClientChannel:
    def test_channel_adapts_client_to_controller_shape(self):
        # The PR 8 controller renegotiates through any object with
        # acquire/boost/release; the channel maps those onto the wire
        # client's reserve/modify/cancel with fresh idempotency keys.
        from repro.slo import BrokerClientChannel

        async def go():
            service = build_service()
            await service.start()
            client = BrokerClient("127.0.0.1", service.port, name="ctl")
            channel = BrokerClientChannel(client)
            res = await channel.acquire("a", "b", mbps(2), 0.0, 30.0)
            assert res.held and res.rid is not None
            assert held_reservations(service) == 1
            boosted = await channel.boost(res, mbps(4))
            assert boosted.bandwidth == mbps(4)
            # One booking, modified in place -- never double-booked.
            assert held_reservations(service) == 1
            assert await channel.release(boosted) == 1
            assert service.broker.conservation_errors([]) == []
            await client.close()
            await service.close()

        asyncio.run(go())
