"""Chaos recovery: premium bandwidth before/during/after a backbone
failure, with the resilient stack rerouting onto the standby core.

A leased premium reservation carries a shaped TCP stream over GARNET's
primary backbone. At FAIL_AT the edge1--core link dies: TCP stalls on
RTO backoff, routing fails over to the standby core, and the lease
re-admits its claims on the new path. The bench reports the bandwidth
in each phase plus the recovery time, asserts that the slot tables
book exactly the claims still held, and that the whole timeline is
deterministic for a fixed seed.
"""

import numpy as np

from repro.core import Shaper
from repro.core.mpichgq import MpichGQ
from repro.diffserv import FlowSpec
from repro.faults import ChaosSchedule
from repro.gara import NetworkReservationSpec
from repro.kernel import Simulator
from repro.net import garnet, mbps
from repro.net.packet import PROTO_TCP
from repro.transport.tcp import TcpConfig

DURATION = 20.0
FAIL_AT = 7.0
RESTORE_AT = 14.0
RATE = mbps(40)


def chaos_run(seed: int = 0):
    sim = Simulator(seed=seed)
    testbed = garnet(
        sim,
        backbone_bandwidth=mbps(155),
        backbone_delay=2e-3,
        redundant_backbone=True,
    )
    cfg = TcpConfig(sndbuf=1 << 20, rcvbuf=1 << 20, max_rto=1.0)
    gq = MpichGQ.on_garnet(testbed, tcp_config=cfg, resilient=True)
    spec = NetworkReservationSpec(
        testbed.premium_src, testbed.premium_dst, RATE, bucket_divisor=16.0
    )
    flow = FlowSpec(
        src=testbed.premium_src.addr,
        dst=testbed.premium_dst.addr,
        dport=5501,
        proto=PROTO_TCP,
    )
    lease = gq.lease_manager.lease(spec, bindings=[flow])

    chaos = ChaosSchedule(sim, testbed.network)
    chaos.at(FAIL_AT).fail_link("edge1", "core")
    chaos.at(RESTORE_AT).restore_link("edge1", "core")

    listener = gq.world.procs[1].tcp.listen(5501, config=cfg)
    state = {}

    def server():
        conn = yield listener.accept()
        state["server"] = conn
        while True:
            if (yield conn.recv(1 << 20)) == 0:
                return

    def client():
        conn = gq.world.procs[0].tcp.connect(
            testbed.premium_dst.addr, 5501, config=cfg
        )
        yield conn.established_event
        shaper = Shaper(sim, rate=mbps(50), depth_bytes=64 * 1024)
        while sim.now < DURATION:
            yield from shaper.acquire(16 * 1024)
            yield conn.send(16 * 1024)

    sim.process(server())
    sim.process(client())
    sim.run(until=DURATION)

    binsize = 0.25
    _t, rates = state["server"].delivered_counter.rate_series(
        binsize, 0, DURATION
    )
    series = rates * 8 / 1e6  # Mb/s per bin
    bins = np.arange(len(series)) * binsize

    def phase_mean(start, end):
        sel = (bins >= start) & (bins < end)
        return float(series[sel].mean())

    before = phase_mean(2.0, FAIL_AT)
    during = phase_mean(FAIL_AT, RESTORE_AT)
    after = phase_mean(RESTORE_AT, DURATION)
    # Recovery: first bin after the failure back above 80% of the
    # pre-failure bandwidth.
    recovered = np.nonzero((bins > FAIL_AT) & (series > 0.8 * before))[0]
    recovery_time = (
        float(bins[recovered[0]] - FAIL_AT) if len(recovered) else float("inf")
    )
    return {
        "before": before,
        "during": during,
        "after": after,
        "recovery_time": recovery_time,
        "lease": (lease.state, lease.degradations, lease.readmissions),
        "conservation": gq.broker.conservation_errors(
            gq.network_manager._claims.values()
        ),
        "trace": tuple(np.round(series, 6)),
    }


def test_backbone_flap_recovers(once):
    stats = once(chaos_run)
    # Pre-failure: the shaped stream runs at its offered ~40 Mb/s.
    assert 35.0 < stats["before"] < 45.0
    # The failure bites (TCP stalls while RTO backoff rides it out),
    # then the standby core carries the stream again: the during-phase
    # average stays well above zero and recovery is fast.
    assert stats["during"] > 0.5 * stats["before"]
    assert stats["recovery_time"] < 3.0
    # After the primary returns, full service continues.
    assert 35.0 < stats["after"] < 45.0
    # The lease degraded exactly once and re-admitted on the new path;
    # its old-path claims are gone from the slot tables.
    assert stats["lease"] == ("HELD", 1, 1)
    assert stats["conservation"] == []


def test_same_seed_identical_timeline(once):
    def experiment():
        return chaos_run(seed=5), chaos_run(seed=5)

    first, second = once(experiment)
    assert first["trace"] == second["trace"]
    assert first["recovery_time"] == second["recovery_time"]
    assert first["lease"] == second["lease"]
