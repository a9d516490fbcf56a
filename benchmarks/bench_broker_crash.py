"""Broker crash/recovery: premium bandwidth across a mid-run broker
process death, with journal replay reconstructing the slot tables.

A leased premium reservation carries a shaped TCP stream over GARNET
(the fig-1 setup). At CRASH_AT the bandwidth broker process dies and
loses all in-memory state; the failure detector degrades the lease to
best-effort, the data plane keeps moving bytes, and at RESTART_AT the
broker replays its write-ahead journal — reconstructing the exact
pre-crash slot-table state — after which the lease re-admits and EF
marking resumes. The bench asserts recovery equivalence (replay
snapshot == pre-crash snapshot), bandwidth convergence (post-recovery
within 5% of the no-crash steady state), the slot-table conservation
invariant, and seed determinism across a 5-seed soak.
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

DURATION = 18.0
CRASH_AT = 6.0
RESTART_AT = 9.0
SETTLE = 4.0  # post-restart settle (policer-readjustment transient)
RATE = mbps(40)
SOAK_SEEDS = (0, 1, 2, 3, 4)


def crash_run(seed: int = 0, crash: bool = True):
    sim = Simulator(seed=seed)
    testbed = garnet(
        sim, backbone_bandwidth=mbps(155), backbone_delay=2e-3
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

    state = {}
    if crash:
        sim.call_at(
            CRASH_AT - 1e-3,
            lambda: state.update(pre_crash=gq.broker.snapshot()),
        )
        chaos = ChaosSchedule(sim, testbed.network)
        chaos.at(CRASH_AT).crash(gq.broker)
        chaos.at(RESTART_AT).restart(gq.broker)

    listener = gq.world.procs[1].tcp.listen(5501, config=cfg)

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

    broker = gq.broker
    return {
        "before": phase_mean(2.0, CRASH_AT),
        "after": phase_mean(RESTART_AT + SETTLE, DURATION),
        "steady": phase_mean(2.0, DURATION),
        "lease": (lease.state, lease.degradations, lease.readmissions),
        "replay_matches": (
            crash and broker.last_replay_snapshot == state["pre_crash"]
        ),
        "conservation": broker.conservation_errors(
            gq.network_manager._claims.values()
        ),
        "orphan_paths": broker.orphan_paths_collected,
        "suspicions": gq.detector.suspicions,
        "recoveries": gq.detector.recoveries,
        "trace": tuple(np.round(series, 6)),
    }


def test_broker_crash_recovers_within_5pct(once):
    def experiment():
        return crash_run(seed=0, crash=True), crash_run(seed=0, crash=False)

    crashed, baseline = once(experiment)
    # Journal replay reconstructed the exact pre-crash slot tables.
    assert crashed["replay_matches"]
    # The lease degraded during the outage and re-admitted afterwards.
    assert crashed["lease"] == ("HELD", 1, 1)
    assert crashed["suspicions"] == 1 and crashed["recoveries"] == 1
    # Post-recovery bandwidth within 5% of the no-crash steady state.
    steady = baseline["steady"]
    assert abs(crashed["after"] - steady) <= 0.05 * steady
    # Conservation: nothing double-booked, nothing stranded.
    assert crashed["conservation"] == []
    assert crashed["orphan_paths"] == 0


def test_broker_crash_soak_5_seeds(once):
    def soak():
        return [crash_run(seed=seed, crash=True) for seed in SOAK_SEEDS]

    runs = once(soak)
    for seed, stats in zip(SOAK_SEEDS, runs):
        # Convergence: the lease must be re-admitted and held again.
        assert stats["lease"][0] == "HELD", f"seed {seed} never converged"
        assert stats["replay_matches"], f"seed {seed} replay mismatch"
        assert stats["conservation"] == [], f"seed {seed} leaked claims"
        # The run's own pre-crash phase is its no-crash steady state.
        assert (
            abs(stats["after"] - stats["before"]) <= 0.05 * stats["before"]
        ), f"seed {seed} did not return to steady bandwidth"


def test_same_seed_identical_recovery(once):
    def experiment():
        return crash_run(seed=3), crash_run(seed=3)

    first, second = once(experiment)
    assert first["trace"] == second["trace"]
    assert first["lease"] == second["lease"]
