"""Figure 1: a TCP flow sending faster than its reservation.

"An application using TCP has made a reservation for only 40 Mb/s,
when it is sending at 50 Mb/s" — the achieved bandwidth oscillates
wildly (roughly 20-55 Mb/s in the paper): every policer drop knocks TCP
into recovery/slow start, it climbs back, overshoots the token-bucket
rate, and is dropped again.

Reproduction: raw TCP bulk transfer on GARNET, application writes paced
at the attempted rate, a GARA premium reservation (with the bandwidth/40
bucket rule) below that rate, UDP contention on the backbone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List

import numpy as np

from ..core import Shaper
from ..diffserv import FlowSpec
from ..gara import NetworkReservationSpec
from ..net import mbps, to_kbps
from ..net.packet import PROTO_TCP
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment

__all__ = ["run", "check", "install", "transfer", "flow_spec"]

_PORT = 5501

# Period-correct TCP: classic Reno recovery, where multiple drops per
# window frequently end in a retransmission timeout — the "TCP kicks
# into slow start mode" dips of the paper's trace.
_TCP_CONFIG = TcpConfig(
    sndbuf=1024 * 1024, rcvbuf=1024 * 1024, recovery="reno"
)


def install(
    sim,
    gara,
    testbed,
    tcp_src,
    tcp_dst,
    attempted_rate: float,
    reserved_rate: float,
    duration: float,
    owns: Callable[[str], bool] = lambda name: True,
    config: TcpConfig = _TCP_CONFIG,
) -> dict:
    """Figure 1's reservation, its flow binding and the :func:`transfer`
    it polices.

    The reservation and its binding are control-plane state, made on
    every caller; the transfer's processes start only where ``owns``
    names their host (a PDES shard owns a subset, a serial run
    everything).
    """
    # Figure 1 predates the paper's bandwidth/40 depth rule (§4.3); the
    # premium service it exercised had a generous burst allowance, so
    # we use a deep bucket (bandwidth/16 bytes, ~0.5 s of
    # burst at the attempted rate) here.
    spec = NetworkReservationSpec(
        testbed.premium_src, testbed.premium_dst, reserved_rate,
        bucket_divisor=16.0,
    )
    gara.bind(gara.reserve(spec), flow_spec(testbed))
    return transfer(
        sim, testbed, tcp_src, tcp_dst, attempted_rate, duration, config,
        owns,
    )


def flow_spec(testbed) -> FlowSpec:
    """The premium TCP flow a Figure 1 reservation binds."""
    return FlowSpec(
        src=testbed.premium_src.addr,
        dst=testbed.premium_dst.addr,
        dport=_PORT,
        proto=PROTO_TCP,
    )


def transfer(
    sim,
    testbed,
    tcp_src,
    tcp_dst,
    attempted_rate: float,
    duration: float,
    config: TcpConfig,
    owns: Callable[[str], bool] = lambda name: True,
) -> dict:
    """Figure 1's two application processes: a server draining the
    premium destination's port and a client writing 16 KB chunks at
    ``attempted_rate`` until ``duration``. Returns the dict the
    processes publish their connections in, under ``"server"`` and
    ``"client"``.
    """
    state: dict = {}

    def server(listener):
        conn = yield listener.accept()
        state["server"] = conn
        while True:
            n = yield conn.recv(1 << 20)
            if n == 0:
                return

    def client():
        conn = tcp_src.connect(testbed.premium_dst.addr, _PORT, config=config)
        state["client"] = conn
        yield conn.established_event
        # Application paced at the attempted rate, 16 KB writes.
        shaper = Shaper(sim, rate=attempted_rate, depth_bytes=64 * 1024)
        chunk = 16 * 1024
        while sim.now < duration:
            yield from shaper.acquire(chunk)
            yield conn.send(chunk)

    if owns(testbed.premium_dst.name):
        listener = tcp_dst.listen(_PORT, config=config)
        sim.process(server(listener), name="fig1-server")
    if owns(testbed.premium_src.name):
        sim.process(client(), name="fig1-client")
    return state


def run(
    quick: bool = False,
    seed: int = 0,
    attempted_rate: float = mbps(50.0),
    reserved_rate: float = mbps(40.0),
    duration: float = None,
    bin_seconds: float = 1.0,
    mode: str = "packet",
    contention_rate: float = mbps(30.0),
    access_bandwidth: float = mbps(100.0),
    shards: int = 1,
    recovery: str = "reno",
) -> ExperimentResult:
    """Produce the Figure 1 trace.

    ``recovery`` is the sender's loss recovery (``"newreno"`` is the
    recovery ablation's other arm). ``shards > 1`` runs the same flow
    through the PDES ``fig1`` scenario (:mod:`repro.pdes`), whose
    merged trace is byte-identical to the serial one; that scenario is
    packet-mode Reno on the paper's 100 Mb/s access links with 1 s
    bins.
    """
    if duration is None:
        duration = 12.0 if quick else 100.0
    if shards > 1:
        if (mode, bin_seconds, access_bandwidth, recovery) != (
            "packet", 1.0, mbps(100.0), "reno"
        ):
            raise ValueError(
                "the sharded fig1 scenario fixes mode, bin_seconds, "
                "access_bandwidth and recovery at their defaults"
            )
        # Imported here: repro.pdes.scenarios imports install() above.
        from ..pdes import run_scenario

        merged = run_scenario(
            "fig1",
            seed=seed,
            shards=shards,
            duration=duration,
            params=dict(
                duration=duration,
                attempted_rate=attempted_rate,
                reserved_rate=reserved_rate,
                contention_rate=contention_rate,
            ),
        ).merged
        times = np.asarray(merged["times"])
        rates_kbps = np.asarray(merged["rates_kbps"])
        retransmissions = merged["retransmissions"]
    else:
        config = (
            _TCP_CONFIG if recovery == "reno"
            else replace(_TCP_CONFIG, recovery=recovery)
        )
        dep = build_deployment(
            seed=seed,
            backbone_bandwidth=mbps(155.0),
            access_bandwidth=access_bandwidth,
            backbone_delay=2e-3,
            contention_rate=contention_rate,
            tcp_config=config,
            mode=mode,
        )
        sim, gq = dep.sim, dep.gq
        state = install(
            sim,
            gq.gara,
            dep.testbed,
            gq.world.procs[0].tcp,
            gq.world.procs[1].tcp,
            attempted_rate,
            reserved_rate,
            duration,
            config=config,
        )
        sim.run(until=duration)
        times, rates = state["server"].delivered_counter.rate_series(
            bin_seconds, t_start=0.0, t_end=duration
        )
        rates_kbps = rates * 8.0 / 1e3
        retransmissions = state["client"].retransmissions

    steady = rates_kbps[2:]  # skip slow-start warmup bins
    result = ExperimentResult(
        experiment="fig1",
        description=(
            "TCP at 50 Mb/s with a 40 Mb/s reservation: bandwidth trace"
        ),
        headers=["time_s", "bandwidth_kbps"],
        rows=[[float(t), float(r)] for t, r in zip(times, rates_kbps)],
        series={"tcp-flow": (times, rates_kbps)},
        extra={
            "attempted_kbps": to_kbps(attempted_rate),
            "reserved_kbps": to_kbps(reserved_rate),
            "mean_kbps": float(np.mean(steady)) if len(steady) else 0.0,
            "min_kbps": float(np.min(steady)) if len(steady) else 0.0,
            "max_kbps": float(np.max(steady)) if len(steady) else 0.0,
            "std_kbps": float(np.std(steady)) if len(steady) else 0.0,
            "retransmissions": retransmissions,
        },
    )
    if mode != "packet":
        # Only non-default modes annotate the payload: the packet-mode
        # quick JSON is pinned byte-identical across PRs.
        result.extra["mode"] = mode
    return result


def check(result: ExperimentResult) -> List[str]:
    """Figure 1's claims, one message per claim the result breaks:
    policing holds the mean below the attempted rate and near the
    reservation, while the trace oscillates wildly around it (dips well
    below, peaks up to it) with retransmissions throughout."""
    extra = result.extra
    mean, std, low, high, attempted = (
        extra[f"{name}_kbps"] / extra["reserved_kbps"]
        for name in ("mean", "std", "min", "max", "attempted")
    )
    retransmissions = extra["retransmissions"]
    claims = [
        (mean < attempted,
         f"mean/reserved {mean:.3f} < attempted/reserved {attempted:.3f}"),
        (0.4 < mean < 1.05, f"0.4 < mean/reserved {mean:.3f} < 1.05"),
        (std > 0.05, f"std/reserved {std:.3f} > 0.05"),
        (low < 0.85, f"min/reserved {low:.3f} < 0.85"),
        (high > 0.95, f"max/reserved {high:.3f} > 0.95"),
        (retransmissions > 0, f"retransmissions {retransmissions} > 0"),
    ]
    return [f"fig1: {claim} fails" for holds, claim in claims if not holds]
