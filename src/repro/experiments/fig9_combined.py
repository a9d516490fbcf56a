"""Figure 9: combined network and CPU reservations.

"A trace of the bandwidth achieved by the visualization application as
it attempts to achieve a constant 35Mb/s rate. Initially it runs well
(0-10 seconds), then network congestion affects its bandwidth (11-20
seconds) until a network reservation is made (21-30 seconds).
Bandwidth again decreases when there is CPU contention at the sender
(31-40 seconds) until there is a CPU reservation (41-50 seconds)"
(§5.5). "Note that it is insufficient to make just a network
reservation or a CPU reservation: both reservations are needed."
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..apps import CpuHog, VisualizationPipeline
from ..cpu import Cpu
from ..gara import CpuReservationSpec
from ..net import mbps
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment

__all__ = ["run", "check"]


def run(
    quick: bool = False,
    seed: int = 0,
    target_rate: float = mbps(35.0),
    fps: float = 10.0,
    work_fraction: float = 0.85,
    congestion_at: float = 10.0,
    net_reserve_at: float = 21.0,
    hog_at: float = 31.0,
    cpu_reserve_at: float = 41.0,
    duration: float = 50.0,
    bin_seconds: float = 0.5,
) -> ExperimentResult:
    if quick:
        congestion_at, net_reserve_at, hog_at, cpu_reserve_at, duration = (
            3.0, 6.0, 9.0, 12.0, 15.0,
        )
    # The backbone must genuinely saturate under the blast: with
    # 100 Mb/s access links capping the generator, a 120 Mb/s backbone
    # carrying 95 Mb/s of UDP plus the 35 Mb/s application congests.
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(120.0),
        contention_rate=mbps(95.0),
        start_contention=False,
        eager_threshold=1024 * 1024,
        tcp_config=TcpConfig(
            sndbuf=1024 * 1024, rcvbuf=1024 * 1024, recovery="reno"
        ),
    )
    sim, tb, gq = dep.sim, dep.testbed, dep.gq
    sender = tb.premium_src
    cpu = Cpu(sim, host=sender, name="sender-cpu")

    frame_bytes = int(target_rate / fps / 8.0)
    app = VisualizationPipeline(
        frame_bytes=frame_bytes,
        fps=fps,
        duration=duration,
        work_fraction=work_fraction,
    )
    gq.world.launch(app.main)

    # Timeline of contention and remedies.
    sim.call_at(congestion_at, dep.contention.start)
    hog = CpuHog(sender)
    sim.call_at(hog_at, hog.start)

    def make_net_reservation():
        gq.agent.reserve_flows(0, 1, target_rate * 1.06)

    sim.call_at(net_reserve_at, make_net_reservation)

    cpu_reservation = gq.gara.reserve(
        CpuReservationSpec(cpu, 0.9), start=cpu_reserve_at
    )

    def bind_when_task_exists():
        while app._cpu_task is None:
            yield sim.timeout(0.05)
        gq.gara.bind(cpu_reservation, app._cpu_task)

    sim.process(bind_when_task_exists(), name="fig9-binder")
    sim.run(until=duration + 20.0)

    times, rates = app.delivered.rate_series(bin_seconds, 0.0, duration)
    rates_kbps = rates * 8.0 / 1e3

    def phase_mean(t0, t1):
        mask = (times >= t0) & (times < t1)
        return float(np.mean(rates_kbps[mask])) if mask.any() else 0.0

    result = ExperimentResult(
        experiment="fig9",
        description="35 Mb/s visualization: congestion, net reservation, "
        "CPU contention, CPU reservation",
        headers=["time_s", "bandwidth_kbps"],
        rows=[[float(t), float(r)] for t, r in zip(times, rates_kbps)],
        series={"bandwidth": (times, rates_kbps)},
        extra={
            "target_kbps": target_rate / 1e3,
            "phase1_clean_kbps": phase_mean(1.0, congestion_at),
            "phase2_congested_kbps": phase_mean(
                congestion_at + 0.5, net_reserve_at
            ),
            "phase3_net_reserved_kbps": phase_mean(
                net_reserve_at + 1.0, hog_at
            ),
            "phase4_cpu_contended_kbps": phase_mean(
                hog_at + 0.5, cpu_reserve_at
            ),
            "phase5_both_reserved_kbps": phase_mean(
                cpu_reserve_at + 1.0, duration
            ),
        },
    )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Figure 9's claims (§5.5), one message per claim the result
    breaks: each contention phase visibly degrades the stream and each
    reservation restores it — the network reservation alone does not
    survive CPU contention, both together do. Rates are in Kb/s."""
    target, p1, p2, p3, p4, p5 = (
        result.extra[f"{phase}_kbps"]
        for phase in ("target", "phase1_clean", "phase2_congested",
                      "phase3_net_reserved", "phase4_cpu_contended",
                      "phase5_both_reserved")
    )
    claims = [
        (p1 > 0.95 * target, f"clean {p1:.0f} > 0.95 x target {target:.0f}"),
        (p2 < 0.7 * p1, f"congested {p2:.0f} < 0.7 x clean {p1:.0f}"),
        (p3 > 0.9 * target, f"net-reserved {p3:.0f} > 0.9 x target"),
        (p4 < 0.75 * p3,
         f"CPU-contended {p4:.0f} < 0.75 x net-reserved {p3:.0f}"),
        (p5 > 0.9 * target, f"both-reserved {p5:.0f} > 0.9 x target"),
    ]
    return [f"fig9: {claim} fails" for holds, claim in claims if not holds]
