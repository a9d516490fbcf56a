"""Figure 8: CPU contention and a DSRT reservation.

"At the beginning, it is able to maintain a fairly steady throughput of
15Mb/s. However at 10 seconds, a CPU-intensive application begins
running on the same machine as the sending side of the visualization
application. This reduces the bandwidth significantly, so a CPU
reservation for 90% of the CPU is made at 20 seconds, and the
visualization application again is able to achieve its full bandwidth"
(§5.5).

The CPU reservation is requested through GARA as an *advance*
reservation at t=0 with start time 20 s — exercising the slot table and
timer-driven enablement.
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
    target_rate: float = mbps(15.0),
    fps: float = 10.0,
    work_fraction: float = 0.85,
    hog_at: float = 10.0,
    reserve_at: float = 20.0,
    duration: float = 30.0,
    reservation_fraction: float = 0.9,
    bin_seconds: float = 0.5,
) -> ExperimentResult:
    if quick:
        hog_at, reserve_at, duration = 3.0, 6.0, 9.0
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(155.0),
        eager_threshold=512 * 1024,
        tcp_config=TcpConfig(sndbuf=512 * 1024, rcvbuf=512 * 1024),
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

    hog = CpuHog(sender)
    sim.call_at(hog_at, hog.start)

    # Advance DSRT reservation, made now, active from ``reserve_at``.
    reservation = gq.gara.reserve(
        CpuReservationSpec(cpu, reservation_fraction), start=reserve_at
    )

    def bind_when_task_exists():
        # The app creates its CPU task lazily on its first frame.
        while app._cpu_task is None:
            yield sim.timeout(0.05)
        gq.gara.bind(reservation, app._cpu_task)

    sim.process(bind_when_task_exists(), name="fig8-binder")
    sim.run(until=duration + 10.0)

    times, rates = app.delivered.rate_series(bin_seconds, 0.0, duration)
    rates_kbps = rates * 8.0 / 1e3

    def phase_mean(t0, t1):
        mask = (times >= t0) & (times < t1)
        return float(np.mean(rates_kbps[mask])) if mask.any() else 0.0

    result = ExperimentResult(
        experiment="fig8",
        description="visualization bandwidth: CPU hog then DSRT "
        "reservation",
        headers=["time_s", "bandwidth_kbps"],
        rows=[[float(t), float(r)] for t, r in zip(times, rates_kbps)],
        series={"bandwidth": (times, rates_kbps)},
        extra={
            "target_kbps": target_rate / 1e3,
            "before_contention_kbps": phase_mean(1.0, hog_at),
            "during_contention_kbps": phase_mean(hog_at + 0.5, reserve_at),
            "after_reservation_kbps": phase_mean(reserve_at + 0.5, duration),
            "hog_at": hog_at,
            "reserve_at": reserve_at,
        },
    )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Figure 8's claims (§5.5), one message per claim the result
    breaks: steady full rate, a significant drop once the CPU hog
    starts, full rate again once the 90% DSRT reservation activates.
    Rates are in Kb/s."""
    target, before, during, after = (
        result.extra[f"{phase}_kbps"]
        for phase in ("target", "before_contention", "during_contention",
                      "after_reservation")
    )
    claims = [
        (before > 0.95 * target,
         f"before the hog {before:.0f} > 0.95 x target {target:.0f}"),
        (during < 0.75 * before,
         f"under the hog {during:.0f} < 0.75 x before it {before:.0f}"),
        (after > 0.9 * target,
         f"under the reservation {after:.0f} > 0.9 x target {target:.0f}"),
    ]
    return [f"fig8: {claim} fails" for holds, claim in claims if not holds]
