"""Figure 7: TCP sequence-number traces for two burstiness profiles.

"TCP traces of two programs that each send at 400Kb/s, but with very
different burstiness characteristics. On the top is a program sending
10 frames per second, and each frame is 40Kb. On the bottom is a
program sending just 1 frame per second, and the frame is 400Kb."
(Frame sizes in kilobits: 5 KB and 50 KB.)
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..apps import VisualizationPipeline
from ..net import KB, kbps, mbps
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment

__all__ = ["run", "check", "trace_for"]


def trace_for(
    fps: float,
    frame_bytes: int,
    seed: int = 0,
    reservation_kbps: float = 600.0,
    window: tuple = (2.0, 3.0),
):
    """One-second (t, cumulative KB) sequence trace of the sender."""
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(30.0),
        contention_rate=mbps(40.0),
        tcp_config=TcpConfig(recovery="reno"),
    )
    sim, gq = dep.sim, dep.gq
    gq.agent.reserve_flows(0, 1, kbps(reservation_kbps))
    app = VisualizationPipeline(
        frame_bytes=frame_bytes, fps=fps, duration=window[1] + 2.0
    )
    gq.world.launch(app.main)
    sim.run(until=window[1] + 8.0)
    # The sender's TCP channel to rank 1 holds the sequence trace.
    channel = gq.world.procs[0].channels[1]
    times, offsets = channel.seq_monitor.as_arrays()
    mask = (times >= window[0]) & (times <= window[1])
    t = times[mask] - window[0]
    seq_kb = offsets[mask] / 1024.0
    if len(seq_kb):
        seq_kb = seq_kb - seq_kb[0]
    return t, seq_kb


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    bandwidth_kbps = 400.0
    window = (2.0, 3.0)
    # Each profile runs with its Table-1 line-1 adequate reservation
    # (500 / 750 Kb/s), so the traces show the *application's* burst
    # structure rather than policer-induced retransmission dribble.
    t_smooth, s_smooth = trace_for(
        fps=10.0, frame_bytes=5 * KB, seed=seed, window=window,
        reservation_kbps=500.0,
    )
    t_bursty, s_bursty = trace_for(
        fps=1.0, frame_bytes=50 * KB, seed=seed, window=window,
        reservation_kbps=750.0,
    )

    def largest_jump(t, s, dt=0.05):
        """Max KB transmitted within any dt window (burst metric)."""
        if len(t) < 2:
            return 0.0
        best = 0.0
        j = 0
        for i in range(len(t)):
            while t[i] - t[j] > dt:
                j += 1
            best = max(best, s[i] - s[j])
        return float(best)

    result = ExperimentResult(
        experiment="fig7",
        description="sequence traces at 400 Kb/s: 10 fps x 5 KB vs "
        "1 fps x 50 KB",
        headers=["profile", "bytes_in_window_kb", "max_burst_kb_per_50ms"],
        rows=[
            ["10fps x 40Kb", float(s_smooth[-1]) if len(s_smooth) else 0.0,
             largest_jump(t_smooth, s_smooth)],
            ["1fps x 400Kb", float(s_bursty[-1]) if len(s_bursty) else 0.0,
             largest_jump(t_bursty, s_bursty)],
        ],
        series={
            "10fps": (t_smooth, s_smooth),
            "1fps": (t_bursty, s_bursty),
        },
        extra={"bandwidth_kbps": bandwidth_kbps},
    )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Figure 7's claims, one message per claim the result breaks: the
    two profiles send the same volume, the 1 fps one "in one much
    larger burst", the 10 fps one in bursts of about a frame."""
    (_, smooth, smooth_peak), (_, bursty, bursty_peak) = result.rows
    claims = [
        (0.5 * smooth <= bursty <= 2.0 * smooth,
         f"1 fps {bursty:.1f} KB within 0.5-2 x 10 fps {smooth:.1f} KB"),
        (bursty_peak > 3.0 * smooth_peak,
         f"1 fps peak {bursty_peak:.1f} KB > 3 x 10 fps {smooth_peak:.1f}"),
        (smooth_peak < 10.0, f"10 fps peak {smooth_peak:.1f} KB < 10"),
    ]
    return [f"fig7: {claim} fails" for holds, claim in claims if not holds]
