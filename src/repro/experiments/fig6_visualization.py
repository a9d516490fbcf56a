"""Figure 6: the visualization application versus reservation size.

"Figure 6 shows the throughput achieved by this program as a function
of reservation size for frame sizes of 5, 10, 20, and 30 KB. (The rate
was fixed at 10 frames per second.) ... in contrast to the ping-pong
case, we see that the performance at lower reservations is
significantly worse than we would expect from simple scaling. This
effect is due to TCP congestion control strategies. We also see that
we require a reservation value of around 1.06 of the sending rate,
because of TCP packet overheads" (§5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps import VisualizationPipeline
from ..net import KB, kbps, mbps
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment

__all__ = ["run", "check", "measure_point", "plan_points", "FRAME_SIZES_KB"]

#: Paper frame sizes (KB) at 10 fps -> 400/800/1600/2400 Kb/s targets.
FRAME_SIZES_KB = (5, 10, 20, 30)

FULL_RESERVATIONS = (100, 200, 300, 400, 500, 600, 800, 1000, 1200,
                     1400, 1600, 1800, 2000, 2200, 2400, 2600)
QUICK_RESERVATIONS = (200, 800, 1700, 2600)


def measure_point(
    frame_kb: int,
    reservation_kbps: float,
    seed: int = 0,
    duration: float = 10.0,
    fps: float = 10.0,
    contention_rate: float = mbps(40.0),
    bucket_divisor: Optional[float] = None,
    shaped: bool = False,
) -> float:
    """Achieved visualization bandwidth (Kb/s) for one reservation."""
    # Period-correct TCP: Reno recovery with a 300 ms RTO floor
    # (between Linux 2.2's 200 ms and RFC 2988's 1 s). The RTO floor is
    # what turns a burst of policer drops into a missed frame interval:
    # with a very low floor the sender recovers within milliseconds and
    # Table 1's burstiness penalty disappears; with a full second it
    # never recovers inside the frame interval at all. 300 ms lands the
    # penalty in the paper's "approximately 50% larger reservation"
    # regime.
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(30.0),
        contention_rate=contention_rate,
        tcp_config=TcpConfig(recovery="reno", min_rto=0.3),
    )
    sim, gq = dep.sim, dep.gq
    if reservation_kbps > 0:
        gq.agent.reserve_flows(
            0, 1, kbps(reservation_kbps), bucket_divisor=bucket_divisor
        )
    if shaped:
        # §5.4's alternative: end-system shaping inside the MPI
        # implementation, pacing the wire traffic itself.
        gq.enable_end_system_shaping(
            0, 1, rate=kbps(reservation_kbps) * 0.94, depth_bytes=8 * KB
        )
    app = VisualizationPipeline(
        frame_bytes=int(frame_kb * KB), fps=fps, duration=duration
    )
    gq.world.launch(app.main)
    sim.run(until=duration * 4 + 5.0)
    if app.delivered is None:
        return 0.0
    # Skip the first second (slow start), stop at the nominal end.
    return app.achieved_bandwidth_kbps(1.0, duration)


def plan_points(
    quick: bool = False,
    frame_sizes_kb: Optional[Sequence[int]] = None,
    reservations_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
) -> List[Tuple[Tuple[int, float], dict]]:
    """The measurement grid as independent jobs.

    Returns ``[(key, measure_point_kwargs), ...]`` where ``key`` is
    ``(frame_kb, reservation_kbps)``. Each grid point builds its own
    deployment from the seed, so evaluation order (or process) cannot
    matter: :func:`run` assembles the same result from values measured
    anywhere.
    """
    if frame_sizes_kb is None:
        frame_sizes_kb = FRAME_SIZES_KB[::3] if quick else FRAME_SIZES_KB
    if reservations_kbps is None:
        reservations_kbps = QUICK_RESERVATIONS if quick else FULL_RESERVATIONS
    if duration is None:
        duration = 4.0 if quick else 10.0
    return [
        (
            (frame_kb, reservation),
            dict(
                frame_kb=frame_kb,
                reservation_kbps=reservation,
                duration=duration,
            ),
        )
        for frame_kb in frame_sizes_kb
        for reservation in reservations_kbps
    ]


def run(
    quick: bool = False,
    seed: int = 0,
    frame_sizes_kb: Optional[Sequence[int]] = None,
    reservations_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
    cell_results: Optional[Dict[Tuple[int, float], float]] = None,
) -> ExperimentResult:
    """Produce the Figure 6 result.

    ``cell_results`` supplies grid values measured elsewhere (keyed as
    in :func:`plan_points`); without it the plan is measured here.
    """
    plan = plan_points(quick, frame_sizes_kb, reservations_kbps, duration)
    if cell_results is None:
        cell_results = {
            key: measure_point(seed=seed, **kwargs) for key, kwargs in plan
        }

    result = ExperimentResult(
        experiment="fig6",
        description="visualization app (10 fps) throughput vs reservation",
        headers=["target_kbps", "reservation_kbps", "throughput_kbps"],
    )
    curves: Dict[str, Tuple[list, list]] = {}
    for key, _ in plan:
        frame_kb, reservation = key
        target = frame_kb * KB * 8 * 10 / 1e3
        throughput = cell_results[key]
        result.rows.append([target, reservation, throughput])
        xs, ys = curves.setdefault(f"{target:.0f}Kb/s", ([], []))
        xs.append(reservation)
        ys.append(throughput)
    for name, (xs, ys) in curves.items():
        result.series[name] = (
            np.asarray(xs, dtype=float),
            np.asarray(ys, dtype=float),
        )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Figure 6's claims (§5.3), one message per grid point that breaks
    them: a reservation of about 1.06x the sending rate delivers it in
    full, while any reservation below the rate collapses throughput
    under 0.65x the target (TCP backoff, not a proportional loss) and
    under the reservation itself (worse than simple scaling)."""
    claims = []
    for target, reservation, throughput in result.rows:
        point = f"{target:.0f} Kb/s target at {reservation} Kb/s reserved"
        if reservation >= 1.05 * target:
            claims.append((throughput > 0.95 * target,
                           f"{point}: {throughput:.0f} > 0.95 x target"))
        elif reservation < target:
            claims.append((throughput < min(0.65 * target, reservation),
                           f"{point}: {throughput:.0f} < 0.65 x target "
                           f"and < reserved"))
    return [f"fig6: {claim} fails" for holds, claim in claims if not holds]
