"""Figure 5: ping-pong throughput versus reservation size.

"Figure 5 shows the one-way throughput obtained by this program as a
function of reservation size, for four different message sizes, in the
face of heavy contention. ... the achieved throughput improves as the
applied reservation increases until the reservation is 'adequate' for
the message size in question, after which further increases in
reservation size have no significant impact" (§5.2).

Message sizes follow the paper's legend (8/40/80/120 Kb — kilobits).
The total reservation is twice the plotted one-way value because both
directions are reserved, exactly as the paper notes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps import PingPong
from ..net import kbps, mbps
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment

__all__ = ["run", "check", "measure_point", "MESSAGE_SIZES_BITS"]

#: The paper's message sizes, in bits (its "Kb messages" legend).
MESSAGE_SIZES_BITS = (8_000, 40_000, 80_000, 120_000)

#: Reservation sweep in Kb/s (one-way), paper x-axis 0..12000.
FULL_RESERVATIONS = (250, 500, 750, 1000, 1500, 2000, 3000, 4000,
                     6000, 8000, 10000, 12000)
QUICK_RESERVATIONS = (500, 2000, 6000, 12000)


def measure_point(
    message_bits: int,
    reservation_kbps: float,
    seed: int = 0,
    duration: float = 3.0,
    contention_rate: float = mbps(40.0),
    backbone_bandwidth: float = mbps(30.0),
) -> float:
    """One data point: measured one-way throughput in Kb/s."""
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=backbone_bandwidth,
        contention_rate=contention_rate,
        tcp_config=TcpConfig(recovery="reno"),
    )
    sim, gq = dep.sim, dep.gq
    if reservation_kbps > 0:
        # One reservation per direction (total = 2x, as in the paper).
        gq.agent.reserve_flows(0, 1, kbps(reservation_kbps))
        gq.agent.reserve_flows(1, 0, kbps(reservation_kbps))
    app = PingPong(message_bytes=message_bits // 8, duration=duration)
    gq.world.launch(app.main)
    hard_stop = duration * 4 + 5.0
    sim.run(until=hard_stop)
    delivered = app.result.delivered
    if delivered is None or app.result.started_at == 0.0 and not delivered.times:
        return 0.0
    t0 = app.result.started_at
    t1 = min(sim.now, t0 + duration)
    if t1 <= t0:
        return 0.0
    return delivered.rate_over(t0, t1) * 8.0 / 1e3


def run(
    quick: bool = False,
    seed: int = 0,
    reservations_kbps: Optional[Sequence[float]] = None,
    message_sizes_bits: Optional[Sequence[int]] = None,
    duration: Optional[float] = None,
) -> ExperimentResult:
    if reservations_kbps is None:
        reservations_kbps = QUICK_RESERVATIONS if quick else FULL_RESERVATIONS
    if message_sizes_bits is None:
        message_sizes_bits = (
            MESSAGE_SIZES_BITS[::3] if quick else MESSAGE_SIZES_BITS
        )
    if duration is None:
        duration = 1.5 if quick else 3.0

    result = ExperimentResult(
        experiment="fig5",
        description="ping-pong one-way throughput vs reservation, under "
        "heavy UDP contention",
        headers=["message_kbits", "reservation_kbps", "throughput_kbps"],
    )
    for message_bits in message_sizes_bits:
        xs, ys = [], []
        for reservation in reservations_kbps:
            throughput = measure_point(
                message_bits, reservation, seed=seed, duration=duration
            )
            result.rows.append(
                [message_bits // 1000, reservation, throughput]
            )
            xs.append(reservation)
            ys.append(throughput)
        result.series[f"{message_bits // 1000}Kb"] = (
            np.asarray(xs, dtype=float),
            np.asarray(ys, dtype=float),
        )
    return result


def check(result: ExperimentResult) -> List[str]:
    """Figure 5's claims (§5.2), one message per claim the result
    breaks: throughput rises with the reservation, then flattens (a 2%
    dip is noise); bigger messages reach a higher plateau, the largest
    over twice the smallest's; the smallest message is near its plateau
    by 2000 Kb/s; a deeply inadequate reservation delivers well under
    its own size. Throughputs are in Kb/s."""
    curves: Dict[int, Dict[float, float]] = {}
    for message_kbits, reservation, throughput in sorted(result.rows):
        curves.setdefault(message_kbits, {})[reservation] = throughput
    claims = []
    for message_kbits, curve in sorted(curves.items()):
        ys = list(curve.values())
        claims.append((
            all(b >= 0.98 * a for a, b in zip(ys, ys[1:])),
            f"{message_kbits} Kb {[round(y) for y in ys]} rises",
        ))
    plateaus = [max(curve.values()) for _, curve in sorted(curves.items())]
    smallest, largest = curves[min(curves)], curves[max(curves)]
    lowest = min(largest)
    claims += [
        (all(a < b for a, b in zip(plateaus, plateaus[1:]))
         and plateaus[-1] > 2.0 * plateaus[0],
         f"plateaus {[round(p) for p in plateaus]} rise, last > 2x first"),
        (smallest[2000] > 0.4 * plateaus[0],
         f"smallest message at 2000 Kb/s {smallest[2000]:.0f} "
         f"> 0.4 x its plateau {plateaus[0]:.0f}"),
        (largest[lowest] < 0.7 * lowest,
         f"largest message at {lowest} Kb/s {largest[lowest]:.0f} "
         f"< 0.7 x {lowest}"),
    ]
    return [f"fig5: {claim} fails" for holds, claim in claims if not holds]
