"""Ablation: the token-bucket depth rule and end-system shaping.

§4.3 derives bucket depth = bandwidth x delay but deploys
bandwidth/40 "to allow for larger bursts"; §5.4 shows even that
failing for a very bursty flow, and proposes to "incorporate
traffic-shaping support into the MPICH-GQ implementation on the
end-system" instead of ever-deeper router buckets. Four cells of
Figure 6's point measurement settle both: a 1 fps flow at 400 Kb/s
against a 550 Kb/s reservation (enough for the smooth 10 fps profile),
unshaped under buckets of bandwidth/400, /40 and /4, and shaped by the
sender under the normal /40 bucket.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .common import ExperimentResult
from .fig6_visualization import measure_point

__all__ = ["run", "check", "plan_cells", "CELLS"]

BANDWIDTH_KBPS = 400.0
RESERVATION_KBPS = 550.0
FRAME_KB = 50_000 / 1024  # 1 fps at 400 Kb/s

#: ``(bucket_divisor, shaped)``: shallow, normal and deep buckets
#: unshaped, then the normal bucket behind end-system shaping.
CELLS = ((400.0, False), (40.0, False), (4.0, False), (40.0, True))


def plan_cells(quick: bool = False) -> List[Tuple[Tuple[float, bool], dict]]:
    """:func:`measure_point` jobs keyed ``(bucket_divisor, shaped)``.
    Every cell is an 8 s run at either scale."""
    return [
        (
            (divisor, shaped),
            dict(
                frame_kb=FRAME_KB,
                reservation_kbps=RESERVATION_KBPS,
                duration=8.0,
                fps=1.0,
                bucket_divisor=divisor,
                shaped=shaped,
            ),
        )
        for divisor, shaped in CELLS
    ]


def run(
    quick: bool = False,
    seed: int = 0,
    cell_results: Optional[Dict[Tuple[float, bool], float]] = None,
) -> ExperimentResult:
    """Produce the bucket-ablation table (one row per cell)."""
    plan = plan_cells(quick)
    if cell_results is None:
        cell_results = {
            key: measure_point(seed=seed, **kwargs) for key, kwargs in plan
        }
    return ExperimentResult(
        experiment="bucket_ablation",
        description=f"1 fps {BANDWIDTH_KBPS:.0f} Kb/s flow at "
        f"{RESERVATION_KBPS:.0f} Kb/s reserved: bucket depth and "
        "end-system shaping",
        headers=["bucket_divisor", "shaped", "throughput_kbps"],
        rows=[[*key, cell_results[key]] for key, _ in plan],
    )


def check(result: ExperimentResult) -> List[str]:
    """§4.3's and §5.4's claims, one message per claim the result
    breaks: deeper buckets never hurt the bursty flow and the ends
    differ dramatically; without shaping the normal bucket misses the
    target, with shaping the same reservation delivers it in full."""
    achieved = {(row[0], row[1]): row[2] for row in result.rows}
    shallow, normal, deep, shaped = (achieved[cell] for cell in CELLS)
    target = BANDWIDTH_KBPS
    claims = [
        (shallow <= normal + 1.0,
         f"/400 bucket {shallow:.1f} <= /40 bucket {normal:.1f} + 1"),
        (normal <= deep + 1.0,
         f"/40 bucket {normal:.1f} <= /4 bucket {deep:.1f} + 1"),
        (deep > 0.9 * target, f"/4 bucket {deep:.1f} > 0.9 x target"),
        (shallow < 0.5 * target,
         f"/400 bucket {shallow:.1f} < 0.5 x target"),
        (normal < 0.9 * target,
         f"unshaped /40 bucket {normal:.1f} < 0.9 x target"),
        (shaped > 0.95 * target,
         f"shaped /40 bucket {shaped:.1f} > 0.95 x target"),
        (shaped > 1.1 * normal,
         f"shaped {shaped:.1f} > 1.1 x unshaped {normal:.1f}"),
    ]
    return [
        f"bucket_ablation: {claim} fails"
        for holds, claim in claims if not holds
    ]
