"""Table 1: reservation required versus burstiness and bucket size.

"The reservation required to achieve a specified throughput, for
varying degrees of 'burstiness' (expressed in frames per second) and
token bucket sizes. ... with the normal depth, the very bursty
configurations needs an approximately 50% larger reservation" (§5.4).

Paper's table (Kb/s):

    bandwidth | normal bucket, 10 fps | normal, 1 fps | large, 1 fps
       400    |          500          |      750      |     500
       800    |          900          |     1450      |     900
      1600    |         1700          |     2700      |    1700
      2400    |         2500          |     3600      |    2500

We reproduce the procedure: for each cell, find the minimum reservation
at which the visualization application achieves (>= 95% of) its target
throughput, by bisection over the reservation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..diffserv.token_bucket import LARGE_DEPTH_DIVISOR, NORMAL_DEPTH_DIVISOR
from ..net import KB
from .common import ExperimentResult
from .fig6_visualization import measure_point

__all__ = ["run", "check", "required_reservation", "plan_cells", "grid_cells"]

FULL_BANDWIDTHS = (400, 800, 1600, 2400)
QUICK_BANDWIDTHS = (400, 1600)

#: The three table columns: (label, fps, bucket divisor).
CONFIGS = (
    ("normal_10fps", 10.0, NORMAL_DEPTH_DIVISOR),
    ("normal_1fps", 1.0, NORMAL_DEPTH_DIVISOR),
    ("large_1fps", 1.0, LARGE_DEPTH_DIVISOR),
)


def required_reservation(
    bandwidth_kbps: float,
    fps: float,
    bucket_divisor: float,
    seed: int = 0,
    duration: float = 8.0,
    threshold: float = 0.95,
    resolution_kbps: float = 50.0,
    max_factor: float = 3.0,
) -> float:
    """Minimum adequate reservation (Kb/s) by bisection."""
    frame_bytes = int(bandwidth_kbps * 1e3 / fps / 8.0)
    target = bandwidth_kbps

    def adequate(reservation: float) -> bool:
        achieved = measure_point(
            frame_kb=frame_bytes / KB,
            reservation_kbps=reservation,
            seed=seed,
            duration=duration,
            fps=fps,
            bucket_divisor=bucket_divisor,
        )
        return achieved >= threshold * target

    lo, hi = target, target * max_factor
    if not adequate(hi):
        return float("nan")  # never adequate within the search range
    if adequate(lo):
        return lo
    while hi - lo > resolution_kbps:
        mid = (lo + hi) / 2.0
        if adequate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def grid_cells(
    quick: bool,
    bandwidths_kbps: Optional[Sequence[float]],
    duration: Optional[float],
) -> Iterator[Tuple[float, str, dict]]:
    """Walk the burstiness grid every Table 1 variant measures.

    Yields ``(bandwidth_kbps, config_label, kwargs)`` with the
    ``bandwidth_kbps / fps / bucket_divisor / duration`` keywords all
    their cell functions share.
    """
    if bandwidths_kbps is None:
        bandwidths_kbps = QUICK_BANDWIDTHS if quick else FULL_BANDWIDTHS
    if duration is None:
        duration = 5.0 if quick else 8.0
    for bandwidth in bandwidths_kbps:
        for label, fps, divisor in CONFIGS:
            yield bandwidth, label, dict(
                bandwidth_kbps=bandwidth,
                fps=fps,
                bucket_divisor=divisor,
                duration=duration,
            )


def plan_cells(
    quick: bool = False,
    bandwidths_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
) -> List[Tuple[Tuple[float, str], dict]]:
    """The table's cells as independent bisection jobs.

    Returns ``[(key, required_reservation_kwargs), ...]`` with ``key``
    ``(bandwidth_kbps, config_label)``. Each cell's bisection is
    internally sequential but cells are independent — each probe
    builds a fresh deployment from the seed — so :func:`run` assembles
    the same table from values measured anywhere.
    """
    resolution = 100.0 if quick else 50.0
    return [
        ((bandwidth, label), dict(kwargs, resolution_kbps=resolution))
        for bandwidth, label, kwargs in grid_cells(
            quick, bandwidths_kbps, duration
        )
    ]


def run(
    quick: bool = False,
    seed: int = 0,
    bandwidths_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
    cell_results: Optional[Dict[Tuple[float, str], float]] = None,
) -> ExperimentResult:
    """Produce the Table 1 result.

    ``cell_results`` supplies cell values measured elsewhere (keyed as
    in :func:`plan_cells`); without it the plan is measured here.
    """
    plan = plan_cells(quick, bandwidths_kbps, duration)
    if cell_results is None:
        cell_results = {
            key: required_reservation(seed=seed, **kwargs)
            for key, kwargs in plan
        }

    result = ExperimentResult(
        experiment="table1",
        description="reservation required for target throughput vs "
        "burstiness and bucket depth",
        headers=[
            "bandwidth_kbps",
            "normal_10fps",
            "normal_1fps",
            "large_1fps",
        ],
    )
    rows: Dict[float, list] = {}
    for key, _ in plan:
        bandwidth = key[0]
        rows.setdefault(bandwidth, [bandwidth]).append(cell_results[key])
    result.rows = list(rows.values())
    # Headline ratios the paper calls out.
    ratios = [
        row[2] / row[1]
        for row in result.rows
        if row[1] == row[1] and row[2] == row[2] and row[1] > 0
    ]
    if ratios:
        result.extra["bursty_over_smooth_ratio"] = sum(ratios) / len(ratios)
    return result


def check(result: ExperimentResult) -> List[str]:
    """Table 1's claims (§5.4), one message per row and claim the result
    breaks: every cell is adequate somewhere in the search range (NaN
    is not); the smooth profile needs a modest margin; the bursty one
    with the normal bucket clearly more; the large bucket erases that
    penalty."""
    claims = []
    for bandwidth, smooth, bursty, large in result.rows:
        row = f"{bandwidth} Kb/s row"
        claims += [
            (all(cell == cell for cell in (smooth, bursty, large)),
             f"{row}: no NaN in {smooth}, {bursty}, {large}"),
            (smooth <= 1.5 * bandwidth,
             f"{row}: smooth {smooth} <= 1.5 x {bandwidth}"),
            (bursty >= 1.15 * smooth,
             f"{row}: bursty {bursty} >= 1.15 x smooth {smooth}"),
            (large <= 1.05 * smooth,
             f"{row}: large bucket {large} <= 1.05 x smooth {smooth}"),
        ]
    return [f"table1: {claim} fails" for holds, claim in claims if not holds]
