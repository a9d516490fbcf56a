"""Table 1 revisited under active queue management.

A beyond-paper ablation: the Table 1 burstiness grid is rerun with the
reservation deliberately *undersized* (``RES_FACTOR`` of the target
rate — the oversubscribed regime §5.4 warns about) under three domain
configurations:

* ``droptail`` — the paper's strict-priority + policer setup, built
  through exactly the pre-AQM code path;
* ``wred`` — premium excess is three-color-remarked into a WRED'd
  assured band with a small bounded DRR share;
* ``wred+ecn`` — same, but WRED marks CE instead of dropping and the
  transport negotiates RFC 3168 ECN.

Where the paper's configuration turns an undersized reservation into
policer drops, RTO timeouts, and go-back-N resends, the AQM modes keep
the excess flowing: WRED converts bursts into early drops the sender
repairs cheaply, and WRED+ECN signals congestion with no loss at all.
The interesting columns are the resent segments and timeouts next to
the achieved throughput.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..aqm import AqmPolicy
from ..apps import VisualizationPipeline
from ..net import KB, kbps, mbps
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment
from .table1_burstiness import grid_cells

__all__ = ["run", "measure_cell", "plan_cells", "RES_FACTOR", "MODES"]

#: This experiment's fixed mode grid. Deliberately *not*
#: ``repro.aqm.AQM_MODES`` — new disciplines joining that registry
#: (CoDel/PIE/DualPI2 live in ``table1_l4s``) must not silently widen
#: this table or shift its pinned outputs.
MODES = ("droptail", "wred", "wred+ecn")

#: Reservation as a fraction of the application's target rate. 0.6
#: leaves enough excess to exceed the AF band's DRR share on bursty
#: cells, so WRED actually has to arbitrate.
RES_FACTOR = 0.6


def measure_cell(
    bandwidth_kbps: float,
    fps: float,
    bucket_divisor: float,
    mode: str,
    seed: int = 0,
    duration: float = 8.0,
) -> Dict[str, float]:
    """One grid cell under one AQM mode.

    Same deployment recipe as :func:`..fig6_visualization.measure_point`
    (30 Mb/s backbone, 40 Mb/s UDP contention, period-correct Reno with
    a 300 ms RTO floor), but with the domain's AQM policy switched and
    the loss-recovery cost captured alongside the throughput.
    """
    aqm = None if mode == "droptail" else AqmPolicy(mode=mode)
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(30.0),
        contention_rate=mbps(40.0),
        tcp_config=TcpConfig(
            recovery="reno",
            min_rto=0.3,
            ecn=aqm is not None and aqm.ecn,
        ),
        aqm=aqm,
    )
    sim, gq = dep.sim, dep.gq
    reservation_kbps = bandwidth_kbps * RES_FACTOR
    gq.agent.reserve_flows(
        0, 1, kbps(reservation_kbps), bucket_divisor=bucket_divisor
    )
    frame_bytes = int(bandwidth_kbps * 1e3 / fps / 8.0)
    app = VisualizationPipeline(
        frame_bytes=frame_bytes, fps=fps, duration=duration
    )
    gq.world.launch(app.main)
    sim.run(until=duration * 4 + 5.0)
    throughput = (
        app.achieved_bandwidth_kbps(1.0, duration)
        if app.delivered is not None
        else 0.0
    )

    resent = timeouts = ce = 0
    from ..net.packet import PROTO_TCP

    for proc in gq.world.procs:
        layer = proc.host.protocols.get(PROTO_TCP)
        if layer is None:
            continue
        for conn in layer._connections.values():
            resent += conn.resent_segments
            timeouts += conn.timeouts
            ce += conn.ecn_ce_received
    early = tail = marks = 0
    for qdisc in gq.domain.priority_qdiscs:
        bands = getattr(qdisc, "bands", None)
        if bands is None or callable(bands):
            continue
        for band in bands:
            early += getattr(band, "early_drops", 0)
            tail += getattr(band, "tail_drops", 0)
            marks += getattr(band, "ecn_marks", 0)
    return {
        "reservation_kbps": reservation_kbps,
        "throughput_kbps": throughput,
        "resent_segments": resent,
        "timeouts": timeouts,
        "early_drops": early,
        "tail_drops": tail,
        "ecn_marks": marks,
        "ce_received": ce,
    }


def plan_cells(
    quick: bool = False,
    bandwidths_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
) -> List[Tuple[Tuple[float, str, str], dict]]:
    """The grid as independent jobs, keyed ``(bandwidth, config, mode)``.

    Each cell builds a fresh deployment from the seed, so :func:`run`
    assembles the same table from cells measured anywhere.
    """
    return [
        ((bandwidth, label, mode), dict(kwargs, mode=mode))
        for bandwidth, label, kwargs in grid_cells(
            quick, bandwidths_kbps, duration
        )
        for mode in MODES
    ]


def run(
    quick: bool = False,
    seed: int = 0,
    bandwidths_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
    cell_results: Optional[Dict[Tuple[float, str, str], Dict[str, float]]] = None,
) -> ExperimentResult:
    """Produce the AQM-ablation table.

    ``cell_results`` supplies cell measurements made elsewhere (keyed
    as in :func:`plan_cells`); without it the plan is measured here.
    """
    plan = plan_cells(quick, bandwidths_kbps, duration)
    if cell_results is None:
        cell_results = {
            key: measure_cell(seed=seed, **kwargs) for key, kwargs in plan
        }

    result = ExperimentResult(
        experiment="table1_aqm",
        description=f"Table 1 grid at {RES_FACTOR:.0%} reservation: "
        "drop-tail vs WRED vs WRED+ECN",
        headers=[
            "bandwidth_kbps",
            "config",
            "mode",
            "reservation_kbps",
            "throughput_kbps",
            "resent_segments",
            "timeouts",
            "early_drops",
            "tail_drops",
            "ecn_marks",
        ],
    )
    totals = {mode: {"resent": 0, "timeouts": 0, "throughput": 0.0}
              for mode in MODES}
    for key, _ in plan:
        bandwidth, label, mode = key
        cell = cell_results[key]
        result.rows.append(
            [bandwidth, label, mode]
            + [cell[column] for column in result.headers[3:]]
        )
        totals[mode]["resent"] += cell["resent_segments"]
        totals[mode]["timeouts"] += cell["timeouts"]
        totals[mode]["throughput"] += cell["throughput_kbps"]
    for mode in MODES:
        key = mode.replace("+", "_")
        result.extra[f"{key}_resent_segments"] = totals[mode]["resent"]
        result.extra[f"{key}_timeouts"] = totals[mode]["timeouts"]
        result.extra[f"{key}_total_throughput_kbps"] = totals[mode]["throughput"]
    return result
