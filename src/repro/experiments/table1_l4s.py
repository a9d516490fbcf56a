"""The burstiness grid under modern congestion signaling (L4S study).

Companion to :mod:`.table1_aqm`: the same undersized-reservation grid
(``RES_FACTOR`` of the target rate), but pitting the 1998-era
WRED+ECN baseline against the modern AQM family on the AF band:

* ``wred+ecn`` — the :mod:`.table1_aqm` reference point (RFC 3168 ECN
  over per-precedence WRED curves);
* ``codel`` — RFC 8289 sojourn-time control, head drop/mark at
  dequeue;
* ``pie`` — RFC 8033 proportional-integral probability on queue
  latency;
* ``dualpi2`` — RFC 9332 coupled dual queue, paired with the matching
  modern *transport*: DCTCP-style proportional ECN response over
  ECT(1) (so the data rides the L queue) and CUBIC growth.

The first three run the same period-correct Reno/RFC 3168 transport as
``table1_aqm`` so differences isolate the *qdisc*; the ``dualpi2`` row
is deliberately the full modern stack, because L4S only delivers its
latency story when a scalable sender feeds the L queue. The headline
column is ``queue_delay_ms`` — the AF band's mean per-packet sojourn —
next to the achieved throughput: the modern qdiscs should hold the
standing queue near their targets where WRED rides its curve knee.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..aqm import AqmPolicy
from ..apps import VisualizationPipeline
from ..net import kbps, mbps
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment
from .table1_aqm import RES_FACTOR
from .table1_burstiness import grid_cells

__all__ = ["run", "measure_cell", "plan_cells", "MODES"]

#: The mode grid: the WRED+ECN baseline plus the modern family.
MODES = ("wred+ecn", "codel", "pie", "dualpi2")


def _tcp_config(mode: str) -> TcpConfig:
    if mode == "dualpi2":
        # The L4S pairing: scalable DCTCP response + CUBIC growth.
        return TcpConfig(
            min_rto=0.3,
            ecn=True,
            ecn_response="dctcp",
            cc="cubic",
        )
    # Period-correct transport, identical to table1_aqm's, so the
    # classic-AQM rows isolate the queue discipline.
    return TcpConfig(recovery="reno", min_rto=0.3, ecn=True)


def measure_cell(
    bandwidth_kbps: float,
    fps: float,
    bucket_divisor: float,
    mode: str,
    seed: int = 0,
    duration: float = 8.0,
) -> Dict[str, float]:
    """One grid cell under one mode (deployment recipe as table1_aqm)."""
    aqm = AqmPolicy(mode=mode)
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(30.0),
        contention_rate=mbps(40.0),
        tcp_config=_tcp_config(mode),
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

    resent = timeouts = ce = responses = 0
    from ..net.packet import PROTO_TCP

    for proc in gq.world.procs:
        layer = proc.host.protocols.get(PROTO_TCP)
        if layer is None:
            continue
        for conn in layer._connections.values():
            resent += conn.resent_segments
            timeouts += conn.timeouts
            ce += conn.ecn_ce_received
            responses += conn.ecn_responses
    early = tail = marks = 0
    sojourn_sum = 0.0
    sojourn_count = 0
    for qdisc in gq.domain.priority_qdiscs:
        bands = getattr(qdisc, "bands", None)
        if bands is None or callable(bands):
            continue
        for band in bands:
            early += getattr(band, "early_drops", 0)
            tail += getattr(band, "tail_drops", 0)
            marks += getattr(band, "ecn_marks", 0)
            sojourn_sum += getattr(band, "sojourn_sum", 0.0)
            sojourn_count += getattr(band, "sojourn_count", 0)
    queue_delay_ms = (
        sojourn_sum / sojourn_count * 1e3 if sojourn_count else 0.0
    )
    return {
        "reservation_kbps": reservation_kbps,
        "throughput_kbps": throughput,
        "resent_segments": resent,
        "timeouts": timeouts,
        "early_drops": early,
        "tail_drops": tail,
        "ecn_marks": marks,
        "ce_received": ce,
        "ecn_responses": responses,
        "queue_delay_ms": queue_delay_ms,
    }


def plan_cells(
    quick: bool = False,
    bandwidths_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
) -> List[Tuple[Tuple[float, str, str], dict]]:
    """The grid as independent jobs, keyed ``(bandwidth, config, mode)``
    — the same contract as :func:`repro.experiments.table1_aqm.plan_cells`."""
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
    """Produce the L4S/modern-AQM comparison table."""
    plan = plan_cells(quick, bandwidths_kbps, duration)
    if cell_results is None:
        cell_results = {
            key: measure_cell(seed=seed, **kwargs) for key, kwargs in plan
        }

    result = ExperimentResult(
        experiment="table1_l4s",
        description=f"Table 1 grid at {RES_FACTOR:.0%} reservation: "
        "WRED+ECN vs CoDel vs PIE vs DualPI2+DCTCP",
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
            "queue_delay_ms",
        ],
    )
    totals = {
        mode: {
            "resent": 0,
            "timeouts": 0,
            "throughput": 0.0,
            "delay_sum": 0.0,
            "cells": 0,
        }
        for mode in MODES
    }
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
        totals[mode]["delay_sum"] += cell["queue_delay_ms"]
        totals[mode]["cells"] += 1
    for mode in MODES:
        key = mode.replace("+", "_")
        t = totals[mode]
        result.extra[f"{key}_resent_segments"] = t["resent"]
        result.extra[f"{key}_timeouts"] = t["timeouts"]
        result.extra[f"{key}_total_throughput_kbps"] = t["throughput"]
        result.extra[f"{key}_mean_queue_delay_ms"] = (
            t["delay_sum"] / t["cells"] if t["cells"] else 0.0
        )
    return result
