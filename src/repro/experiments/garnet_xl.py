"""Grid-scale GARNET: 1,000 routers, 100k DiffServ flows, shardable.

The paper's testbed is seven nodes; the digital-twin target the PDES
layer exists for is a metropolitan-scale DiffServ mesh. This
experiment runs the :mod:`repro.pdes` ``garnet_xl`` scenario — a
25x40 router grid with one host per router, strict-priority DiffServ
egress, 100k short premium/assured/best-effort flows plus standing
best-effort background bursts — optionally partitioned over worker
processes (``--shards N``), and reports the per-class delivery and
latency table. The merged output is byte-identical for every shard
count, so the result is the same whether it ran serially or sharded;
how it ran (shards, backend, per-shard events, windows, boundary
messages, wall time) is in the run record the executor keeps.

``--quick`` swaps in a 10x10 grid with 5k flows (same class mix and
merge path) so smoke runs finish in about a second.
"""

from __future__ import annotations

from ..pdes import run_scenario
from .common import ExperimentResult

__all__ = ["run"]

_QUICK_PARAMS = {
    "rows": 10,
    "cols": 10,
    "n_flows": 5_000,
    "bg_flows": 20,
    "duration": 0.6,
}


def run(
    quick: bool = False,
    seed: int = 0,
    shards: int = 1,
    backend: str = "auto",
) -> ExperimentResult:
    params = dict(_QUICK_PARAMS) if quick else None
    result = run_scenario(
        "garnet_xl", seed=seed, shards=shards, backend=backend, params=params
    )
    merged = result.merged
    rows = []
    for dscp in sorted(merged["classes"], key=int):
        cls = merged["classes"][dscp]
        lat = merged["latency"].get(dscp)
        rows.append([
            int(dscp),
            cls["tx_datagrams"],
            cls["rx_datagrams"],
            round(lat["p50"] * 1e3, 4) if lat else None,
            round(lat["p99"] * 1e3, 4) if lat else None,
            round(lat["max"] * 1e3, 4) if lat else None,
        ])
    grid = "10x10" if quick else "25x40"
    return ExperimentResult(
        experiment="garnet_xl",
        description=f"{grid} GARNET grid under 3-class DiffServ load",
        headers=[
            "dscp", "tx_datagrams", "rx_datagrams",
            "p50_ms", "p99_ms", "max_ms",
        ],
        rows=rows,
        extra={
            "total_events": result.total_events,
            "qdisc_drops": merged["qdisc_drops"],
            "route_ttl_drops": merged["route_ttl_drops"],
        },
    )
