"""The frozen names: workloads, end-to-end metrics, per-layer metrics.

Every later performance or simplicity PR is accepted or rejected on
these names, so they live in one place. ``BENCHMARK.json`` at the repo
root is this module rendered to the driver's schema; the self-test
fails if the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "RUN_SECONDS", "WORKLOADS", "END_TO_END", "SUPPORTING", "NATIVE",
    "LAYERS", "PER_LAYER", "benchmark_json",
]

#: How long one invocation measures (the driver's ``--seconds``).
RUN_SECONDS = 10

#: name -> why it is here (one line; also BENCHMARK.json's ``why``).
WORKLOADS: Dict[str, str] = {
    "fig1_tcp": (
        "Paper Fig 1, the reference datapath: policed TCP Reno against "
        "UDP contention (net, transport.tcp, diffserv, kernel); aqm and "
        "telemetry bypassed."
    ),
    "fig1_telemetry": (
        "Same input with the runner's telemetry session installed, then "
        "collect + JSON/CSV export: the telemetry-on price of the "
        "build-run-collect-export path users get from --out."
    ),
    "aqm_l4s": (
        "One table1_l4s cell under wred+ecn, codel, pie and dualpi2: "
        "dequeue-time drop/mark machinery, sojourn stamps, ECN/DCTCP; "
        "the only workload where aqm is not 0."
    ),
    "mpi_stencil": (
        "Paper section 3 app: 16-rank finite difference with a premium "
        "QoS attribute on the WAN communicator; small halos + allreduce, "
        "so transport.tcp, mpi and kernel.process dominate, net is small."
    ),
    "garnet_grid": (
        "8x42 GARNET grid, 32k flows, one shard: bare forwarding at "
        "scale with a deep heap and a big topology build, no TCP; the "
        "PDES bypass (1 window, 0 boundary messages)."
    ),
    "garnet_grid_2shard": (
        "Identical grid through repro.pdes on 2 shards: lockstep windows, "
        "pickled boundary messages, duplicated build; timed in-process, "
        "forked once in the traced pass for pdes.fork_wall_s and pdes.cpu_s."
    ),
    "broker_open": (
        "Real broker daemon, one connection, open loop of single-request "
        "frames (40% rsv / 40% can / 10% clm / 10% mod) at fixed rates, "
        "then saturation: per-frame cost and server pauses; latency."
    ),
    "broker_batch": (
        "Fresh GARNET daemon per repeat, closed loop of reserve+cancel pairs "
        "in 256-pair batch frames: 4-hop admission + double journaling "
        "dominate, per-frame cost vanishes; key cache and journals grow."
    ),
}

#: (name, unit, better, bound). The bound is the share of the parent's
#: median by which a change may worsen the metric; calibrated from the
#: inter-run spreads recorded in README.md (bound >= 3 x spread).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sat_rps", "1/s", "higher", 0.25),
    ("admissions_per_s", "1/s", "higher", 0.25),
]

#: Demoted: the issue names these three as end-to-end metrics, but on
#: the reference box their inter-run spread is 30-110% of the median
#: (stop-the-world pauses whose length doubles with host noise), far
#: outside any admissible bound. Following the issue's own rule they
#: are supporting numbers: printed and stored by every untraced
#: ``broker_open`` run, and reported by the traced pass as
#: ``loadgen.lat_*``, without a bound.
SUPPORTING: List[Tuple[str, str, str]] = [
    ("lat_p50_ms", "ms", "lower"),
    ("lat_p99_ms", "ms", "lower"),
    ("lat_p99_ms_hi", "ms", "lower"),
]

#: Which workloads measure each end-to-end metric directly. The driver
#: requires every workload to emit every metric, so a workload reports
#: a non-native metric as an alias of its own headline time (see
#: README.md, "Aliased cells"); only native cells carry information.
NATIVE: Dict[str, Tuple[str, ...]] = {
    "wall_s": tuple(WORKLOADS),
    "setup_s": tuple(WORKLOADS),
    "peak_rss_mb": tuple(WORKLOADS),
    "sat_rps": ("broker_open",),
    "admissions_per_s": ("broker_batch",),
}

#: The 24 layers: this repo's packages (kernel, transport and
#: broker_service split where one package hides two costs).
LAYERS: Tuple[str, ...] = (
    "kernel.loop", "kernel.heap", "kernel.process", "net", "diffserv",
    "aqm", "transport.tcp", "transport.udp", "mpi", "core", "cpu", "apps",
    "gara", "resilience", "broker_service.server", "broker_service.codec",
    "broker_service.io", "pdes", "pdes.serialize", "telemetry", "slo",
    "faults", "experiments", "other",
)

_COUNTS: List[Tuple[str, str, str]] = [
    # Work, failure and useful-outcome counts.
    ("kernel.events", "count", "lower"),
    ("kernel.events_credited", "count", "lower"),
    ("net.tx_packets", "count", "lower"),
    ("net.tx_bytes", "count", "lower"),
    ("net.qdisc_drops", "count", "lower"),
    ("net.other_drops", "count", "lower"),
    ("diffserv.policed_drops", "count", "lower"),
    ("diffserv.conforming_frac", "frac", "higher"),
    ("aqm.ecn_marks", "count", "lower"),
    ("aqm.early_drops", "count", "lower"),
    ("aqm.tail_drops", "count", "lower"),
    ("transport.tcp.segments_sent", "count", "lower"),
    ("transport.tcp.retransmits", "count", "lower"),
    ("transport.tcp.timeouts", "count", "lower"),
    ("transport.tcp.goodput_frac", "frac", "higher"),
    ("mpi.messages", "count", "lower"),
    ("mpi.bytes", "count", "lower"),
    ("gara.admissions", "count", "higher"),
    ("gara.rejections", "count", "lower"),
    ("resilience.journal_records", "count", "lower"),
    ("broker_service.frames", "count", "lower"),
    ("broker_service.requests", "count", "lower"),
    ("broker_service.busy_replies", "count", "lower"),
    ("broker_service.queue_high_water", "count", "lower"),
    ("broker_service.idempotent_replays", "count", "lower"),
    ("pdes.windows", "count", "lower"),
    ("pdes.boundary_messages", "count", "lower"),
    ("pdes.shard_imbalance", "x", "lower"),
    ("pdes.fork_wall_s", "s", "lower"),
    ("pdes.cpu_s", "s", "lower"),
    ("telemetry.metrics", "count", "higher"),
    ("telemetry.span_events", "count", "higher"),
    ("telemetry.export_bytes", "count", "lower"),
    # Phase spans recorded by gqbench around the public calls.
    ("phase.build_s", "s", "lower"),
    ("phase.run_s", "s", "lower"),
    ("phase.collect_s", "s", "lower"),
    ("phase.export_s", "s", "lower"),
    # Load generator, tracer and host.
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.cpu_frac", "frac", "lower"),
    ("loadgen.reply_gap_max_ms", "ms", "lower"),
    ("loadgen.ok_rps", "1/s", "higher"),
    ("loadgen.lat_p50_ms.ref", "ms", "lower"),
    ("loadgen.lat_p99_ms.ref", "ms", "lower"),
    ("loadgen.lat_p999_ms.ref", "ms", "lower"),
    ("loadgen.lat_p99_ms.lo", "ms", "lower"),
    ("loadgen.lat_p50_ms.hi", "ms", "lower"),
    ("loadgen.lat_p99_ms.hi", "ms", "lower"),
    ("trace.overhead_x", "x", "lower"),
    ("trace.coverage", "frac", "higher"),
    ("host.calib_s", "s", "lower"),
    ("host.loadavg", "count", "lower"),
]

#: The 99 per-layer metrics of the ``--trace`` pass: self time and call
#: count per layer, then the counts above. No bounds.
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + _COUNTS
)


def benchmark_json() -> dict:
    """This module in the driver's ``BENCHMARK.json`` schema."""
    return {
        "command": ["python3", "-m", "gqbench", "run"],
        "paths": ["gqbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
