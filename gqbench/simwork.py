"""The six simulator workloads.

Each workload is the call a user makes — build + run + collect (+
export) — through public entry points only, plus an untimed
``examine`` that turns what the call returned into a digest, shape
checks and work counts. Nothing here pins an event count or an output
value: a later bug-fix PR may legitimately move them and cannot edit
this directory. What is checked is that a seed repeats itself exactly
and that each result has the shape the figure benches assert.

Sizes: ``full`` is what gets timed, ``warm`` is the short untimed
warm-up (shape checks skipped: too short to have a shape), ``smoke`` is
the self-test's size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import (
    MpichGQ, QOS_PREMIUM, QosAttribute, Simulator, garnet, mbps, telemetry,
)
from repro.apps import FiniteDifference
from repro.experiments import fig1_tcp_reservation, runner, table1_l4s
from repro.experiments.table1_burstiness import NORMAL_DEPTH_DIVISOR
from repro.net.packet import PROTO_TCP
from repro.pdes import get_scenario, run_scenario

from .host import scratch_dir

__all__ = ["Outcome", "SIM"]


@dataclass
class Outcome:
    """What one call produced, as the checks and counters see it."""

    events: int
    credited: int
    digest: str
    violations: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def _scrape(registry, gq, prefix: str = "") -> None:
    """``telemetry.collect_mpichgq`` without its qdisc walk.

    ``collect_network`` reads ``.avg`` (a RED-only attribute) off every
    AQM band and raises on CoDel, PIE and DualPI2, so the interface
    counters are read here from the same public attributes and
    published under the same names; AQM counts come from the
    experiment's own cell results instead.
    """
    telemetry.collect_domain(registry, gq.domain, prefix=prefix)
    telemetry.collect_broker(registry, gq.broker, prefix=prefix)
    telemetry.collect_mpi_world(registry, gq.world, prefix=prefix)
    def publish(name: str, value: float) -> None:
        registry.counter(prefix + name).value = float(value)

    # Goodput is delivered bytes over wire bytes, so it counts only the
    # connections that cross the network: ranks sharing a host talk over
    # loopback, which no interface sees.
    hosts = {proc.host.name: proc.host for proc in gq.world.procs}
    crossing = 0.0
    for host in hosts.values():
        telemetry.collect_tcp_host(registry, host, prefix=prefix)
        layer = host.protocols.get(PROTO_TCP)
        for conn in layer._connections.values() if layer else ():
            if conn.remote_addr != host.addr:
                crossing += conn.delivered_counter.total
    publish("tcp.crossing.delivered_bytes", crossing)
    publish("tcp.crossing.wire_bytes", sum(
        iface.tx_bytes for host in hosts.values() for iface in host.interfaces
    ))

    for node in gq.network.nodes.values():
        publish(f"net.{node.name}.ttl_drops", node.ttl_drops)
        publish(f"net.{node.name}.no_route_drops", node.no_route_drops)
        for iface in node.interfaces:
            base = f"net.{node.name}.{iface.name}"
            qdisc = iface.qdisc
            publish(f"{base}.tx_packets", iface.tx_packets)
            publish(f"{base}.tx_bytes", iface.tx_bytes)
            publish(f"{base}.link_down_drops", iface.link_down_drops)
            publish(f"{base}.impairment_drops", iface.impairment_drops)
            publish(f"{base}.qdisc.drops", qdisc.total_drops)
            publish(
                f"{base}.policer.drops",
                getattr(qdisc, "ef_policer_drops", 0)
                + getattr(qdisc, "filter_drops", 0),
            )


class _Recorder(telemetry.Telemetry):
    """Telemetry-off observer: joins the public ``telemetry.install``
    seam so ``build_deployment`` hands over every simulator and
    deployment it builds, but never sets ``sim.telemetry`` — the
    datapath keeps its guard-only (disabled) cost."""

    def __init__(self) -> None:
        super().__init__()
        self.sims: list = []
        self.deployments: list = []

    def attach(self, sim) -> None:
        self.sims.append(sim)

    def observe(self, obj, prefix=None) -> None:
        self.deployments.append(obj)

    def counts(self) -> Dict[str, float]:
        for index, deployment in enumerate(self.deployments):
            _scrape(self.registry, deployment.gq, f"dep{index}." if index else "")
        return registry_counts(self.registry.snapshot())


# -- registry roll-up --------------------------------------------------------


def _total(metrics: dict, pattern: str) -> float:
    regex = re.compile(pattern)
    return sum(m["value"] for name, m in metrics.items() if regex.search(name))


def registry_counts(metrics: dict) -> Dict[str, float]:
    """Roll a ``repro.telemetry`` registry scrape up into per-layer work,
    failure and useful-outcome counts (names may carry a ``depN.``
    prefix when one call builds several deployments)."""
    conforming = _total(metrics, r"\.conforming_packets$")
    offered = conforming + _total(
        metrics, r"\.(exceeding|yellow)_packets$"
    )
    wire = _total(metrics, r"tcp\.crossing\.wire_bytes$")
    delivered = _total(metrics, r"tcp\.crossing\.delivered_bytes$")
    if not wire:
        # The program's own scrape (fig1_telemetry) has no crossing
        # split; fig1 has one rank per host, so every connection crosses.
        tcp_hosts = {
            match.group(1) + "net." + match.group(2)
            for match in (
                re.match(r"((?:dep\d+\.)?)tcp\.([^.]+)\.rx_segments$", name)
                for name in metrics
            )
            if match
        }
        wire = sum(
            m["value"] for name, m in metrics.items()
            if name.endswith(".tx_bytes")
            and name.rsplit(".", 2)[0] in tcp_hosts
        )
        delivered = _total(metrics, r"tcp\..*\.delivered_bytes$")
    return {
        "net.tx_packets": _total(metrics, r"net\.[^.]+\.[^.]+\.tx_packets$"),
        "net.tx_bytes": _total(metrics, r"net\.[^.]+\.[^.]+\.tx_bytes$"),
        "net.qdisc_drops": _total(metrics, r"\.qdisc\.drops$"),
        # ingress_drops are the conditioners' drops seen from the
        # interface: they count under diffserv.policed_drops, not here.
        "net.other_drops": _total(
            metrics, r"\.(ttl|no_route|link_down|impairment)_drops$"
        ),
        "diffserv.policed_drops": _total(metrics, r"\.policer\.drops$"),
        "diffserv.conforming_frac": conforming / offered if offered else 0.0,
        "transport.tcp.segments_sent": _total(
            metrics, r"tcp\..*\.segments_sent$"
        ),
        "transport.tcp.retransmits": _total(metrics, r"tcp\..*\.retransmits$"),
        "transport.tcp.timeouts": _total(metrics, r"tcp\..*\.timeouts$"),
        "transport.tcp.goodput_frac": delivered / wire if wire else 0.0,
        "mpi.messages": _total(metrics, r"mpi\.rank\d+\.messages_sent$"),
        "mpi.bytes": _total(metrics, r"mpi\.rank\d+\.bytes_sent$"),
        "gara.admissions": _total(metrics, r"gara\.broker\.admissions$"),
        "gara.rejections": _total(metrics, r"gara\.broker\.rejections$"),
        "resilience.journal_records": _total(
            metrics, r"gara\.recovery\.journal_records$"
        ),
    }


def _registry_events(metrics: dict) -> int:
    return int(_total(metrics, r"sim\.events_processed$"))


# -- fig1 -----------------------------------------------------------------


class Fig1Tcp:
    """``fig1_tcp_reservation.run(quick=True, seed, duration=20.0)``."""

    name = "fig1_tcp"
    durations = {"full": 20.0, "smoke": 6.0, "warm": 2.0}

    def _call(self, seed: int, size: str, spans):
        with spans.patched(fig1_tcp_reservation, "build_deployment", "build"), \
                spans.patched(Simulator, "run", "run"):
            return fig1_tcp_reservation.run(
                quick=True, seed=seed, duration=self.durations[size]
            )

    def run(self, seed: int, size: str, spans):
        recorder = _Recorder()
        telemetry.install(recorder)
        try:
            result = self._call(seed, size, spans)
        finally:
            telemetry.uninstall()
        return result, recorder, size

    def _shape(self, result, size: str) -> List[str]:
        """The shape bench_fig1 asserts: policing bites, TCP suffers."""
        if size == "warm":
            return []
        extra = result.extra
        bad = []
        if not extra["mean_kbps"] < extra["attempted_kbps"]:
            bad.append("fig1 mean is not below the attempted rate")
        if not extra["mean_kbps"] <= 1.05 * extra["reserved_kbps"]:
            bad.append("fig1 mean exceeds 1.05x the reservation")
        if not extra["retransmissions"] > 0:
            bad.append("fig1 saw no retransmissions")
        return bad

    def examine(self, raw) -> Outcome:
        result, recorder, size = raw
        return Outcome(
            events=sum(sim.events_processed for sim in recorder.sims),
            credited=sum(sim.events_credited for sim in recorder.sims),
            digest=_digest([result.rows, result.extra]),
            violations=self._shape(result, size),
            counts=recorder.counts(),
        )


class Fig1Telemetry(Fig1Tcp):
    """The same input with ``runner.make_telemetry()`` installed, then
    ``collect()`` and ``export_json``/``export_csv`` to a temp dir —
    what ``mpichgq-experiments --out`` does for a user."""

    name = "fig1_telemetry"

    def run(self, seed: int, size: str, spans):
        session = runner.make_telemetry()
        telemetry.install(session)
        try:
            result = self._call(seed, size, spans)
        finally:
            telemetry.uninstall()
        with spans.span("collect"):
            session.collect()
            snapshot = session.snapshot()
        out = Path(tempfile.mkdtemp(prefix="export-", dir=scratch_dir()))
        try:
            with spans.span("export"):
                meta = {"experiment": "fig1", "quick": True, "seed": seed}
                files = [
                    telemetry.export_json(session, out / "fig1.metrics.json",
                                          meta=meta),
                    telemetry.export_csv(session, out / "fig1.metrics.csv"),
                ]
            export_bytes = sum(os.path.getsize(path) for path in files)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result, snapshot, export_bytes, size

    def examine(self, raw) -> Outcome:
        result, snapshot, export_bytes, size = raw
        metrics = snapshot["metrics"]
        counts = registry_counts(metrics)
        counts["telemetry.metrics"] = len(metrics)
        counts["telemetry.span_events"] = snapshot["span_count"]
        counts["telemetry.export_bytes"] = export_bytes
        violations = self._shape(result, size)
        if not metrics or not snapshot["span_count"] or not export_bytes:
            violations.append("telemetry session collected or exported nothing")
        return Outcome(
            events=_registry_events(metrics),
            credited=int(result.extra.get("events_credited", 0)),
            digest=_digest([result.rows, result.extra, metrics,
                            snapshot["span_count"]]),
            violations=violations,
            counts=counts,
        )


# -- aqm ------------------------------------------------------------------


class AqmL4s:
    """One ``table1_l4s`` cell (1600 kb/s, 1 fps, normal bucket) under
    each of the four modes."""

    name = "aqm_l4s"
    durations = {"full": 3.0, "smoke": 1.5, "warm": 1.1}

    def run(self, seed: int, size: str, spans):
        # The warm-up is one mode: the modes share all but their qdisc.
        modes = ("codel",) if size == "warm" else table1_l4s.MODES
        recorder = _Recorder()
        telemetry.install(recorder)
        try:
            with spans.patched(table1_l4s, "build_deployment", "build"), \
                    spans.patched(Simulator, "run", "run"):
                cells = {
                    mode: table1_l4s.measure_cell(
                        1600.0, 1.0, NORMAL_DEPTH_DIVISOR, mode, seed,
                        duration=self.durations[size],
                    )
                    for mode in modes
                }
        finally:
            telemetry.uninstall()
        return cells, recorder, size

    def examine(self, raw) -> Outcome:
        cells, recorder, size = raw
        counts = recorder.counts()
        for count in ("ecn_marks", "early_drops", "tail_drops"):
            counts[f"aqm.{count}"] = sum(cell[count] for cell in cells.values())
        violations = []
        if size != "warm":
            for mode, cell in cells.items():
                if not cell["ecn_marks"] > 0:
                    violations.append(f"aqm mode {mode} never marked")
                if not cell["queue_delay_ms"] > 0:
                    violations.append(f"aqm mode {mode} reported no queue delay")
        return Outcome(
            events=sum(sim.events_processed for sim in recorder.sims),
            credited=sum(sim.events_credited for sim in recorder.sims),
            digest=_digest(cells),
            violations=violations,
            counts=counts,
        )


# -- the paper's section 3 application --------------------------------------


class MpiStencil:
    """16 ranks (8 per GARNET site) of ``FiniteDifference`` under a
    ``QOS_PREMIUM`` attribute, 30 Mb/s backbone, no UDP flood.

    The attribute goes on the communicator of the two ranks whose halo
    crosses the wide-area link (``comm.split``): the paper's two-party
    case. A premium attribute on all 16 ranks asks for 128 flow
    reservations and is refused by admission control.
    """

    name = "mpi_stencil"
    ranks = 16
    grid = 256
    iterations = {"full": 1000, "smoke": 60, "warm": 60}

    def run(self, seed: int, size: str, spans):
        per_site = self.ranks // 2
        with spans.span("build"):
            sim = Simulator(seed=seed)
            testbed = garnet(sim, backbone_bandwidth=mbps(30.0))
            gq = MpichGQ.on_garnet(
                testbed,
                ranks_hosts=[testbed.premium_src] * per_site
                + [testbed.premium_dst] * per_site,
            )
            app = FiniteDifference(
                n=self.grid, iterations=self.iterations[size], residual_every=5
            )
            attribute = QosAttribute(
                QOS_PREMIUM,
                bandwidth_kbps=10_000.0,
                max_message_size=app.halo_bytes_per_exchange(),
            )
            finished: Dict[int, float] = {}
            wan_pair = (per_site - 1, per_site)

            def main(comm):
                wan = yield from comm.split(
                    0 if comm.rank in wan_pair else None, key=comm.rank
                )
                if comm.rank == wan_pair[0]:
                    wan.attr_put(gq.qos_keyval, attribute)
                yield from app.main(comm)
                finished[comm.rank] = comm.sim.now

            processes = gq.world.launch(main)
        with spans.span("run"):
            sim.run_until_event(sim.all_of(processes), limit=3600.0)
        return sim, gq, app, attribute, finished, size

    def examine(self, raw) -> Outcome:
        sim, gq, app, attribute, finished, size = raw
        registry = telemetry.MetricsRegistry()
        _scrape(registry, gq)
        violations = []
        if len(finished) != self.ranks:
            violations.append(
                f"only {len(finished)} of {self.ranks} stencil ranks finished"
            )
        # Every interior rank exchanges two halo rows per sweep, the two
        # edge ranks one.
        expected = (
            app.halo_bytes_per_exchange() * self.iterations[size]
            * (2 * self.ranks - 2)
        )
        if app.stats.halo_bytes != expected:
            violations.append(
                f"halo bytes {app.stats.halo_bytes} != formula {expected}"
            )
        if not attribute.granted:
            violations.append(f"premium attribute refused: {attribute.error}")
        solution = hashlib.sha256()
        for rank in sorted(app.solutions):
            solution.update(np.ascontiguousarray(app.solutions[rank]).tobytes())
        return Outcome(
            events=sim.events_processed,
            credited=sim.events_credited,
            digest=_digest([
                solution.hexdigest(), sorted(finished.items()),
                app.stats.residuals,
            ]),
            violations=violations,
            counts=registry_counts(registry.snapshot()),
        )


# -- GARNET grid ----------------------------------------------------------


class GarnetGrid:
    """``run_scenario("garnet_xl", ...)`` on an 8x42 grid with 32k flows.

    The issue sketched 14x24; that grid's row-stripe cut is 24 links and
    left PDES at 4.1% of traced time, under the 5% the 2-shard twin is
    predicted to show. The same 336 routers as 8x42 widen the cut to 42
    links (~38k boundary messages) and PDES to ~6%, at the same run time.
    """

    name = "garnet_grid"
    shards = 1
    backend = "inline"
    params = {
        "full": dict(rows=8, cols=42, n_flows=32_000, bg_flows=64),
        "smoke": dict(rows=8, cols=12, n_flows=4_000, bg_flows=16),
        "warm": dict(rows=8, cols=12, n_flows=4_000, bg_flows=16),
    }

    def run(self, seed: int, size: str, spans, backend: Optional[str] = None):
        scenario = "garnet_xl"
        with ExitStack() as stack:
            if spans.enabled:
                # Spans wrap the public Scenario callbacks; the untraced
                # pass hands run_scenario the registered name untouched.
                base = get_scenario("garnet_xl")
                scenario = dataclasses.replace(
                    base,
                    topology=spans.wrap(base.topology, "build"),
                    build=spans.wrap(base.build, "build"),
                    collect=spans.wrap(base.collect, "collect"),
                    merge=spans.wrap(base.merge, "collect"),
                )
                stack.enter_context(
                    spans.patched(Simulator, "run_window", "run"))
                stack.enter_context(spans.patched(Simulator, "run", "run"))
            result = run_scenario(
                scenario, seed=seed, shards=self.shards,
                backend=backend or self.backend, params=self.params[size],
            )
        return result

    def _conservation(self, result) -> List[str]:
        merged = result.merged
        tx = sum(c["tx_datagrams"] for c in merged["classes"].values())
        rx = sum(c["rx_datagrams"] for c in merged["classes"].values())
        drops = merged["qdisc_drops"] + merged["route_ttl_drops"]
        bad = []
        if rx + drops != tx:
            bad.append(f"grid lost packets: rx {rx} + drops {drops} != tx {tx}")
        if sum(result.per_shard_events) != result.total_events or not tx:
            bad.append("grid shard events do not sum to the total")
        return bad

    def examine(self, result) -> Outcome:
        merged = result.merged
        classes = merged["classes"].values()
        per_shard = result.per_shard_events
        return Outcome(
            events=result.total_events,
            credited=0,
            digest=_digest(merged),
            violations=self._conservation(result),
            counts={
                "net.tx_packets": sum(c["tx_datagrams"] for c in classes),
                "net.tx_bytes": sum(c["tx_bytes"] for c in classes),
                "net.qdisc_drops": merged["qdisc_drops"],
                "net.other_drops": merged["route_ttl_drops"],
                "pdes.windows": result.windows,
                "pdes.boundary_messages": sum(result.boundary_messages),
                "pdes.shard_imbalance": (
                    max(per_shard) * len(per_shard) / sum(per_shard)
                ),
            },
        )


class GarnetGrid2Shard(GarnetGrid):
    """Identical params through ``repro.pdes`` on two shards.

    The timed repeats use the inline backend: both shards advance in
    this process, so ``wall_s`` is everything PDES adds — lockstep
    windows, pickled boundary messages, sorted injection, the duplicated
    build, the merge — without depending on a second core. On the
    reference box that core is shared and 2-process wall time wanders
    by 20-30%, which no bound can hold; the traced pass therefore forks
    the shards once and reports ``pdes.fork_wall_s`` and ``pdes.cpu_s``.
    """

    name = "garnet_grid_2shard"
    shards = 2

    def _conservation(self, result) -> List[str]:
        bad = super()._conservation(result)
        if min(result.per_shard_events) <= 0:
            bad.append(f"a shard sat idle: {result.per_shard_events}")
        if sum(result.boundary_messages) <= 0:
            bad.append("no boundary messages crossed the cut")
        return bad

    def check_invariance(self, seed: int) -> List[str]:
        """Set-up check: ``garnet_small`` merges to the same digest on
        one shard and on two (the PDES determinism contract)."""
        one = run_scenario("garnet_small", seed=seed, shards=1, backend="inline")
        two = run_scenario("garnet_small", seed=seed, shards=2, backend="fork")
        if _digest(one.merged) != _digest(two.merged):
            return ["garnet_small merged output differs between 1 and 2 shards"]
        return []


SIM = {
    workload.name: workload
    for workload in (
        Fig1Tcp(), Fig1Telemetry(), AqmL4s(), MpiStencil(), GarnetGrid(),
        GarnetGrid2Shard(),
    )
}
