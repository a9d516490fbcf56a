"""Scrapers: walk live simulation objects into the metrics registry.

The stack already keeps authoritative per-object statistics (interface
byte counts, qdisc drops, TCP retransmissions, broker admissions) as
plain attributes — the cheapest possible hot path. Collection therefore
happens *at snapshot time*: these functions walk a deployment and
publish every statistic under its hierarchical registry name, so a
metrics dump needs no per-packet bookkeeping beyond what the simulator
does anyway.

Dispatch is duck-typed (``collect_any``) to avoid importing the
experiment layer from here.
"""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry

__all__ = [
    "collect_any",
    "collect_deployment",
    "collect_mpichgq",
    "collect_network",
    "collect_tcp_host",
    "collect_mpi_world",
    "collect_broker",
    "collect_broker_service",
    "collect_broker_client",
    "collect_domain",
]


def _set(reg: MetricsRegistry, name: str, value: float) -> None:
    """Publish an absolute count scraped from an authoritative source."""
    metric = reg.counter(name)
    metric.value = float(value)


def _aqm_metrics(reg: MetricsRegistry, base: str, queue) -> None:
    """AQM instrumentation: the mark/drop split every discipline keeps,
    plus the EWMA queue gauge where there is one (RED/WRED only — CoDel,
    PIE and DualPI2 act on sojourn time and keep no average)."""
    _set(reg, f"{base}.early_drops", queue.early_drops)
    _set(reg, f"{base}.tail_drops", queue.tail_drops)
    _set(reg, f"{base}.ecn_marks", queue.ecn_marks)
    if hasattr(queue, "avg"):
        reg.gauge(f"{base}.avg_queue_packets").set(queue.avg)


def _qdisc_metrics(reg: MetricsRegistry, base: str, qdisc) -> None:
    _set(reg, f"{base}.qdisc.drops", getattr(qdisc, "total_drops", 0))
    reg.gauge(f"{base}.qdisc.backlog_bytes").set(qdisc.backlog_bytes)
    reg.gauge(f"{base}.qdisc.backlog_packets").set(len(qdisc))
    # DiffServ priority qdisc: per-class queues and the EF policer.
    for klass in ("ef", "af", "be"):
        queue = getattr(qdisc, f"{klass}_queue", None)
        if queue is not None:
            _set(reg, f"{base}.qdisc.{klass}.drops", queue.drops)
            reg.gauge(f"{base}.qdisc.{klass}.backlog_bytes").set(
                queue.backlog_bytes
            )
    # AQM DRR qdisc: per-band children, with RED/WRED detail.
    band_children = getattr(qdisc, "bands", None)
    if callable(band_children):
        band_children = None
    if band_children:
        for i, child in enumerate(band_children):
            cbase = f"{base}.qdisc.band{i}"
            _set(reg, f"{cbase}.drops", child.total_drops)
            reg.gauge(f"{cbase}.backlog_bytes").set(child.backlog_bytes)
            if hasattr(child, "early_drops"):
                _aqm_metrics(reg, cbase, child)
        if hasattr(qdisc, "filter_drops"):
            _set(reg, f"{base}.policer.drops", qdisc.filter_drops)
    if hasattr(qdisc, "ef_policer_drops"):
        _set(reg, f"{base}.policer.drops", qdisc.ef_policer_drops)
    if hasattr(qdisc, "early_drops"):
        _aqm_metrics(reg, f"{base}.qdisc", qdisc)


def collect_network(
    reg: MetricsRegistry, network, prefix: str = ""
) -> None:
    """Every node: per-interface counters, qdisc state, routing drops."""
    for node in network.nodes.values():
        node_base = f"{prefix}net.{node.name}"
        _set(reg, f"{node_base}.ttl_drops", node.ttl_drops)
        _set(reg, f"{node_base}.no_route_drops", node.no_route_drops)
        for iface in node.interfaces:
            base = f"{node_base}.{iface.name}"
            _set(reg, f"{base}.tx_packets", iface.tx_packets)
            _set(reg, f"{base}.tx_bytes", iface.tx_bytes)
            _set(reg, f"{base}.rx_packets", iface.rx_packets)
            _set(reg, f"{base}.rx_bytes", iface.rx_bytes)
            _set(reg, f"{base}.ingress_drops", iface.ingress_drops)
            _set(reg, f"{base}.link_down_drops", iface.link_down_drops)
            _set(reg, f"{base}.impairment_drops", iface.impairment_drops)
            _qdisc_metrics(reg, base, iface.qdisc)


def collect_tcp_host(reg: MetricsRegistry, host, prefix: str = "") -> None:
    """Per-flow TCP statistics for every live connection on ``host``."""
    from ..net.packet import PROTO_TCP

    layer = host.protocols.get(PROTO_TCP)
    if layer is None or not hasattr(layer, "_connections"):
        return
    _set(reg, f"{prefix}tcp.{host.name}.rx_segments", layer.rx_segments)
    _set(reg, f"{prefix}tcp.{host.name}.refused", layer.refused)
    for conn in list(layer._connections.values()):
        flow = f"{conn.local_port}-{conn.remote_addr}-{conn.remote_port}"
        base = f"{prefix}tcp.{host.name}.{flow}"
        _set(reg, f"{base}.segments_sent", conn.segments_sent)
        _set(reg, f"{base}.segments_received", conn.segments_received)
        _set(reg, f"{base}.retransmits", conn.retransmissions)
        _set(reg, f"{base}.fast_retransmits", conn.fast_retransmits)
        _set(reg, f"{base}.timeouts", conn.timeouts)
        _set(reg, f"{base}.acked_bytes", conn.acked_counter.total)
        _set(reg, f"{base}.delivered_bytes", conn.delivered_counter.total)
        reg.gauge(f"{base}.cwnd_bytes").set(conn.cwnd)
        if getattr(conn, "ecn_enabled", False):
            _set(reg, f"{base}.ecn_ce_received", conn.ecn_ce_received)
            _set(reg, f"{base}.ecn_responses", conn.ecn_responses)


def collect_mpi_world(reg: MetricsRegistry, world, prefix: str = "") -> None:
    for proc in world.procs:
        base = f"{prefix}mpi.rank{proc.rank}"
        _set(reg, f"{base}.messages_sent", proc.messages_sent)
        _set(reg, f"{base}.messages_received", proc.messages_received)
        _set(reg, f"{base}.bytes_sent", proc.bytes_sent)
        _set(reg, f"{base}.bytes_received", proc.bytes_received)


def collect_broker(reg: MetricsRegistry, broker, prefix: str = "") -> None:
    base = f"{prefix}gara.broker"
    _set(reg, f"{base}.admissions", broker.admissions)
    _set(reg, f"{base}.rejections", broker.rejections)
    _set(reg, f"{base}.releases", broker.releases)
    rbase = f"{prefix}gara.recovery"
    _set(reg, f"{rbase}.broker_crashes", broker.crashes)
    _set(reg, f"{rbase}.broker_restarts", broker.restarts)
    _set(reg, f"{rbase}.journal_replays", broker.journal_replays)
    _set(reg, f"{rbase}.orphans_collected", broker.orphans_collected)
    _set(reg, f"{rbase}.orphan_paths_collected", broker.orphan_paths_collected)
    _set(reg, f"{rbase}.stale_releases", broker.stale_releases)
    _set(reg, f"{rbase}.deaf_releases", broker.deaf_releases)
    _set(reg, f"{rbase}.reregistrations", broker.reregistrations)
    if broker.journal is not None:
        _set(reg, f"{rbase}.journal_records", len(broker.journal))
    for table in broker._tables.values():
        tbase = f"{prefix}gara.slots.{table.name or id(table)}"
        _set(reg, f"{tbase}.admitted", table.admitted_total)
        _set(reg, f"{tbase}.rejected", table.rejected_total)
        reg.gauge(f"{tbase}.capacity").set(table.capacity)
        reg.gauge(f"{tbase}.entries").set(len(table))


def collect_broker_service(
    reg: MetricsRegistry, service, prefix: str = ""
) -> None:
    """Wire-service counters: admission traffic, load shedding,
    crash/recovery history, journal compaction — plus the underlying
    broker via :func:`collect_broker`."""
    base = f"{prefix}broker_service"
    for name, value in service.status_counters().items():
        if name == "sim_now":
            reg.gauge(f"{base}.sim_now").set(value)
        elif name in ("alive", "queue_depth", "connections",
                      "live_reservations"):
            reg.gauge(f"{base}.{name}").set(value)
        else:
            _set(reg, f"{base}.{name}", value)
    detector = getattr(service, "detector", None)
    if detector is not None:
        _set(reg, f"{base}.detector.suspicions", detector.suspicions)
        _set(reg, f"{base}.detector.evictions", detector.evictions)
        _set(
            reg, f"{base}.detector.stale_heartbeats",
            detector.stale_heartbeats,
        )
        reg.gauge(f"{base}.detector.watches").set(len(detector.watches))
    collect_broker(reg, service.broker, prefix=prefix)


def collect_broker_client(
    reg: MetricsRegistry, client, prefix: str = ""
) -> None:
    """Per-client view of the wire service: retry/backoff pressure,
    degradations to best-effort, and idempotent replays observed."""
    base = f"{prefix}broker_client.{client.name}"
    _set(reg, f"{base}.requests", client.requests_total)
    _set(reg, f"{base}.replies", client.replies_total)
    _set(reg, f"{base}.retries", client.retries)
    _set(reg, f"{base}.timeouts", client.timeouts)
    _set(reg, f"{base}.conn_failures", client.conn_failures)
    _set(reg, f"{base}.busy_seen", client.busy_seen)
    _set(reg, f"{base}.retry_seen", client.retry_seen)
    _set(reg, f"{base}.degradations", client.degradations)
    _set(reg, f"{base}.upgrades", client.upgrades)
    _set(reg, f"{base}.idempotent_acks", client.idempotent_acks)
    _set(reg, f"{base}.heartbeats_sent", client.heartbeats_sent)
    _set(reg, f"{base}.stale_epochs", client.stale_epochs)


def collect_domain(reg: MetricsRegistry, domain, prefix: str = "") -> None:
    """Edge conditioners: drops plus per-rule conforming/exceeding."""
    for conditioner in domain.conditioners.values():
        base = f"{prefix}diffserv.{conditioner.name}"
        _set(reg, f"{base}.policer.drops", conditioner.policed_drops)
        for i, (spec, rule) in enumerate(conditioner.classifier):
            if not hasattr(rule, "conforming_bytes"):
                continue
            rbase = f"{base}.rule{i}"
            dscp = getattr(rule, "dscp", None)
            if dscp is None:  # three-color marker: report its green stamp
                dscp = rule.dscp_by_color["green"]
            reg.gauge(f"{rbase}.dscp").set(dscp)
            _set(reg, f"{rbase}.conforming_packets", rule.conforming_packets)
            _set(reg, f"{rbase}.conforming_bytes", rule.conforming_bytes)
            _set(reg, f"{rbase}.exceeding_packets", rule.exceeding_packets)
            _set(reg, f"{rbase}.exceeding_bytes", rule.exceeding_bytes)
            if hasattr(rule, "yellow_packets"):
                _set(reg, f"{rbase}.yellow_packets", rule.yellow_packets)
                _set(reg, f"{rbase}.yellow_bytes", rule.yellow_bytes)


def collect_mpichgq(reg: MetricsRegistry, gq, prefix: str = "") -> None:
    collect_network(reg, gq.network, prefix=prefix)
    collect_domain(reg, gq.domain, prefix=prefix)
    collect_broker(reg, gq.broker, prefix=prefix)
    collect_mpi_world(reg, gq.world, prefix=prefix)
    for proc in gq.world.procs:
        collect_tcp_host(reg, proc.host, prefix=prefix)
    rbase = f"{prefix}gara.recovery"
    detector = getattr(gq, "detector", None)
    if detector is not None:
        _set(reg, f"{rbase}.suspicions", detector.suspicions)
        _set(reg, f"{rbase}.recoveries", detector.recoveries)
    coordinator = getattr(gq.gara, "coordinator", None)
    if coordinator is not None:
        cbase = f"{prefix}gara.twophase"
        _set(reg, f"{cbase}.transactions", coordinator.transactions)
        _set(reg, f"{cbase}.committed", coordinator.committed)
        _set(reg, f"{cbase}.aborted", coordinator.aborted)
        _set(reg, f"{cbase}.prepare_timeouts", coordinator.prepare_timeouts)
        _set(reg, f"{cbase}.commit_timeouts", coordinator.commit_timeouts)
        _set(reg, f"{cbase}.idempotent_replays", coordinator.idempotent_replays)
    reg.gauge(f"{prefix}sim.events_processed").set(gq.sim.events_processed)
    reg.gauge(f"{prefix}sim.now").set(gq.sim.now)


def collect_deployment(reg: MetricsRegistry, dep, prefix: str = "") -> None:
    collect_mpichgq(reg, dep.gq, prefix=prefix)
    contention = getattr(dep, "contention", None)
    if contention is not None:
        _set(
            reg,
            f"{prefix}apps.contention.sent_bytes",
            contention.sent.total,
        )


def collect_any(reg: MetricsRegistry, obj, prefix: str = "") -> None:
    """Duck-typed dispatch over the object shapes ``observe`` accepts."""
    if hasattr(obj, "gq") and hasattr(obj, "testbed"):  # GarnetDeployment
        collect_deployment(reg, obj, prefix=prefix)
    elif hasattr(obj, "status_counters") and hasattr(obj, "broker"):
        collect_broker_service(reg, obj, prefix=prefix)  # BrokerService
    elif hasattr(obj, "idempotent_acks") and hasattr(obj, "new_key"):
        collect_broker_client(reg, obj, prefix=prefix)  # BrokerClient
    elif hasattr(obj, "world") and hasattr(obj, "broker"):  # MpichGQ
        collect_mpichgq(reg, obj, prefix=prefix)
    elif hasattr(obj, "nodes"):  # Network
        collect_network(reg, obj, prefix=prefix)
        for node in obj.nodes.values():
            if hasattr(node, "protocols"):
                collect_tcp_host(reg, node, prefix=prefix)
    elif hasattr(obj, "interfaces") and hasattr(obj, "protocols"):  # Host
        collect_tcp_host(reg, obj, prefix=prefix)
    else:
        raise TypeError(f"don't know how to collect metrics from {obj!r}")
