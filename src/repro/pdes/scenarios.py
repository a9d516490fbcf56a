"""PDES scenario registry: shard-safe, deterministically mergeable runs.

A :class:`Scenario` separates three concerns the PDES runtime needs:

* ``topology(sim, **params)`` — build *just* the network (no actors),
  cheap enough for the coordinator to derive the shard plan from;
* ``build(sim, owns, **params)`` — build the full scenario on a
  shard's simulator. Everything structural (topology, control plane,
  reservations, flow *plans*) is built identically on every shard;
  **actors** — traffic sources, sinks, application processes — are
  installed only on nodes where ``owns(node_name)`` is true;
* ``collect(handle)`` / ``merge(partials)`` — per-shard partial
  results and their deterministic combination. Merge output must be
  independent of the shard count and layout: sum integers, take each
  single-owner value from whichever shard owns it, and derive float
  statistics from order-insensitive reductions (``math.fsum``,
  percentiles of multisets) — never from accumulation order.

The shard-count-invariance gate (tests, ``python -m repro.pdes.check``)
byte-compares the merged JSON across shard counts, so every scenario
here must draw runtime randomness from *named* RNG streams
(:meth:`Simulator.rng_stream`) and keep actor installation strictly
ownership-gated.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..diffserv import DiffServDomain
from ..diffserv.phb import PriorityQdisc
from ..experiments import fig1_tcp_reservation
from ..gara import BandwidthBroker, DiffServNetworkManager, Gara
from ..kernel import NORMAL, Simulator
from ..net import garnet, mbps
from ..net.grid import garnet_grid, plan_flows
from ..net.packet import PROTO_UDP, Packet
from ..telemetry import MetricsRegistry
from ..transport.tcp import TcpLayer
from ..transport.udp import UDP_MAX_PAYLOAD, UdpLayer

__all__ = ["Scenario", "SCENARIOS", "get_scenario"]


@dataclass(frozen=True)
class Scenario:
    """One registered PDES scenario (see the module docstring)."""

    name: str
    description: str
    duration: float
    build: Callable
    collect: Callable
    merge: Callable
    topology: Callable
    #: Optional partition hint: ``(topology_handle, n_shards) ->
    #: Optional[Dict[name, shard]]`` (None falls back to the generic
    #: min-cut partitioner).
    hint: Optional[Callable] = None
    defaults: dict = field(default_factory=dict)


def _merge_single_owner(partials: List[dict]) -> dict:
    """Merge partials where every key has exactly one non-None owner."""
    merged: dict = {}
    for partial in partials:
        for key, value in partial.items():
            if key not in merged or merged[key] is None:
                merged[key] = value
    return merged


# -- fig1: premium TCP vs its reservation (the paper's Figure 1) --------

_CONTENTION_PORT = 9001


class _Fig1Handle:
    def __init__(self, network, duration, state):
        self.network = network
        self.duration = duration
        #: The connections fig1's owned processes published.
        self.state = state
        self.contention_udp_dst = None


def _fig1_build(
    sim: Simulator,
    owns: Callable[[str], bool],
    duration: float = 12.0,
    attempted_rate: float = mbps(50.0),
    reserved_rate: float = mbps(40.0),
    contention_rate: float = mbps(30.0),
) -> _Fig1Handle:
    testbed = _fig1_topology(sim)
    # Control plane: identical on every shard (no packets involved).
    domain = DiffServDomain(sim, testbed.routers())
    broker = BandwidthBroker(testbed.network, ef_share=0.7)
    gara = Gara(sim)
    gara.register_manager(DiffServNetworkManager(sim, domain, broker))
    state = fig1_tcp_reservation.install(
        sim,
        gara,
        testbed,
        TcpLayer(testbed.premium_src),
        TcpLayer(testbed.premium_dst),
        attempted_rate,
        reserved_rate,
        duration,
        owns=owns,
    )
    handle = _Fig1Handle(testbed.network, duration, state)
    # UDP contention between the competitive hosts, split at the
    # ownership boundary: blaster with the source, sink with the
    # destination (UdpTrafficGenerator couples both in one object, so
    # the two halves are installed by hand here).
    udp_src = UdpLayer(testbed.competitive_src)
    udp_dst = UdpLayer(testbed.competitive_dst)
    send_socket = udp_src.create_socket()
    sink_socket = udp_dst.create_socket(port=_CONTENTION_PORT)
    if owns("competitive_dst"):
        handle.contention_udp_dst = udp_dst

        def sink_loop():
            while True:
                yield sink_socket.recvfrom()

        sim.process(sink_loop(), name="pdes-fig1-contention-sink")
    if owns("competitive_src"):
        payload = UDP_MAX_PAYLOAD
        interval = (payload + 28) * 8.0 / contention_rate
        dst_addr = testbed.competitive_dst.addr

        def blast():
            while True:
                send_socket.sendto(payload, dst_addr, _CONTENTION_PORT)
                yield sim.timeout(interval)

        sim.process(blast(), name="pdes-fig1-contention")
    return handle


def _fig1_collect(handle: _Fig1Handle) -> dict:
    """Each value comes from the one shard that owns its host."""
    out: dict = {
        "times": None,
        "rates_kbps": None,
        "delivered_bytes": None,
        "retransmissions": None,
        "contention_rx_datagrams": None,
    }
    server = handle.state.get("server")
    if server is not None:
        times, rates = server.delivered_counter.rate_series(
            1.0, t_start=0.0, t_end=handle.duration
        )
        out["times"] = [float(t) for t in times]
        out["rates_kbps"] = [float(r) * 8.0 / 1e3 for r in rates]
        out["delivered_bytes"] = int(server.delivered_counter.total)
    client = handle.state.get("client")
    if client is not None:
        out["retransmissions"] = int(client.retransmissions)
    if handle.contention_udp_dst is not None:
        out["contention_rx_datagrams"] = int(
            handle.contention_udp_dst.rx_datagrams
        )
    return out


def _fig1_topology(sim: Simulator, **_params):
    return garnet(
        sim,
        backbone_bandwidth=mbps(155.0),
        access_bandwidth=mbps(100.0),
        backbone_delay=2e-3,
    )


# -- GARNET grids: many-flow DiffServ meshes ----------------------------

#: Background traffic class mix: pure best effort.
_BG_MIX = ((0, 1.0),)


class _GridHandle:
    def __init__(self, sim, testbed, registry):
        self.sim = sim
        self.network = testbed.network
        self.testbed = testbed
        self.registry = registry
        self.sink = None
        self.owned_nodes: list = []
        #: Owned flows not yet fired, latest start first.
        self.flows: list = []
        #: ``{dscp: {"bytes": b, "datagrams": n}}`` the owned flows sent.
        self.tx: Dict[int, Dict[str, int]] = {}


class _ClassSink:
    """Terminates UDP at grid hosts, tallying per-DSCP deliveries.

    One instance serves every owned host on a shard: counts and
    latencies are per-class aggregates, which merge exactly across any
    shard layout. ``latency[dscp]`` holds one delay per delivered
    datagram, in arrival order.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.latency: Dict[int, List[float]] = defaultdict(list)
        self.rx_bytes: Dict[int, int] = defaultdict(int)

    def receive(self, packet: Packet) -> None:
        self.latency[packet.dscp].append(self.sim._now - packet.created_at)
        self.rx_bytes[packet.dscp] += packet.size


def _fire_flow(handle: _GridHandle) -> None:
    """Send the earliest pending flow's burst.

    Only one flow start is ever on the heap: the firing flow first
    schedules its successor at that flow's absolute planned time, so
    the heap holds live packet work rather than the whole plan.
    """
    src, dst, dscp, _, size, n = handle.flows.pop()
    if handle.flows:
        handle.sim.inject(handle.flows[-1].start, NORMAL, _fire_flow, handle)
    hosts = handle.testbed.hosts
    host, dst_addr = hosts[src], hosts[dst].addr
    now = handle.sim._now
    for _ in range(n):
        host.send_packet(
            Packet(
                src=host.addr,
                dst=dst_addr,
                sport=40000,
                dport=9000,
                proto=PROTO_UDP,
                size=size,
                dscp=dscp,
                created_at=now,
            )
        )
    tally = handle.tx.setdefault(dscp, {"bytes": 0, "datagrams": 0})
    tally["bytes"] += n * size
    tally["datagrams"] += n


def _grid_build(
    sim: Simulator,
    owns: Callable[[str], bool],
    rows: int,
    cols: int,
    n_flows: int,
    duration: float,
    torus: bool = False,
    bg_flows: int = 0,
    bg_count_range=(50, 100),
    locality: int = 4,
) -> _GridHandle:
    testbed = garnet_grid(
        sim, rows, cols, torus=torus,
        qdisc_factory=lambda: PriorityQdisc(),
    )
    handle = _GridHandle(sim, testbed, MetricsRegistry())
    sink = _ClassSink(sim)
    for host in testbed.hosts:
        if owns(host.name):
            host.register_protocol(PROTO_UDP, sink)
    handle.sink = sink
    # The flow plans come from named streams: identical on every shard
    # regardless of shard count or creation order.
    flows = plan_flows(
        testbed, n_flows, sim.rng_stream("grid.flows"),
        t_start=0.05, t_end=max(0.05, duration * 0.8),
        locality=locality,
    )
    if bg_flows:
        flows = flows + plan_flows(
            testbed, bg_flows, sim.rng_stream("grid.background"),
            t_start=0.01, t_end=max(0.01, duration * 0.5),
            class_mix=_BG_MIX,
            locality=max(locality, 8),
            size_range=(1500, 1500),
            count_range=bg_count_range,
        )
    # A stable sort, reversed for pop(): flows with equal starts fire
    # in plan order.
    hosts = testbed.hosts
    owned = [f for f in flows if owns(hosts[f.src_cell].name)]
    handle.flows = sorted(owned, key=lambda f: f.start)[::-1]
    if handle.flows:
        sim.inject(handle.flows[-1].start, NORMAL, _fire_flow, handle)
    # Owned nodes, for exact drop accounting in collect(): every drop
    # happens on exactly one node, and traffic only ever transits nodes
    # on their owning shard, so summing per-owned-node counters merges
    # to the serial totals for any layout.
    for node in testbed.network.nodes.values():
        if owns(node.name):
            handle.owned_nodes.append(node)
    return handle


def _grid_collect(handle: _GridHandle) -> dict:
    reg = handle.registry
    sink = handle.sink
    tx = {str(dscp): dict(kinds) for dscp, kinds in sorted(handle.tx.items())}
    rx = {
        str(dscp): {"bytes": sink.rx_bytes[dscp], "datagrams": len(samples)}
        for dscp, samples in sorted(sink.latency.items())
    }
    # The tallies are written here only, and idempotently: counters get
    # absolute values, and each histogram observes just the samples it
    # has not seen, in arrival order.
    for way, classes in (("tx", tx), ("rx", rx)):
        for dscp, kinds in classes.items():
            for kind, value in kinds.items():
                reg.counter(f"grid.{way}.{dscp}.{kind}").value = float(value)
    for dscp, samples in sink.latency.items():
        hist = reg.histogram(f"grid.latency.{dscp}")
        for delay in samples[hist.count:]:
            hist.observe(delay)
    drops = 0
    ttl = 0
    for node in handle.owned_nodes:
        ttl += node.ttl_drops + node.no_route_drops
        for iface in node.interfaces:
            drops += iface.qdisc.total_drops
            drops += iface.link_down_drops + iface.impairment_drops
            drops += iface.ingress_drops
    return {
        "tx": tx,
        "rx": rx,
        "qdisc_drops": int(drops),
        "route_ttl_drops": int(ttl),
        "latency": {
            str(dscp): list(samples)
            for dscp, samples in sorted(handle.sink.latency.items())
        },
    }


def _grid_merge(partials: List[dict]) -> dict:
    classes: Dict[str, dict] = {}
    drops = 0
    ttl = 0
    latency_all: Dict[str, List[float]] = {}
    for partial in partials:
        for dscp, kinds in partial["tx"].items():
            slot = classes.setdefault(
                dscp,
                {"tx_datagrams": 0, "tx_bytes": 0,
                 "rx_datagrams": 0, "rx_bytes": 0},
            )
            slot["tx_datagrams"] += kinds.get("datagrams", 0)
            slot["tx_bytes"] += kinds.get("bytes", 0)
        for dscp, kinds in partial["rx"].items():
            slot = classes.setdefault(
                dscp,
                {"tx_datagrams": 0, "tx_bytes": 0,
                 "rx_datagrams": 0, "rx_bytes": 0},
            )
            slot["rx_datagrams"] += kinds.get("datagrams", 0)
            slot["rx_bytes"] += kinds.get("bytes", 0)
        drops += partial["qdisc_drops"]
        ttl += partial["route_ttl_drops"]
        for dscp, samples in partial["latency"].items():
            latency_all.setdefault(dscp, []).extend(samples)
    latency: Dict[str, dict] = {}
    for dscp in sorted(latency_all):
        samples = latency_all[dscp]
        # Order-insensitive reductions only: the concatenation order of
        # per-shard sample lists depends on the layout, the multiset
        # does not.
        arr = np.asarray(samples)
        p50, p90, p99 = (float(q) for q in np.percentile(arr, [50, 90, 99]))
        latency[dscp] = {
            "count": len(samples),
            "mean": math.fsum(samples) / len(samples),
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "max": float(arr.max()),
        }
    return {
        "classes": {k: classes[k] for k in sorted(classes)},
        "qdisc_drops": drops,
        "route_ttl_drops": ttl,
        "latency": latency,
    }


def _grid_topology(sim: Simulator, rows: int, cols: int, torus: bool = False,
                   **_params):
    return garnet_grid(sim, rows, cols, torus=torus)


def _grid_hint(topology, n_shards: int):
    if n_shards <= topology.rows:
        return topology.partition_hint(n_shards)
    return None


def _grid_scenario(name, description, duration, **defaults) -> Scenario:
    def build(sim, owns, **params):
        merged = {**defaults, "duration": duration, **params}
        return _grid_build(sim, owns, **merged)

    def topology(sim, **params):
        merged = {**defaults, "duration": duration, **params}
        return _grid_topology(
            sim, rows=merged["rows"], cols=merged["cols"],
            torus=merged.get("torus", False),
        )

    return Scenario(
        name=name,
        description=description,
        duration=duration,
        build=build,
        collect=_grid_collect,
        merge=_grid_merge,
        topology=topology,
        hint=_grid_hint,
        defaults=defaults,
    )


SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    SCENARIOS[scenario.name] = scenario
    return scenario


_register(
    Scenario(
        name="fig1",
        description=(
            "Premium TCP over its reservation with UDP contention "
            "(the paper's Figure 1, PDES-shardable build)"
        ),
        duration=12.0,
        build=_fig1_build,
        collect=_fig1_collect,
        merge=_merge_single_owner,
        topology=_fig1_topology,
    )
)

_register(
    _grid_scenario(
        "garnet_small",
        "4x4 GARNET grid, 400 DiffServ flows plus background bursts",
        duration=1.0,
        rows=4,
        cols=4,
        n_flows=400,
        bg_flows=8,
        bg_count_range=(40, 80),
        locality=2,
    )
)

_register(
    _grid_scenario(
        "garnet_xl",
        "1,000-router GARNET grid, 100k DiffServ flows with background "
        "traffic (the grid-scale digital-twin target)",
        duration=1.2,
        rows=25,
        cols=40,
        n_flows=100_000,
        bg_flows=200,
        bg_count_range=(50, 100),
        locality=4,
    )
)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown pdes scenario {name!r}; registered: "
            f"{', '.join(sorted(SCENARIOS))}"
        ) from None
