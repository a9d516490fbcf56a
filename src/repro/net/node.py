"""Nodes (hosts and routers) and their interfaces.

The data path is callback-scheduled, not process-based, because packet
forwarding is the simulation's hot loop: an interface transmits by
scheduling a completion timer and the link delivers by scheduling an
arrival at the peer node.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from heapq import heappush as _heappush

from ..kernel import Simulator
from ..kernel.events import NORMAL as _NORMAL
from ..kernel.simulator import _FAST
from .packet import Packet
from .queues import DropTailQueue, Qdisc

__all__ = ["Interface", "Node", "Host", "Router"]


class Interface:
    """One attachment point of a node to a point-to-point link.

    Egress packets pass through the interface's :class:`Qdisc`; the
    interface serialises them at the link bandwidth and hands them to
    the peer interface's node after the propagation delay.
    """

    # The tx chain reads these per packet; a fixed layout keeps the
    # lookups dict-free. Qdisc classes deliberately do NOT get slots:
    # tests patch ``enqueue`` on qdisc instances.
    __slots__ = (
        "node", "sim", "name", "_bandwidth", "_sec_per_byte", "delay",
        "_qdisc", "_dequeue", "peer", "ingress", "up", "impairments",
        "_busy", "fluid_channel", "_tx_done", "remote_egress",
        "tx_packets", "tx_bytes", "rx_packets", "rx_bytes",
        "ingress_drops", "link_down_drops", "impairment_drops",
    )

    def __init__(
        self,
        node: "Node",
        name: str,
        bandwidth: float,
        delay: float,
        qdisc: Optional[Qdisc] = None,
    ) -> None:
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self.node = node
        self.sim = node.sim
        self.name = name
        self.bandwidth = bandwidth
        self.delay = delay
        self.qdisc: Qdisc = qdisc if qdisc is not None else DropTailQueue()
        #: The interface at the other end of the link (set when linked).
        self.peer: Optional["Interface"] = None
        #: Ingress traffic conditioners (classify/police/mark), applied
        #: to every packet arriving *into* the node via this interface.
        #: Each is a callable ``(packet) -> bool``; False drops.
        self.ingress: List[Callable[[Packet], bool]] = []
        #: Link state: a down interface silently blackholes egress
        #: traffic and discards deliveries (in-flight packets are lost).
        self.up = True
        #: Egress fault injectors (loss/corruption), applied after
        #: serialisation. Each is a callable ``(packet) -> bool``; True
        #: means the injector destroyed the packet.
        self.impairments: List[Callable[[Packet], bool]] = []
        self._busy = False
        # A prebound slot instead of a per-packet method binding; also
        # the tap point PacketTracer splices into (instance assignment
        # must stay possible, hence the method lives under _tx_done_impl
        # and this slot holds the active callable).
        self._tx_done = self._tx_done_impl
        #: Fluid background channel sharing this egress line
        #: (:class:`repro.net.fluid.FluidChannel`, which installs
        #: itself here). When set, every tx-start asks it how long the
        #: envelope's traffic holds the line ahead of the packet. None
        #: (one slot load + branch) unless a hybrid run put a fluid
        #: aggregate across this interface.
        self.fluid_channel = None
        #: Cross-shard egress hook (conservative PDES). When set, the
        #: link's far end lives on another shard: instead of scheduling
        #: ``peer._deliver_arrival`` locally, the tx path calls
        #: ``remote_egress(arrival_time, packet)`` and the PDES runtime
        #: ships the packet as a timestamped event message. None (one
        #: slot load + branch) on every non-sharded run.
        self.remote_egress = None
        # Counters.
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.ingress_drops = 0
        self.link_down_drops = 0
        self.impairment_drops = 0

    @property
    def qdisc(self) -> Qdisc:
        """The egress queue discipline."""
        return self._qdisc

    @qdisc.setter
    def qdisc(self, value: Qdisc) -> None:
        self._qdisc = value
        # dequeue is resolved once per assignment; the TX path calls it
        # per packet. enqueue stays a dynamic lookup because tests
        # patch it on qdisc instances.
        self._dequeue = value.dequeue

    @property
    def bandwidth(self) -> float:
        """Link rate in bits/s."""
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value: float) -> None:
        if value <= 0:
            raise ValueError("bandwidth must be positive")
        self._bandwidth = value
        # Per-byte serialization time, precomputed so the per-packet
        # transmit path is one multiply instead of a division.
        self._sec_per_byte = 8.0 / value

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; False if the qdisc dropped it."""
        if self.peer is None:
            raise RuntimeError(f"{self!r} is not connected to a link")
        if not self.up:
            # A dead link blackholes silently: the sender learns nothing
            # (exactly like a cable pull — only timeouts reveal it).
            self.link_down_drops += 1
            return False
        if not self._qdisc.enqueue(packet):
            tel = self.sim.telemetry
            if tel is not None and tel.trace is not None:
                tel.trace.emit(
                    self.sim.now, "net", "qdisc_drop",
                    node=self.node.name, iface=self.name,
                    src=packet.src, dst=packet.dst,
                    sport=packet.sport, dport=packet.dport,
                    dscp=packet.dscp, size=packet.size,
                )
            return False
        if not self._busy:
            self._transmit_next()
        return True

    def _transmit_next(self) -> None:
        """Start serialising the qdisc's next packet, or go idle.

        The one tx-start site: ``send`` calls it on an idle
        transmitter, ``_tx_done`` after every completed packet.
        """
        packet = self._dequeue()
        if packet is None:
            self._busy = False
            return
        sim = self.sim
        start = sim._now
        fluid = self.fluid_channel
        if fluid is not None:
            # ``_busy`` is still False only on an idle->busy start.
            start += fluid.on_tx_start(packet, not self._busy)
        self._busy = True
        # Inlined sim.call_fast — this push runs once per packet per hop.
        _heappush(
            sim._queue,
            (
                start + packet.size * self._sec_per_byte,
                _NORMAL,
                next(sim._seq),
                _FAST,
                self._tx_done,
                packet,
            ),
        )

    def _tx_done_impl(self, packet: Packet) -> None:
        if not self.up:
            # The link died while this packet was on the wire.
            self.link_down_drops += 1
            self._transmit_next()
            return
        if self.impairments:
            for impair in self.impairments:
                if impair(packet):
                    self.impairment_drops += 1
                    self._transmit_next()
                    return
        self.tx_packets += 1
        self.tx_bytes += packet.size
        tel = self.sim.telemetry
        if (
            tel is not None
            and tel.trace is not None
            and tel.trace.wants("net", "tx")
        ):
            tel.trace.emit(
                self.sim.now, "net", "tx",
                node=self.node.name, iface=self.name,
                src=packet.src, dst=packet.dst,
                sport=packet.sport, dport=packet.dport,
                dscp=packet.dscp, size=packet.size,
                backlog=len(self.qdisc),
            )
        # Inlined sim.call_fast — propagation arrival at the peer.
        sim = self.sim
        remote = self.remote_egress
        if remote is None:
            _heappush(
                sim._queue,
                (
                    sim._now + self.delay,
                    _NORMAL,
                    next(sim._seq),
                    _FAST,
                    self.peer._deliver_arrival,
                    packet,
                ),
            )
        else:
            # Peer lives on another shard: hand the packet to the PDES
            # runtime stamped with its physical arrival time.
            remote(sim._now + self.delay, packet)
        self._transmit_next()

    def _deliver_arrival(self, packet: Packet) -> None:
        if not self.up:
            # In flight when the link went down: lost in propagation.
            self.link_down_drops += 1
            return
        self.rx_packets += 1
        self.rx_bytes += packet.size
        if self.ingress:
            for conditioner in self.ingress:
                if not conditioner(packet):
                    self.ingress_drops += 1
                    return
        self.node.receive(packet, self)

    def __repr__(self) -> str:
        return f"<Interface {self.node.name}.{self.name}>"


class Node:
    """Base class for hosts and routers."""

    def __init__(self, sim: Simulator, name: str, addr: int) -> None:
        self.sim = sim
        self.name = name
        self.addr = addr
        self.interfaces: List[Interface] = []
        #: Static routing: destination address -> egress interface.
        self.routes: Dict[int, Interface] = {}
        self.ttl_drops = 0
        self.no_route_drops = 0

    def add_interface(
        self,
        bandwidth: float,
        delay: float,
        qdisc: Optional[Qdisc] = None,
    ) -> Interface:
        iface = Interface(
            self, f"eth{len(self.interfaces)}", bandwidth, delay, qdisc
        )
        self.interfaces.append(iface)
        return iface

    def receive(self, packet: Packet, iface: Interface) -> None:
        """Handle a packet arriving at this node: deliver it locally or
        route it out the next-hop interface."""
        if packet.dst == self.addr:
            self.deliver(packet)
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.ttl_drops += 1
            return
        egress = self.routes.get(packet.dst)
        if egress is None:
            self.no_route_drops += 1
            return
        egress.send(packet)

    def deliver(self, packet: Packet) -> None:
        """Pass a locally-addressed packet up the stack."""
        raise NotImplementedError(f"{self.name} cannot terminate packets")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} addr={self.addr}>"


class Host(Node):
    """An end system: terminates transport protocols, owns a CPU.

    Protocol layers (TCP, UDP) register themselves in
    :attr:`protocols`, keyed by IP protocol number. The CPU model is
    attached lazily by :class:`repro.cpu.scheduler.Cpu`.
    """

    def __init__(self, sim: Simulator, name: str, addr: int) -> None:
        super().__init__(sim, name, addr)
        self.protocols: Dict[int, "object"] = {}
        self.unknown_proto_drops = 0
        #: Set by repro.cpu.Cpu when a CPU model is attached.
        self.cpu = None

    def register_protocol(self, proto: int, layer: "object") -> None:
        if proto in self.protocols:
            raise ValueError(f"protocol {proto} already registered on {self.name}")
        self.protocols[proto] = layer

    def deliver(self, packet: Packet) -> None:
        layer = self.protocols.get(packet.proto)
        if layer is None:
            self.unknown_proto_drops += 1
            return
        layer.receive(packet)

    def default_interface(self) -> Interface:
        """The host's (single) attachment; hosts are single-homed here."""
        if not self.interfaces:
            raise RuntimeError(f"{self.name} has no interfaces")
        return self.interfaces[0]

    #: Loopback latency for self-addressed packets.
    LOOPBACK_DELAY = 5e-6

    def send_packet(self, packet: Packet) -> bool:
        """Transport-layer egress: loopback for self-addressed packets,
        the default interface otherwise."""
        if packet.dst == self.addr:
            self.sim.call_fast(self.LOOPBACK_DELAY, self.deliver, packet)
            return True
        try:
            iface = self.interfaces[0]
        except IndexError:
            raise RuntimeError(f"{self.name} has no interfaces") from None
        return iface.send(packet)


class Router(Node):
    """A store-and-forward router.

    QoS behaviour comes from what is installed on it: ingress
    conditioners on its interfaces and (priority) qdiscs on its egress
    ports — see :mod:`repro.diffserv`.
    """

    def deliver(self, packet: Packet) -> None:
        # Routers do not terminate transport flows in this model.
        self.no_route_drops += 1
