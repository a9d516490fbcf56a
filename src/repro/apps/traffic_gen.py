"""The UDP contention generator.

"Contention is generated via a UDP traffic generator that is quite
capable of overwhelming any TCP application that does not have a
reservation" (§5.2). Constant-bit-rate by default, with an optional
on/off duty cycle for burstier contention.
"""

from __future__ import annotations

from typing import Optional

from ..kernel import Counter, Simulator
from ..net.node import Host
from ..net.packet import PROTO_UDP
from ..transport.udp import UDP_MAX_PAYLOAD, UdpLayer

__all__ = ["UdpTrafficGenerator"]


class UdpTrafficGenerator:
    """Blasts UDP datagrams from ``src`` to ``dst`` at ``rate`` bits/s."""

    def __init__(
        self,
        src: Host,
        dst: Host,
        rate: float,
        payload_bytes: int = UDP_MAX_PAYLOAD,
        port: int = 9001,
        on_time: Optional[float] = None,
        off_time: Optional[float] = None,
        fluid_engine=None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if not 0 < payload_bytes <= UDP_MAX_PAYLOAD:
            raise ValueError("bad payload size")
        if (on_time is None) != (off_time is None):
            raise ValueError("on_time and off_time go together")
        self.sim: Simulator = src.sim
        self.src = src
        self.dst = dst
        self.rate = rate
        self.payload_bytes = payload_bytes
        self.port = port
        self.on_time = on_time
        self.off_time = off_time
        self._running = False
        layer = src.protocols.get(PROTO_UDP)
        self.udp = layer if isinstance(layer, UdpLayer) else UdpLayer(src)
        self.socket = self.udp.create_socket()
        self.sent = Counter(self.sim, "udp-gen-sent")
        # A sink on the destination so datagrams terminate cleanly.
        dst_layer = dst.protocols.get(PROTO_UDP)
        dst_udp = dst_layer if isinstance(dst_layer, UdpLayer) else UdpLayer(dst)
        self._dst_udp = dst_udp
        self.sink = dst_udp.create_socket(port=port)
        #: Hybrid runs hand over a :class:`repro.net.fluid.FluidEngine`;
        #: the generator then advances as a rate envelope
        #: (:attr:`fluid`, a :class:`repro.net.fluid.FluidAggregate`)
        #: instead of sending packets.
        self.fluid_engine = fluid_engine
        self.fluid = None
        self.sim.process(self._sink_loop(), name="udp-gen-sink")

    def _sink_loop(self):
        while True:
            yield self.sink.recvfrom()

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        if self.fluid_engine is not None:
            self._start_fluid()
            return
        self.sim.process(self._send_loop(), name="udp-gen")

    def stop(self) -> None:
        self._running = False
        if self.fluid is not None:
            self.fluid.running = False

    def _start_fluid(self) -> None:
        """Hybrid mode: advance as a rate envelope instead of sending
        packets — the blaster is exactly the open-loop, constant-rate
        aggregate the fluid approximation is valid for."""
        if self.fluid is None:
            from ..net.fluid import FluidAggregate  # late: apps<->net layering

            wire_bytes = self.payload_bytes + 28  # IP + UDP headers
            payload_share = self.payload_bytes / wire_bytes
            aggregate = FluidAggregate(
                self.src,
                self.dst,
                rate=self.rate,
                packet_bytes=wire_bytes,
                dscp=self.socket.dscp,
                on_time=self.on_time,
                off_time=self.off_time,
            )
            # Keep the packet-world counters meaningful: offered wire
            # bytes feed the sent counter (payload share, like sendto),
            # deliveries tally the sink layer's datagram count.
            aggregate.on_offered = lambda b: self.sent.add(b * payload_share)
            previous = {"datagrams": 0}

            def on_delivered(_bytes: float) -> None:
                total = aggregate.delivered_datagrams
                self._dst_udp.rx_datagrams += total - previous["datagrams"]
                previous["datagrams"] = total

            aggregate.on_delivered = on_delivered
            self.fluid = self.fluid_engine.register(aggregate)
        self.fluid.running = True
        self.fluid._phase_start = self.sim.now

    @property
    def interval(self) -> float:
        """Inter-datagram gap at the configured rate."""
        return (self.payload_bytes + 28) * 8.0 / self.rate

    def _send_loop(self):
        period_start = self.sim.now
        # The gap is hoisted out of the loop: rate/payload are fixed
        # while running (stop()/start() picks up reconfiguration).
        interval = self.interval
        while self._running:
            if self.on_time is not None:
                phase = (self.sim.now - period_start) % (
                    self.on_time + self.off_time
                )
                if phase >= self.on_time:
                    yield self.sim.timeout(
                        self.on_time + self.off_time - phase
                    )
                    continue
            self.socket.sendto(self.payload_bytes, self.dst.addr, self.port)
            self.sent.add(self.payload_bytes)
            yield self.sim.timeout(interval)
