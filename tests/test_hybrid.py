"""Hybrid mode: fluid background traffic hung on the per-packet egress.

Two contracts are pinned here:

* a :class:`FluidChannel` installed on an interface is consulted at
  every tx-start of the ordinary per-packet chain — standing backlog of
  the same or a higher band is served ahead of the packet, a strictly
  higher-priority packet is not delayed by it;
* a hybrid fig1 run tracks packet mode within the documented fidelity
  bounds, and its credited-event accounting is live.
"""

import pytest

from repro import telemetry
from repro.diffserv import EF
from repro.experiments.common import build_deployment
from repro.kernel import Simulator
from repro.net import Network, Packet, mbps
from repro.net.fluid import FluidChannel


class _Sink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append(self.sim.now)


class TestFluidChannelOnPacketPath:
    """The fluid hook on an otherwise idle interface, no engine ticking:
    backlog and utilization are set by hand."""

    SIZE = 1000
    BANDWIDTH = mbps(10.0)
    DELAY = 1e-3

    def _link(self):
        sim = Simulator(seed=0)
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, self.BANDWIDTH, delay=self.DELAY)
        sink = _Sink(sim)
        b.register_protocol(17, sink)
        return sim, a, b, sink

    def _send(self, a, b, dscp):
        a.send_packet(
            Packet(a.addr, b.addr, 1000, 2000, 17, self.SIZE, None, dscp)
        )

    def test_same_class_packet_waits_behind_the_backlog(self):
        sim, a, b, sink = self._link()
        channel = FluidChannel(a.interfaces[0], klass=2, packet_bytes=1500)
        channel.backlog_bytes = 5000.0
        self._send(a, b, dscp=0)  # best effort: the fluid's own band
        sim.run(until=1.0)
        serialization = self.SIZE * 8 / self.BANDWIDTH
        wait = 5000.0 * 8 / self.BANDWIDTH
        assert sink.arrivals == [
            pytest.approx(wait + serialization + self.DELAY, abs=1e-12)
        ]
        # The backlog went onto the line ahead of the packet.
        assert channel.backlog_bytes == 0.0
        assert channel.fluid_sent_bytes == 5000.0

    def test_higher_class_packet_is_not_delayed_at_zero_utilization(self):
        sim, a, b, sink = self._link()
        channel = FluidChannel(a.interfaces[0], klass=2, packet_bytes=1500)
        channel.backlog_bytes = 5000.0
        assert channel.utilization == 0.0
        self._send(a, b, dscp=EF)
        sim.run(until=1.0)
        serialization = self.SIZE * 8 / self.BANDWIDTH
        assert sink.arrivals == [serialization + self.DELAY]
        assert channel.backlog_bytes == 5000.0


def _fig1(mode, duration):
    from repro.experiments import fig1_tcp_reservation

    return fig1_tcp_reservation.run(
        quick=True, seed=0, duration=duration, mode=mode
    )


class TestHybridMode:
    def test_mode_validation(self):
        # "batch" was removed with the batched egress; no alias.
        for mode in ("turbo", "batch"):
            with pytest.raises(ValueError):
                build_deployment(mode=mode)

    def test_only_hybrid_deployments_get_a_fluid_engine(self):
        packet = build_deployment(contention_rate=mbps(30.0), mode="packet")
        assert packet.contention.fluid_engine is None
        assert packet.contention.fluid is None
        hybrid = build_deployment(contention_rate=mbps(30.0), mode="hybrid")
        engine = hybrid.contention.fluid_engine
        assert hybrid.contention.fluid in engine.aggregates

    def test_hybrid_credits_events_and_tracks_packet_mode(self):
        """Short-horizon sanity: the fluid engine must be live (events
        credited, UDP contention elided) and the foreground TCP mean
        must stay within the *chaos* bound for this horizon (TCP
        trajectories diverge under µs perturbations; the strict 1%
        bound needs the 60 s horizon, which ``benchmarks/pins.py``
        runs)."""
        session = telemetry.install(telemetry.Telemetry(instrument=False))
        try:
            hybrid = _fig1("hybrid", 12.0)
            # Before uninstall(): detaching forgets the simulators.
            _processed, credited = session.event_counts()
        finally:
            telemetry.uninstall()
        assert hybrid.extra["mode"] == "hybrid"
        packet = _fig1("packet", 12.0)
        err = abs(
            hybrid.extra["mean_kbps"] - packet.extra["mean_kbps"]
        ) / packet.extra["mean_kbps"]
        assert err < 0.05, f"hybrid diverged {err:.1%} at 12 s"
        # The elided contention stream is substantial: ~2.5k
        # datagrams/s at 30 Mb/s, each worth 2*hops+2 events, so the
        # credit over 12 s is six figures.
        assert credited > 100_000
