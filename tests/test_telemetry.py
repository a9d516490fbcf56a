"""Tests for the cross-layer telemetry subsystem (repro.telemetry)."""

import json

import pytest

from repro import telemetry
from repro.aqm import AQM_MODES, AqmPolicy
from repro.core.mpichgq import MpichGQ
from repro.diffserv import EF
from repro.kernel import Simulator
from repro.net import garnet, kbps, mbps
from repro.telemetry import (
    FlowTrace,
    MetricsRegistry,
    Telemetry,
)


def pingpong_deployment(seed=7, aqm=None):
    sim = Simulator(seed=seed)
    tb = garnet(sim, backbone_bandwidth=mbps(10))
    gq = MpichGQ.on_garnet(tb, aqm=aqm)
    return sim, tb, gq


def run_one_message(sim, gq, nbytes=10_000):
    def main(comm):
        if comm.rank == 0:
            yield comm.send(1, nbytes=nbytes)
        else:
            yield comm.recv(source=0)

    procs = gq.world.launch(main)
    sim.run_until_event(sim.all_of(procs), limit=30.0)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("tcp.conn3.retransmits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("tcp.conn3.retransmits") is c  # same instrument

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_name_collision_across_types_raises(self):
        reg = MetricsRegistry()
        reg.counter("diffserv.edge1.policer.drops")
        with pytest.raises(TypeError):
            reg.gauge("diffserv.edge1.policer.drops")
        with pytest.raises(TypeError):
            reg.histogram("diffserv.edge1.policer.drops")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("tcp.rtt_seconds")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(99) == pytest.approx(99.01)
        assert h.min == 1.0 and h.max == 100.0
        snap = h.snapshot()
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p90"] == pytest.approx(90.1)
        assert snap["mean"] == pytest.approx(50.5)

    def test_histogram_sample_cap_keeps_exact_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", max_samples=10)
        for v in range(100):
            h.observe(float(v))
        assert len(h.samples) == 10
        assert h.count == 100
        assert h.max == 99.0

    def test_histogram_reservoir_tracks_whole_run(self):
        # Pre-PR-8 the buffer was a plain truncation: after the cap the
        # percentiles froze on the first max_samples observations. The
        # reservoir must keep sampling the tail of the stream.
        reg = MetricsRegistry()
        h = reg.histogram("h", max_samples=64)
        for _ in range(64):
            h.observe(1.0)
        for _ in range(10_000):
            h.observe(1000.0)
        # ~99.4% of observations were 1000.0; a truncated buffer would
        # still report p50 == 1.0.
        assert h.percentile(50) == 1000.0
        assert h.count == 10_064
        assert h.total == pytest.approx(64 + 10_000 * 1000.0)

    def test_histogram_reservoir_deterministic_per_name(self):
        def samples(name):
            reg = MetricsRegistry()
            h = reg.histogram(name, max_samples=8)
            for i in range(200):
                h.observe(float(i))
            return tuple(h.samples)

        # Same metric name -> identical reservoir, across registries
        # and processes (the seed is a CRC of the name, not hash()).
        assert samples("tcp.rtt") == samples("tcp.rtt")
        assert samples("tcp.rtt") != samples("udp.rtt")

    def test_names_prefix_query(self):
        reg = MetricsRegistry()
        reg.counter("tcp.a.retransmits")
        reg.counter("tcp.b.retransmits")
        reg.counter("net.r1.tx_bytes")
        assert reg.names("tcp") == ["tcp.a.retransmits", "tcp.b.retransmits"]
        assert len(reg.names()) == 3


class TestDisabledMode:
    def test_unattached_simulation_records_nothing(self):
        """With no telemetry attached, the guarded emit sites must all
        stay silent: a full MPI message exchange leaves a fresh
        Telemetry completely empty."""
        sim, tb, gq = pingpong_deployment()
        gq.agent.reserve_flows(0, 1, kbps(500))
        tel = Telemetry(trace=True)  # never attached
        run_one_message(sim, gq)
        assert sim.telemetry is None
        assert len(tel.trace) == 0
        assert len(tel.registry) == 0
        snap = tel.snapshot()
        assert snap["metrics"] == {}
        assert snap["span_count"] == 0

    def test_record_only_session_counts_events_without_instrumenting(self):
        """The executor's telemetry-off session: build_deployment hands
        it the simulator, the datapath stays on its guard-only path."""
        from repro.experiments.common import build_deployment

        tel = telemetry.install(Telemetry(instrument=False))
        try:
            dep = build_deployment(seed=1, contention_rate=mbps(1.0))
            assert dep.sim.telemetry is None
            dep.sim.run(until=0.1)
            assert dep.sim.events_processed > 0
            assert tel.event_counts() == (dep.sim.events_processed, 0)
        finally:
            telemetry.uninstall()

    def test_no_active_session_by_default(self):
        assert telemetry.active() is None

    def test_install_uninstall_roundtrip(self):
        tel = Telemetry()
        assert telemetry.install(tel) is tel
        assert telemetry.active() is tel
        telemetry.uninstall()
        assert telemetry.active() is None


class TestSpanTrace:
    def test_pingpong_message_crosses_all_layers(self):
        """One premium pingpong message is visible at every layer of
        the stack: MPI send/delivery, the GARA admission, DiffServ
        marking at the edge, TCP segments, and wire transmissions."""
        sim, tb, gq = pingpong_deployment()
        tel = Telemetry(trace=True)
        tel.attach(sim)
        gq.agent.reserve_flows(0, 1, kbps(500))
        run_one_message(sim, gq)

        trace = tel.trace
        assert {"mpi", "gara", "diffserv", "tcp", "net"} <= set(trace.layers())

        # The GARA admission for the reservation was recorded.
        admits = [e for e in trace.for_layer("gara") if e.name == "admit"]
        assert len(admits) >= 1

        # The MPI message opened a span closed by the receiver.
        spans = trace.spans()
        assert len(spans) == 1
        events = trace.events_for(spans[0])
        names = [e.name for e in events]
        assert names[0] == "send"
        assert names[-1] == "delivered"
        send, delivered = events[0], events[-1]
        assert send.fields["src_rank"] == 0
        assert delivered.fields["dst_rank"] == 1
        assert delivered.time > send.time

        # Wire-level events carry flow identity for joining: the EF
        # marking and the segments share the reserved flow's DSCP.
        marks = [e for e in trace.for_layer("diffserv") if e.name == "mark"]
        assert any(e.fields.get("dscp") == EF for e in marks)
        assert len(trace.for_layer("tcp")) > 0
        assert any(
            e.fields.get("dscp") == EF for e in trace.for_layer("net")
        )

    def test_trace_predicate_and_limit(self):
        trace = FlowTrace(predicate=lambda e: e.layer == "mpi", limit=2)
        trace.emit(0.0, "net", "tx")
        trace.emit(0.1, "mpi", "send")
        trace.emit(0.2, "mpi", "send")
        trace.emit(0.3, "mpi", "send")
        assert len(trace) == 2
        assert trace.dropped == 1  # third mpi event over the cap
        assert trace.layers() == ["mpi"]


class TestCollectAndSnapshot:
    def test_scraped_metrics_cover_the_stack(self):
        sim, tb, gq = pingpong_deployment()
        tel = Telemetry()
        tel.attach(sim)
        tel.observe(gq)
        gq.agent.reserve_flows(0, 1, kbps(500))
        run_one_message(sim, gq)
        tel.collect()
        reg = tel.registry
        assert reg.counter("mpi.rank0.bytes_sent").value == 10_000
        assert reg.counter("gara.broker.admissions").value == 1
        assert len(reg.names("tcp")) > 0  # per-connection counters
        retrans = [n for n in reg.names("tcp") if n.endswith(".retransmits")]
        assert retrans  # instruments exist even when the count is 0

    @pytest.mark.parametrize("mode", AQM_MODES)
    def test_collect_and_export_under_every_aqm_mode(self, mode, tmp_path):
        # Only RED/WRED bands keep an EWMA queue average; the sojourn-
        # time disciplines (CoDel, PIE, DualPI2) must still scrape.
        sim, _, gq = pingpong_deployment(aqm=AqmPolicy(mode=mode))
        tel = Telemetry()
        tel.attach(sim)
        tel.observe(gq)
        run_one_message(sim, gq)
        tel.collect()
        gauges = [
            n for n in tel.registry.names("net")
            if n.endswith(".avg_queue_packets")
        ]
        assert bool(gauges) == mode.startswith("wred")
        path = telemetry.export_json(tel, tmp_path / "metrics.json")
        assert json.loads(path.read_text())["metrics"]

    def test_scraped_metrics_cover_resilience_counters(self):
        # The resilient control plane publishes its recovery and
        # two-phase counters through the same collect() pipeline.
        sim = Simulator(seed=7)
        tb = garnet(sim, backbone_bandwidth=mbps(10))
        gq = MpichGQ.on_garnet(tb, resilient=True)
        tel = Telemetry()
        tel.attach(sim)
        tel.observe(gq)
        gq.agent.reserve_flows(0, 1, kbps(500))
        sim.call_at(2.0, gq.broker.crash)
        sim.call_at(4.0, gq.broker.restart)
        run_one_message(sim, gq)
        sim.run(until=8.0)
        tel.collect()
        reg = tel.registry
        assert reg.counter("gara.recovery.broker_crashes").value == 1
        assert reg.counter("gara.recovery.broker_restarts").value == 1
        replays = reg.counter("gara.recovery.journal_replays").value
        assert replays == reg.counter("gara.recovery.journal_records").value
        assert replays >= 1
        assert reg.counter("gara.recovery.suspicions").value == 1
        assert reg.counter("gara.recovery.recoveries").value == 1
        # Two-phase instruments exist even when no co-reservation ran.
        assert reg.counter("gara.twophase.transactions").value == 0
        assert reg.counter("gara.twophase.prepare_timeouts").value == 0

    def test_broker_service_and_client_collectors(self):
        import asyncio

        from repro.broker_service import BrokerClient, BrokerService
        from repro.gara import BandwidthBroker
        from repro.net import Network
        from repro.resilience import Journal
        from repro.telemetry import MetricsRegistry, collect_any

        async def go():
            sim = Simulator(seed=6)
            network = Network(sim)
            a = network.add_host("a")
            b = network.add_host("b")
            network.connect(a, b, bandwidth=mbps(10), delay=1e-4)
            network.build_routes()
            broker = BandwidthBroker(network, journal=Journal("j"))
            service = BrokerService(
                broker, Journal("svc"), tick=None, evict_after=1.0
            )
            await service.start()
            client = BrokerClient("127.0.0.1", service.port, name="c0")
            res = await client.reserve("a", "b", mbps(2), 0.0, 10.0)
            await client.heartbeat()
            reg = MetricsRegistry()
            collect_any(reg, service)  # duck-typed: BrokerService
            collect_any(reg, client)   # duck-typed: BrokerClient
            assert reg.counter("broker_service.admissions").value == 1
            assert reg.gauge("broker_service.live_reservations").value == 1
            assert reg.counter("broker_service.heartbeats").value == 1
            assert reg.gauge("broker_service.detector.watches").value == 1
            assert reg.counter("broker_client.c0.requests").value >= 2
            assert reg.counter("broker_client.c0.heartbeats_sent").value == 1
            # The underlying broker is scraped through the service.
            assert reg.counter("gara.broker.admissions").value == 1
            await client.cancel(res)
            await client.close()
            await service.close()

        asyncio.run(go())

    def test_detach_restores_plain_simulator(self):
        sim = Simulator(seed=1)
        tel = Telemetry(trace=True)
        tel.attach(sim)
        assert sim.telemetry is tel
        tel.detach(sim)
        assert sim.telemetry is None
        assert not hasattr(sim, "_profiler")
        tel.attach(sim)  # round-trips: a detached simulator re-attaches
        assert sim.telemetry is tel
