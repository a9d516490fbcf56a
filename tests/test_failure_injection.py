"""Failure-injection tests: revoke resources mid-run and verify both
the degradation (enforcement really was load-bearing) and recovery."""

import pytest

from repro import MpichGQ, Simulator, garnet, kbps, mbps
from repro.apps import CpuHog, UdpTrafficGenerator, VisualizationPipeline
from repro.cpu import Cpu
from repro.gara import CpuReservationSpec


def deploy(seed=29, backbone=mbps(30), contention=mbps(40)):
    sim = Simulator(seed=seed)
    testbed = garnet(sim, backbone_bandwidth=backbone)
    gq = MpichGQ.on_garnet(testbed)
    gen = UdpTrafficGenerator(
        testbed.competitive_src, testbed.competitive_dst, rate=contention
    )
    gen.start()
    return sim, testbed, gq


class TestNetworkReservationRevocation:
    def test_cancel_mid_stream_collapses_throughput(self):
        sim, testbed, gq = deploy()
        reservation = gq.agent.reserve_flows(0, 1, kbps(2000))
        app = VisualizationPipeline(frame_bytes=20_000, fps=10, duration=10.0)
        gq.world.launch(app.main)
        sim.call_at(5.0, reservation.cancel)
        sim.run(until=40.0)
        reserved_rate = app.achieved_bandwidth_kbps(1.0, 5.0)
        revoked_rate = app.achieved_bandwidth_kbps(5.5, 10.0)
        assert reserved_rate > 0.9 * 1600
        assert revoked_rate < 0.5 * reserved_rate

    def test_expiry_mid_stream_behaves_like_cancel(self):
        sim, testbed, gq = deploy()
        gq.agent.reserve_flows(0, 1, kbps(2000), duration=5.0)
        app = VisualizationPipeline(frame_bytes=20_000, fps=10, duration=10.0)
        gq.world.launch(app.main)
        sim.run(until=40.0)
        during = app.achieved_bandwidth_kbps(1.0, 5.0)
        after = app.achieved_bandwidth_kbps(5.5, 10.0)
        assert after < 0.5 * during

    def test_re_reservation_restores(self):
        sim, testbed, gq = deploy()
        gq.agent.reserve_flows(0, 1, kbps(2000), duration=4.0)
        sim.call_at(8.0, gq.agent.reserve_flows, 0, 1, kbps(2000))
        app = VisualizationPipeline(frame_bytes=20_000, fps=10, duration=14.0)
        gq.world.launch(app.main)
        sim.run(until=60.0)
        phase_reserved = app.achieved_bandwidth_kbps(1.0, 4.0)
        phase_gap = app.achieved_bandwidth_kbps(4.5, 8.0)
        phase_restored = app.achieved_bandwidth_kbps(9.5, 14.0)
        assert phase_gap < 0.6 * phase_reserved
        assert phase_restored > 0.85 * phase_reserved


class TestLinkBlackhole:
    def test_tcp_and_mpi_survive_transient_blackhole(self):
        # Drop every backbone packet for two seconds mid-transfer; the
        # MPI transfer must stall and then complete intact.
        sim, testbed, gq = deploy(contention=mbps(1))
        iface = testbed.forward_backbone[0]
        original_enqueue = iface.qdisc.enqueue

        def blackhole(packet):
            return False

        sim.call_at(0.05, lambda: setattr(iface.qdisc, "enqueue", blackhole))
        sim.call_at(
            2.0, lambda: setattr(iface.qdisc, "enqueue", original_enqueue)
        )
        got = []

        def main(comm):
            if comm.rank == 0:
                for i in range(20):
                    yield comm.send(1, nbytes=20_000, tag=0, data=i)
            else:
                for i in range(20):
                    data, _ = yield comm.recv(source=0, tag=0)
                    got.append(data)

        procs = gq.world.launch(main)
        sim.run_until_event(sim.all_of(procs), limit=120.0)
        assert got == list(range(20))
        assert sim.now > 2.0  # really was stalled across the blackhole


class TestCpuReservationRevocation:
    def test_expiry_under_standing_hog(self):
        sim, testbed, gq = deploy(contention=mbps(1))
        sender = testbed.premium_src
        cpu = Cpu(sim, host=sender)
        CpuHog(sender).start()
        app = VisualizationPipeline(
            frame_bytes=20_000, fps=10, duration=10.0, work_fraction=0.85
        )
        reservation = gq.gara.reserve(
            CpuReservationSpec(cpu, 0.9), duration=5.0
        )

        def bind():
            while app._cpu_task is None:
                yield sim.timeout(0.05)
            gq.gara.bind(reservation, app._cpu_task)

        sim.process(bind())
        gq.world.launch(app.main)
        sim.run(until=60.0)
        protected = app.achieved_bandwidth_kbps(1.0, 5.0)
        exposed = app.achieved_bandwidth_kbps(5.5, 10.0)
        assert protected > 0.9 * 1600
        assert exposed < 0.8 * protected


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fig8_shape_holds_across_seeds(self, seed):
        from repro.experiments.fig8_cpu_reservation import check, run

        assert check(run(quick=True, seed=seed)) == []
