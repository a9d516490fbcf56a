"""Substrate microbenchmarks: simulator, TCP, and MPI engine speed.

Unlike the other benches (single whole-simulation runs), these are
true repeated-measurement microbenchmarks of the hot paths, so
regressions in the event loop or the TCP datapath show up directly.
"""

from repro.kernel import Simulator
from repro.mpi import MpiWorld
from repro.net import DropTailQueue, Network, mbps
from repro.transport import TcpLayer


def test_event_loop_throughput(benchmark):
    """Raw timer scheduling/dispatch rate of the kernel."""

    def run_timers():
        sim = Simulator()
        count = 50_000

        def tick():
            pass

        for i in range(count):
            sim.call_in(i * 1e-6, tick)
        sim.run()
        return sim.events_processed

    events = benchmark(run_timers)
    assert events == 50_000


def test_process_switch_throughput(benchmark):
    """Generator-process resume rate (ping-pong via timeouts)."""

    def run_processes():
        sim = Simulator()
        done = []

        def worker():
            for _ in range(5_000):
                yield sim.timeout(1e-6)
            done.append(True)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        return len(done)

    assert benchmark(run_processes) == 4


def test_tcp_bulk_transfer_speed(benchmark):
    """Simulated-bytes-per-wall-second of the TCP datapath."""

    def transfer():
        sim = Simulator()
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, mbps(100), 0.5e-3,
                    lambda: DropTailQueue(limit_packets=2000))
        net.build_routes()
        tcp_a, tcp_b = TcpLayer(a), TcpLayer(b)
        listener = tcp_b.listen(80)
        total = 5_000_000
        state = {}

        def server():
            conn = yield listener.accept()
            got = 0
            while got < total:
                got += yield conn.recv(1 << 20)
            state["got"] = got

        def client():
            conn = tcp_a.connect(b.addr, 80)
            yield conn.established_event
            sent = 0
            while sent < total:
                yield conn.send(1 << 16)
                sent += 1 << 16

        done = sim.process(server())
        sim.process(client())
        sim.run_until_event(done, limit=100.0)
        return state["got"]

    # The client sends whole 64 KB chunks, so the server may read past
    # the nominal total by part of the final chunk.
    assert benchmark(transfer) >= 5_000_000


def test_mpi_pingpong_latency_overhead(benchmark):
    """Engine overhead for many small MPI messages."""

    def pingpong():
        sim = Simulator()
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, mbps(100), 0.1e-3)
        net.build_routes()
        world = MpiWorld(sim, [a, b])
        rounds = 300
        count = []

        def main(comm):
            if comm.rank == 0:
                for _ in range(rounds):
                    yield comm.send(1, nbytes=1000)
                    yield comm.recv(source=1)
                count.append(True)
            else:
                for _ in range(rounds):
                    yield comm.recv(source=0)
                    yield comm.send(0, nbytes=1000)

        procs = world.launch(main)
        sim.run_until_event(sim.all_of(procs), limit=100.0)
        return len(count)

    assert benchmark(pingpong) == 1
