"""Conservative PDES: kernel window primitives, partitioning, grid
routing, boundary-message ordering, and the shard-count-invariance
contract (N-shard merged output byte-identical to 1-shard)."""

from __future__ import annotations

import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import Simulator
from repro.kernel.events import NORMAL
from repro.kernel.simulator import SimulationError
from repro.net import garnet, mbps
from repro.net.grid import garnet_grid, plan_flows
from repro.net.packet import PROTO_UDP, Packet
from repro.net.topology import Network, partition_topology
from repro.pdes import ShardRunner, get_scenario, make_plan, run_scenario
from repro.transport.udp import UdpLayer


# -- kernel window primitives -------------------------------------------


def test_run_window_is_strictly_exclusive():
    sim = Simulator(seed=0)
    hits = []
    sim.call_at(1.0, hits.append, "inside")
    sim.call_at(2.0, hits.append, "at-limit")
    sim.run_window(2.0)
    assert hits == ["inside"]
    assert sim.now < 2.0
    sim.run_window(math.nextafter(2.0, math.inf))
    assert hits == ["inside", "at-limit"]


def test_run_window_noop_at_or_below_now():
    sim = Simulator(seed=0)
    sim.run(until=1.0)
    sim.run_window(0.5)
    sim.run_window(1.0)
    assert sim.now == 1.0


def test_inject_rejects_past_times():
    sim = Simulator(seed=0)
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="lookahead"):
        sim.inject(0.5, NORMAL, lambda _: None, None)
    # Exactly now is legal: a boundary message may arrive at the
    # window edge the clock already sits on.
    hits = []
    sim.inject(1.0, NORMAL, hits.append, "now")
    sim.run(until=2.0)
    assert hits == ["now"]


def test_rng_stream_is_named_and_creation_order_free():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    # Opposite creation orders, same names: same streams.
    left = sim_a.rng_stream("flows").random(4).tolist()
    _ = sim_a.rng_stream("background").random(4)
    _ = sim_b.rng_stream("background").random(4)
    right = sim_b.rng_stream("flows").random(4).tolist()
    assert left == right
    # The same name returns the same (advancing) generator.
    assert sim_a.rng_stream("flows") is sim_a.rng_stream("flows")
    # Different seeds diverge.
    assert Simulator(seed=8).rng_stream("flows").random(4).tolist() != left


# -- topology partitioner -----------------------------------------------


def _line_network(delays):
    sim = Simulator(seed=0)
    net = Network(sim)
    hosts = [net.add_host(f"h{i}") for i in range(len(delays) + 1)]
    for i, delay in enumerate(delays):
        net.connect(hosts[i], hosts[i + 1], mbps(10), delay)
    return net


def test_partition_cuts_the_highest_delay_links():
    # Cheapest-first merging must leave the two most expensive links
    # as the cuts.
    net = _line_network([1e-3, 5e-3, 1e-3, 9e-3, 1e-3, 1e-3])
    assignment = partition_topology(net, 3)
    groups = {}
    for name, shard in assignment.items():
        groups.setdefault(shard, set()).add(name)
    assert sorted(map(sorted, groups.values())) == [
        ["h0", "h1"], ["h2", "h3"], ["h4", "h5", "h6"],
    ]
    plan = make_plan(net, 3)
    assert plan.lookahead == 5e-3
    assert len(plan.cut_links) == 2


def test_partition_single_shard_and_hint_round_trip():
    net = _line_network([1e-3, 1e-3])
    assert set(partition_topology(net, 1).values()) == {0}
    hint = {"h0": 0, "h1": 1, "h2": 1}
    assert partition_topology(net, 2, hint=hint) == hint
    with pytest.raises(ValueError, match="missing nodes"):
        partition_topology(net, 2, hint={"h0": 0})
    with pytest.raises(ValueError, match="shard ids"):
        partition_topology(net, 2, hint={"h0": 0, "h1": 0, "h2": 2})


def test_partition_rejects_zero_delay_cuts():
    net = _line_network([0.0, 1e-3])
    with pytest.raises(ValueError, match="zero-delay"):
        make_plan(net, 3)


def test_garnet_two_way_split_cuts_the_backbone():
    tb = garnet(Simulator(seed=0))
    plan = make_plan(tb.network, 2)
    a = plan.owner("premium_src")
    assert plan.owner("competitive_src") == a
    assert plan.owner("edge1") == a
    b = plan.owner("premium_dst")
    assert b != a
    assert plan.owner("competitive_dst") == b
    assert plan.owner("edge2") == b
    # The cut rides a backbone link, so the lookahead is the backbone
    # propagation delay.
    assert plan.lookahead == pytest.approx(0.5e-3)


# -- grid topology and routing ------------------------------------------


def test_grid_routing_delivers_and_counts_hops():
    sim = Simulator(seed=0)
    tb = garnet_grid(sim, 3, 4)
    src = tb.host_at(0, 0)
    dst = tb.host_at(2, 3)
    got = []

    class Sink:
        def receive(self, packet):
            got.append((packet.dscp, packet.ttl))

    dst.register_protocol(PROTO_UDP, Sink())
    pkt = Packet(
        src=src.addr, dst=dst.addr, sport=1, dport=9000,
        proto=PROTO_UDP, size=500, dscp=18, ttl=64,
    )
    src.send_packet(pkt)
    sim.run(until=1.0)
    # Dimension-ordered: 3 east + 2 south hops = 6 routers decrement.
    assert got == [(18, 64 - 6)]


def test_grid_torus_wraps_and_validates():
    with pytest.raises(ValueError, match="torus"):
        garnet_grid(Simulator(seed=0), 2, 5, torus=True)
    sim = Simulator(seed=0)
    tb = garnet_grid(sim, 3, 3, torus=True)
    got = []

    class Sink:
        def receive(self, packet):
            got.append(packet.ttl)

    tb.host_at(2, 2).register_protocol(PROTO_UDP, Sink())
    pkt = Packet(
        src=tb.host_at(0, 0).addr, dst=tb.host_at(2, 2).addr,
        sport=1, dport=9000, proto=PROTO_UDP, size=500,
    )
    tb.host_at(0, 0).send_packet(pkt)
    sim.run(until=1.0)
    # Wrap west then wrap north: r0_0, r0_2, r2_2 each decrement (3
    # routers), never the 5-router interior path.
    assert got == [64 - 3]


def test_grid_partition_hint_stripes_rows():
    tb = garnet_grid(Simulator(seed=0), 4, 3)
    hint = tb.partition_hint(2)
    assert hint["r0_0"] == hint["h0_2"] == 0
    assert hint["r3_0"] == hint["h3_1"] == 1
    plan = make_plan(tb.network, 2, hint=hint)
    # Only the row-1/row-2 vertical links are cut.
    assert len(plan.cut_links) == 3
    assert plan.lookahead == pytest.approx(tb.link_delay)
    with pytest.raises(ValueError, match="rows"):
        tb.partition_hint(9)


def test_plan_flows_is_deterministic_and_class_mixed():
    # Wider than the locality window, so no offset wraps back onto the
    # source cell.
    tb = garnet_grid(Simulator(seed=0), 12, 12)
    flows_a = plan_flows(tb, 500, Simulator(seed=5).rng_stream("f"))
    flows_b = plan_flows(tb, 500, Simulator(seed=5).rng_stream("f"))
    assert flows_a == flows_b
    assert all(f.src_cell != f.dst_cell for f in flows_a)
    mix = {dscp: 0 for dscp in (46, 18, 0)}
    for f in flows_a:
        mix[f.dscp] += 1
    assert mix[0] > mix[18] > mix[46] > 0


# -- boundary-message ordering (the conservative protocol's core) --------


class _RecordingIngress:
    def __init__(self, log, key):
        self.log = log
        self.key = key

    def _deliver_arrival(self, payload):
        self.log.append((self.key, payload))


@settings(max_examples=50, deadline=None)
@given(
    msgs=st.lists(
        st.tuples(
            st.integers(0, 3),                     # link
            st.integers(0, 1),                     # direction
            st.sampled_from([1.0, 1.5, 2.0, 2.5]),  # arrival
            st.integers(0, 7),                     # channel seq
        ),
        min_size=1, max_size=24, unique=True,
    ),
    shuffle_seed=st.integers(0, 2**32 - 1),
)
def test_boundary_events_process_in_time_priority_seq_order(
    msgs, shuffle_seed
):
    """However peers interleave boundary messages, the receiving shard
    processes them in (time, priority, seq) order — i.e. exactly the
    order of the sorted (arrival, link, direction, channel-seq) keys."""
    import random

    sim = Simulator(seed=0)
    log = []
    runner = ShardRunner.__new__(ShardRunner)  # skip the topology build
    runner.sim = sim
    runner.boundary_in = 0
    runner._ingress = {
        (link, direction): _RecordingIngress(log, (link, direction))
        for link in range(4)
        for direction in range(2)
    }
    shuffled = [
        (arrival, link, direction, seq,
         pickle.dumps((link, direction, arrival, seq)))
        for link, direction, arrival, seq in msgs
    ]
    random.Random(shuffle_seed).shuffle(shuffled)
    ShardRunner.inject(runner, shuffled)
    sim.run(until=10.0)
    expected = [
        ((link, direction), (link, direction, arrival, seq))
        for link, direction, arrival, seq in sorted(
            msgs, key=lambda m: (m[2], m[0], m[1], m[3])
        )
    ]
    assert log == expected
    assert runner.boundary_in == len(msgs)


def test_non_owned_boundary_egress_trips_loudly():
    scenario = get_scenario("garnet_small")
    topo = scenario.topology(Simulator(seed=0))
    plan = make_plan(topo.network, 2, hint=scenario.hint(topo, 2))
    runner = ShardRunner(scenario, 0, plan, 0)
    # Send from a host the *other* shard owns: its packet path crosses
    # a cut link via a non-owned interface, which must raise rather
    # than silently double-deliver.
    foreign = next(
        h for h in runner.handle.testbed.hosts if not runner.owns(h.name)
    )
    peer_cell = runner.handle.testbed.hosts.index(foreign)
    target = runner.handle.testbed.hosts[
        (peer_cell + len(runner.handle.testbed.hosts) // 2)
        % len(runner.handle.testbed.hosts)
    ]
    udp = UdpLayer(foreign)
    sock = udp.create_socket()
    sock.sendto(100, target.addr, 9000)
    with pytest.raises(SimulationError, match="non-owned"):
        runner.sim.run(until=1.0)


# -- shard-count invariance (the tentpole contract) ----------------------


def _merged(scenario, shards, backend="inline", **kwargs):
    result = run_scenario(scenario, shards=shards, backend=backend, **kwargs)
    return json.dumps(result.merged, sort_keys=True), result


def test_garnet_small_is_shard_count_invariant():
    ref, r1 = _merged("garnet_small", 1, seed=3)
    for shards in (2, 4):
        got, rn = _merged("garnet_small", shards, seed=3)
        assert got == ref, f"{shards}-shard merge diverged"
        assert rn.total_events == r1.total_events
        assert sum(rn.boundary_messages) > 0
        assert rn.windows > 1


def test_fig1_short_run_is_shard_count_invariant():
    # 2.5 simulated seconds crosses slow start, the policer, and UDP
    # contention; the premium TCP connection spans the cut.
    ref, r1 = _merged("fig1", 1, seed=0, duration=2.5)
    got, r2 = _merged("fig1", 2, seed=0, duration=2.5)
    assert got == ref
    assert r2.total_events == r1.total_events
    assert r1.merged["delivered_bytes"] > 0
    assert r1.merged["contention_rx_datagrams"] > 0


def test_fig1_experiment_is_shard_count_invariant():
    """The experiment itself, not only the scenario behind it: the
    sharded ``run`` assembles the result a serial run does."""
    from repro.experiments import fig1_tcp_reservation

    serial = fig1_tcp_reservation.run(quick=True, duration=2.5)
    assert len(serial.rows) == 3 and serial.extra["retransmissions"] > 0
    for shards in (1, 2):
        sharded = fig1_tcp_reservation.run(
            quick=True, duration=2.5, shards=shards
        )
        assert sharded.rows == serial.rows
        assert sharded.extra == serial.extra
    for fixed in (dict(mode="hybrid"), dict(recovery="newreno")):
        with pytest.raises(ValueError, match="sharded fig1"):
            fig1_tcp_reservation.run(quick=True, shards=2, **fixed)


def test_fork_backend_matches_inline():
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    inline, ri = _merged("garnet_small", 2, backend="inline", seed=3)
    forked, rf = _merged("garnet_small", 2, backend="fork", seed=3)
    assert forked == inline
    assert rf.per_shard_events == ri.per_shard_events
    assert rf.telemetry == ri.telemetry


def test_telemetry_merges_across_shards():
    _, r1 = _merged("garnet_small", 1, seed=3)
    _, r2 = _merged("garnet_small", 2, seed=3)
    assert r1.telemetry is not None and r2.telemetry is not None
    for name, snap in r1.telemetry.items():
        if snap["type"] == "counter":
            assert r2.telemetry[name]["value"] == snap["value"], name
        elif snap["type"] == "histogram":
            assert r2.telemetry[name]["count"] == snap["count"], name


def test_active_session_receives_the_merged_shard_metrics():
    """Regression: ``runner garnet_xl --shards 2 --out DIR`` exported
    ``"metrics": {}`` because nothing carried the shards' registries
    into the session being exported."""
    from repro import telemetry

    snapshots = []
    for shards in (1, 2):
        session = telemetry.install(telemetry.Telemetry())
        try:
            result = run_scenario("garnet_small", seed=3, shards=shards)
        finally:
            telemetry.uninstall()
        metrics = session.snapshot()["metrics"]
        snapshots.append(metrics)
        # Each delivered datagram is recorded exactly once, everywhere.
        assert result.merged["latency"]
        for dscp, stats in result.merged["latency"].items():
            count = metrics[f"grid.latency.{dscp}"]["count"]
            assert count == metrics[f"grid.rx.{dscp}.datagrams"]["value"]
            assert count == stats["count"]
    one, two = snapshots
    assert any(name.startswith("grid.tx.") for name in one)
    assert any(name.startswith("grid.latency.") for name in one)
    assert one.keys() == two.keys()
    for name, snap in one.items():
        if snap["type"] == "counter":
            assert two[name]["value"] == snap["value"], name

    # collect() publishes the run's tallies; doing it again adds nothing.
    scenario = get_scenario("garnet_small")
    sim = Simulator(seed=3)
    handle = scenario.build(sim, lambda name: True)
    sim.run()
    scenario.collect(handle)
    first = handle.registry.snapshot()
    scenario.collect(handle)
    assert handle.registry.snapshot() == first


def test_grid_keeps_one_flow_start_pending():
    """The planned flows are fed to the kernel from one sorted cursor:
    after the build the heap holds only the earliest start, and the run
    still fires every flow exactly once."""
    scenario = get_scenario("garnet_small")
    sim = Simulator(seed=3)
    handle = scenario.build(sim, lambda name: True)
    assert len(sim._queue) == 1
    planned = list(handle.flows)
    defaults = scenario.defaults
    assert len(planned) == defaults["n_flows"] + defaults["bg_flows"]
    assert sim._queue[0][0] == min(flow.start for flow in planned)
    sim.run()
    scenario.collect(handle)
    sent = sum(
        handle.registry.get(name).value
        for name in handle.registry.names("grid.tx")
        if name.endswith(".datagrams")
    )
    assert sent == sum(flow.count for flow in planned)


def test_run_scenario_validates_inputs():
    with pytest.raises(KeyError, match="unknown pdes scenario"):
        run_scenario("nope")
    with pytest.raises(ValueError, match="shards"):
        run_scenario("garnet_small", shards=0)
    with pytest.raises(ValueError, match="backend"):
        run_scenario("garnet_small", backend="threads")
