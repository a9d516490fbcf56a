"""Static vs adaptive QoS under a load surge and broker faults.

The paper's §5 adaptation story, measured: rank 0 streams fixed-rate
frames to rank 1 with a premium reservation deliberately sized at half
the stream's rate. Mid-run a UDP surge overwhelms the best-effort
class (where the unreserved half of the stream rides), and a
:class:`~repro.faults.ChaosSchedule` crashes and restarts the
bandwidth broker in the middle of the surge.

Two flavors run the identical timeline:

* ``static`` — the undersized reservation is left alone; an
  :class:`~repro.slo.SloMonitor` only *watches* the SLO.
* ``adaptive`` — an :class:`~repro.slo.AdaptationController` closes
  the loop: the monitor's K-of-N violation vote triggers upward
  renegotiation through ``gara.modify``, the broker outage is ridden
  out with backoff retries (never cancel-and-reacquire — that would
  double-book against journal replay), and the cooldown bounds flaps.

The interesting columns: SLO-compliance fraction, violation-seconds,
and flap count against the provable ``1 + floor(T/cooldown)`` bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..apps import UdpTrafficGenerator
from ..faults import ChaosSchedule
from ..mpi import Communicator
from ..net import mbps
from ..slo import AdaptationController, SloMonitor, SloSpec
from .common import ExperimentResult, build_deployment

__all__ = [
    "run",
    "measure_cell",
    "plan_cells",
    "FLAVORS",
    "APP_RATE_BPS",
    "RESERVE_FACTOR",
    "COOLDOWN",
]

FLAVORS = ("static", "adaptive")

#: The application stream and its deliberately undersized reservation.
APP_RATE_BPS = mbps(4.0)
FPS = 20.0
RESERVE_FACTOR = 0.5

#: SLO: the stream must keep near its rate with interactive latency.
P95_LATENCY_S = 0.120
GOODPUT_FLOOR_BPS = 0.8 * APP_RATE_BPS

#: Timeline (seconds): surge begins, broker crashes and restarts
#: while the adaptive flavor is still climbing (the monitor's K-of-N
#: vote trips around t=2-3, so the outage interrupts renegotiation
#: mid-flight and the backoff retries must carry it across restart),
#: surge ends ``SURGE_TAIL`` before the stream does.
SURGE_START = 4.0
CRASH_AT = 3.0
RESTART_AT = 6.0
SURGE_TAIL = 2.0
SURGE_RATE_BPS = mbps(40.0)

#: Controller tuning shared with the documented flap bound.
COOLDOWN = 3.0
UPGRADE_INTERVAL = 2.0
BOOST_FACTOR = 1.6


class _MonitoredStream:
    """Rank 0 streams timestamped frames; rank 1 feeds the monitor.

    Each frame's payload is its send time, so the receiver measures
    end-to-end latency without any clock plumbing; delivered bytes
    feed the goodput dimension.
    """

    def __init__(
        self,
        monitor: SloMonitor,
        frame_bytes: int,
        fps: float,
        duration: float,
        tag: int = 88,
    ) -> None:
        self.monitor = monitor
        self.frame_bytes = frame_bytes
        self.fps = fps
        self.duration = duration
        self.tag = tag
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_received = 0

    def main(self, comm: Communicator):
        if comm.rank == 0:
            yield from self._sender(comm)
        elif comm.rank == 1:
            yield from self._receiver(comm)

    def _sender(self, comm: Communicator):
        sim = comm.sim
        interval = 1.0 / self.fps
        n_frames = int(self.duration * self.fps)
        next_deadline = sim.now
        for _ in range(n_frames):
            yield comm.send(
                1, nbytes=self.frame_bytes, tag=self.tag, data=sim.now
            )
            self.frames_sent += 1
            self.monitor.record_sent(1)
            next_deadline += interval
            if sim.now < next_deadline:
                yield sim.timeout(next_deadline - sim.now)
        yield comm.send(1, nbytes=1, tag=self.tag + 1)  # end-of-stream

    def _receiver(self, comm: Communicator):
        sim = comm.sim
        stop = comm.irecv(source=0, tag=self.tag + 1)
        while True:
            frame = comm.irecv(source=0, tag=self.tag)
            yield sim.any_of([stop.wait(), frame.wait()])
            if frame.completed:
                sent_at, status = frame.wait().value
                self.monitor.record_latency(sim.now - sent_at)
                self.monitor.record_delivered(status.nbytes)
                self.frames_received += 1
                self.bytes_received += status.nbytes
                continue
            if stop.completed:
                return


def measure_cell(
    flavor: str,
    seed: int = 0,
    duration: float = 14.0,
) -> Dict[str, float]:
    """One flavor over the full surge + broker-fault timeline."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r} (one of {FLAVORS})")
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(30.0),
        contention_rate=None,
        # Journaled broker: the crash/restart must recover reservations
        # rather than silently dropping them, or the static flavor's
        # grant would vanish mid-run through no fault of its own.
        resilient=True,
    )
    sim, gq, testbed = dep.sim, dep.gq, dep.testbed

    spec = SloSpec(
        p95_latency_s=P95_LATENCY_S,
        goodput_floor_bps=GOODPUT_FLOOR_BPS,
        name=f"stream-{flavor}",
    )
    monitor = SloMonitor(
        sim, spec, window=1.0, n_windows=4, k_violations=2, clear_windows=2
    )

    desired = APP_RATE_BPS * RESERVE_FACTOR
    controller = None
    if flavor == "adaptive":
        controller = AdaptationController(
            gq.agent, 0, 1, desired,
            upgrade_interval=UPGRADE_INTERVAL,
            monitor=monitor,
            boost_factor=BOOST_FACTOR,
            max_bps=2.0 * APP_RATE_BPS,
            cooldown=COOLDOWN,
        )
    else:
        gq.agent.reserve_flows(0, 1, desired)
        monitor.start()

    surge = UdpTrafficGenerator(
        testbed.competitive_src, testbed.competitive_dst, rate=SURGE_RATE_BPS
    )
    surge_end = duration - SURGE_TAIL
    sim.call_at(SURGE_START, surge.start)
    sim.call_at(surge_end, surge.stop)

    chaos = ChaosSchedule(sim, testbed.network)
    chaos.at(CRASH_AT).crash(gq.broker)
    chaos.at(RESTART_AT).restart(gq.broker)

    frame_bytes = int(APP_RATE_BPS / FPS / 8.0)
    app = _MonitoredStream(monitor, frame_bytes, FPS, duration)
    gq.world.launch(app.main)
    # Judge only while the stream is offered: once the sender stops,
    # empty windows would read as goodput violations in both flavors.
    sim.call_at(duration, monitor.stop)
    sim.run(until=duration + 3.0)

    cell = {
        "compliance": monitor.compliance_fraction,
        "violation_seconds": monitor.violation_seconds,
        "episodes": monitor.episodes,
        "flaps": controller.flaps if controller else 0,
        "flap_bound": (
            controller.flap_bound(duration + 3.0)
            if controller
            else 1 + int((duration + 3.0) / COOLDOWN)
        ),
        "renegotiations": controller.renegotiations if controller else 0,
        "degradations": controller.degradations if controller else 0,
        "restores": controller.restores if controller else 0,
        "broker_retries": controller.broker_retries if controller else 0,
        "granted_kbps": (
            controller.granted_bps / 1e3 if controller
            else desired / 1e3
        ),
        "throughput_kbps": app.bytes_received * 8.0 / duration / 1e3,
        "frames_received": app.frames_received,
    }
    if controller is not None:
        controller.close()
    return cell


def plan_cells(
    quick: bool = False,
    duration: Optional[float] = None,
) -> List[Tuple[str, dict]]:
    """The two flavors as independent jobs, keyed by flavor name.

    Each cell builds a fresh deployment from the seed, so :func:`run`
    assembles the same result from flavors measured anywhere.
    """
    if duration is None:
        duration = 20.0 if quick else 40.0
    return [
        (flavor, dict(flavor=flavor, duration=duration))
        for flavor in FLAVORS
    ]


def run(
    quick: bool = False,
    seed: int = 0,
    duration: Optional[float] = None,
    cell_results: Optional[Dict[str, Dict[str, float]]] = None,
) -> ExperimentResult:
    """Compare the flavors on SLO compliance under identical chaos.

    ``cell_results`` supplies flavor measurements made elsewhere (keyed
    as in :func:`plan_cells`); without it the plan is measured here.
    """
    plan = plan_cells(quick, duration)
    if cell_results is None:
        cell_results = {
            key: measure_cell(seed=seed, **kwargs) for key, kwargs in plan
        }
    result = ExperimentResult(
        experiment="fig_adaptation",
        description=(
            "Static vs adaptive QoS: SLO compliance under a "
            f"{SURGE_RATE_BPS / 1e6:.0f} Mb/s surge with a broker "
            "crash/restart mid-renegotiation"
        ),
        headers=[
            "flavor",
            "compliance",
            "violation_seconds",
            "episodes",
            "flaps",
            "flap_bound",
            "renegotiations",
            "degradations",
            "restores",
            "broker_retries",
            "granted_kbps",
            "throughput_kbps",
        ],
    )
    cells = {}
    for flavor, _ in plan:
        cell = cells[flavor] = cell_results[flavor]
        result.rows.append([
            flavor,
            cell["compliance"],
            cell["violation_seconds"],
            cell["episodes"],
            cell["flaps"],
            cell["flap_bound"],
            cell["renegotiations"],
            cell["degradations"],
            cell["restores"],
            cell["broker_retries"],
            cell["granted_kbps"],
            cell["throughput_kbps"],
        ])
    result.extra["static_compliance"] = cells["static"]["compliance"]
    result.extra["adaptive_compliance"] = cells["adaptive"]["compliance"]
    result.extra["compliance_gain"] = (
        cells["adaptive"]["compliance"] - cells["static"]["compliance"]
    )
    result.extra["adaptive_within_flap_bound"] = bool(
        cells["adaptive"]["flaps"] <= cells["adaptive"]["flap_bound"]
    )
    return result
