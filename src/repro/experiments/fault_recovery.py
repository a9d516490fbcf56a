"""Fault recovery: leased premium bandwidth through a backbone failure
and a broker crash.

A lease (:class:`repro.faults.LeaseManager`) holds a 40 Mb/s premium
reservation for Figure 1's paced TCP transfer over GARNET, with no
contention. Three runs, each on its own timeline in 0.25 s bins:

* ``none`` — no fault, on the broker run's 18 s timeline: the steady
  state a recovered stream must return to;
* ``link`` — the edge1--core link fails at 7 s and returns at 14 s.
  TCP stalls on RTO backoff, routing fails over to GARNET's standby
  core, and the lease re-admits its claims on the new path;
* ``broker`` — the bandwidth broker process dies at 6 s, losing all
  in-memory state, and restarts at 9 s by replaying its write-ahead
  journal. The failure detector degrades the lease to best effort
  meanwhile; the lease re-admits once the broker answers again.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..faults import ChaosSchedule
from ..gara import NetworkReservationSpec
from ..net import mbps
from ..transport.tcp import TcpConfig
from . import fig1_tcp_reservation as fig1
from .common import ExperimentResult, build_deployment

__all__ = ["run", "check", "TIMELINES"]

#: ``fault -> (duration, fault at, fault cleared at, settle)``, in
#: seconds. The "after" phase starts ``settle`` after the fault clears:
#: a restarted broker's re-admission has a policer-readjustment
#: transient.
TIMELINES = {
    "none": (18.0, 6.0, 9.0, 4.0),
    "link": (20.0, 7.0, 14.0, 0.0),
    "broker": (18.0, 6.0, 9.0, 4.0),
}
BIN_SECONDS = 0.25


def _through(fault: str, seed: int):
    """One leased transfer through ``fault``: its table row (phase
    means in Mb/s, recovery time, then the lease's, detector's and
    broker's books at the end) and its trace ``(bin centres, Mb/s)``."""
    duration, down, up, settle = TIMELINES[fault]
    config = TcpConfig(sndbuf=1 << 20, rcvbuf=1 << 20, max_rto=1.0)
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(155.0),
        backbone_delay=2e-3,
        tcp_config=config,
        resilient=True,
        redundant_backbone=fault == "link",
    )
    sim, testbed, gq = dep.sim, dep.testbed, dep.gq
    spec = NetworkReservationSpec(
        testbed.premium_src, testbed.premium_dst, mbps(40.0),
        bucket_divisor=16.0,
    )
    lease = gq.lease_manager.lease(spec, bindings=[fig1.flow_spec(testbed)])
    chaos, pre_crash = ChaosSchedule(sim, testbed.network), {}
    if fault == "link":
        chaos.at(down).fail_link("edge1", "core")
        chaos.at(up).restore_link("edge1", "core")
    elif fault == "broker":
        sim.call_at(
            down - 1e-3,
            lambda: pre_crash.update(snapshot=gq.broker.snapshot()),
        )
        chaos.at(down).crash(gq.broker)
        chaos.at(up).restart(gq.broker)
    state = fig1.transfer(
        sim, testbed, gq.world.procs[0].tcp, gq.world.procs[1].tcp,
        mbps(50.0), duration, config,
    )
    sim.run(until=duration)

    times, rates = state["server"].delivered_counter.rate_series(
        BIN_SECONDS, 0.0, duration
    )
    trace = rates * 8 / 1e6
    starts = np.arange(len(trace)) * BIN_SECONDS

    def phase_mean(start, end):
        return float(trace[(starts >= start) & (starts < end)].mean())

    # Every phase mean skips the first 2 s (slow start). Recovery is
    # the first bin after the fault back above 80% of "before".
    before = phase_mean(2.0, down)
    recovered = np.nonzero((starts > down) & (trace > 0.8 * before))[0]
    broker = gq.broker
    row = [
        fault,
        before,
        phase_mean(down, up),
        phase_mean(up + settle, duration),
        phase_mean(2.0, duration),
        float(starts[recovered[0]] - down) if len(recovered) else float("inf"),
        lease.state,
        lease.degradations,
        lease.readmissions,
        broker.last_replay_snapshot == pre_crash["snapshot"]
        if pre_crash else None,
        gq.detector.suspicions,
        gq.detector.recoveries,
        broker.conservation_errors(gq.network_manager._claims.values()),
        broker.orphan_paths_collected,
    ]
    return row, (times, trace)


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Produce the fault-recovery table, one row per fault, and each
    fault's trace as a series. The timelines are the claim, so a quick
    run is the full run."""
    result = ExperimentResult(
        experiment="fault_recovery",
        description="leased 40 Mb/s premium TCP through a backbone link "
        "failure and a broker crash (Mb/s)",
        headers=[
            "fault", "before_mbps", "during_mbps", "after_mbps",
            "steady_mbps", "recovery_s", "lease", "degradations",
            "readmissions", "replay_matches", "suspicions", "recoveries",
            "conservation_errors", "orphan_paths",
        ],
    )
    for fault in TIMELINES:
        row, trace = _through(fault, seed)
        result.rows.append(row)
        result.series[fault] = trace
    return result


def check(result: ExperimentResult) -> List[str]:
    """The resilience claims, one message per claim the result breaks.
    A backbone failure costs under half the bandwidth while the standby
    core carries the stream, recovery takes under 3 s and full service
    continues; a broker crash is replayed to the exact pre-crash slot
    tables and the stream returns within 5% of its own pre-crash rate
    and of the no-fault steady state. Either way the lease degrades and
    re-admits exactly once and the slot tables book exactly the claims
    still held."""
    rows = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
    link, broker = rows["link"], rows["broker"]
    before, after = broker["before_mbps"], broker["after_mbps"]
    steady = rows["none"]["steady_mbps"]
    claims = [
        (35.0 < link["before_mbps"] < 45.0,
         f"link: 35 < before {link['before_mbps']:.2f} < 45"),
        (link["during_mbps"] > 0.5 * link["before_mbps"],
         f"link: during {link['during_mbps']:.2f} > 0.5 x before"),
        (link["recovery_s"] < 3.0,
         f"link: recovery {link['recovery_s']:.2f} s < 3 s"),
        (35.0 < link["after_mbps"] < 45.0,
         f"link: 35 < after {link['after_mbps']:.2f} < 45"),
        (abs(after - before) <= 0.05 * before,
         f"broker: after {after:.2f} within 5% of before {before:.2f}"),
        (abs(after - steady) <= 0.05 * steady,
         f"broker: after {after:.2f} within 5% of no-fault {steady:.2f}"),
        (broker["replay_matches"] is True,
         "broker: journal replay == pre-crash snapshot"),
        ((broker["suspicions"], broker["recoveries"]) == (1, 1),
         f"broker: suspicions/recoveries {broker['suspicions']}/"
         f"{broker['recoveries']} == 1/1"),
        (broker["orphan_paths"] == 0,
         f"broker: orphan paths {broker['orphan_paths']} == 0"),
    ]
    for fault, row in (("link", link), ("broker", broker)):
        lease = (row["lease"], row["degradations"], row["readmissions"])
        claims += [
            (lease == ("HELD", 1, 1), f"{fault}: lease {lease} == HELD/1/1"),
            (row["conservation_errors"] == [],
             f"{fault}: conservation errors {row['conservation_errors']} "
             f"== []"),
        ]
    return [
        f"fault_recovery: {claim} fails"
        for holds, claim in claims if not holds
    ]
