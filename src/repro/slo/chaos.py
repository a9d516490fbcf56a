"""Adaptation-loop chaos soak: crash the broker mid-renegotiation.

Runs the closed loop under sustained SLO-violation pressure against a
deliberately capacity-starved broker, with scheduled broker crash/
restart cycles timed to land while renegotiations are in flight, and
asserts the control-plane invariants the loop promises:

* **no double-booked bandwidth** — after every broker restart,
  :meth:`~repro.gara.BandwidthBroker.conservation_errors` finds the
  slot tables booking exactly the network manager's live claims (journal
  replay plus claim re-registration and write-behind release flushing
  must agree);
* **no lost or leaked reservation** — at the end, with every session
  closed, all slot tables are empty;
* **bounded flapping** — rung changes stay within the documented
  ``1 + floor(T / cooldown)`` bound;
* the ladder is actually exercised: the run must include real
  renegotiations, broker retries, degradations, and restores.

Usage (the ``soaks`` CI job)::

    python -m repro.slo.chaos --seed 0 --cycles 3

Exits non-zero on any invariant violation. Fully deterministic per
seed: the pressure feed, fault schedule, and retry jitter all run off
the one simulator clock and RNG.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..core import MpichGQ
from ..faults import ChaosSchedule
from ..kernel import Simulator
from ..net import garnet, mbps
from .controller import RUNG_PREMIUM, AdaptationController
from .monitor import SloMonitor
from .spec import SloSpec

__all__ = ["run_soak", "main"]


class SoakFailure(AssertionError):
    """An adaptation-soak invariant did not hold."""


def run_soak(
    seed: int = 0,
    cycles: int = 3,
    cycle_seconds: float = 20.0,
    verbose: bool = False,
) -> dict:
    """One seeded soak; returns the stats dict or raises SoakFailure."""
    sim = Simulator(seed=seed)
    testbed = garnet(sim, backbone_bandwidth=mbps(30.0))
    # resilient=True attaches the broker's write-ahead journal; without
    # it a crash is unrecoverable data loss, not a fault to ride out.
    gq = MpichGQ.on_garnet(testbed, resilient=True)
    broker = gq.broker
    manager = gq.gara.manager("network")

    # A standing reservation eats most of the EF capacity (21 Mb/s at
    # the default 0.7 share) so the controller's upward boosts hit
    # *real* admission denials and the degradation ladder engages.
    blocker = gq.agent.reserve_flows(0, 1, mbps(12.0))

    slo = SloSpec(
        p95_latency_s=0.050,
        goodput_floor_bps=mbps(4.0),
        name=f"soak-{seed}",
    )
    monitor = SloMonitor(
        sim, slo, window=0.5, n_windows=4, k_violations=2, clear_windows=2
    )
    controller = AdaptationController(
        gq.agent, 0, 1, mbps(5.0),
        upgrade_interval=1.0,
        monitor=monitor,
        boost_factor=1.6,
        max_bps=mbps(15.0),
        cooldown=2.0,
        denials_before_degrade=2,
        renegotiation_window=3.0,
        max_broker_retries=3,
        backoff_base=0.25,
        backoff_cap=1.5,
    )

    # Sustained violation pressure: latency far over target, goodput
    # far under the floor, fed on the sim clock (deterministic).
    def pressure():
        while True:
            monitor.record_latency(0.200)
            monitor.record_sent(1)
            monitor.record_delivered(1_000)
            yield sim.timeout(0.25)

    sim.process(pressure(), name="slo-pressure")

    horizon = cycles * cycle_seconds
    chaos = ChaosSchedule(sim, testbed.network)
    conservation_errors: List[str] = []

    def check_conservation():
        if not broker.alive:
            return
        conservation_errors.extend(
            broker.conservation_errors(manager._claims.values())
        )

    for k in range(cycles):
        t0 = k * cycle_seconds
        # The pressure loop keeps renegotiations in flight essentially
        # continuously, so a crash at any point lands mid-flight; the
        # restart is late enough that backoff retries span the outage.
        chaos.at(t0 + 6.0).crash(broker)
        chaos.at(t0 + 9.5).restart(broker)
        sim.call_at(t0 + 9.6, check_conservation)
        sim.call_at(t0 + 15.0, check_conservation)

    # Free the blocker for the tail of the run so the final restore
    # climb succeeds and the loop ends back at premium.
    sim.call_at(horizon - cycle_seconds / 2.0, blocker.cancel)

    sim.run(until=horizon)

    if conservation_errors:
        raise SoakFailure(
            "double-booked/leaked bandwidth after restart:\n  "
            + "\n  ".join(conservation_errors)
        )

    bound = controller.flap_bound(horizon)
    stats = {
        "seed": seed,
        "horizon": horizon,
        "flaps": controller.flaps,
        "flap_bound": bound,
        "renegotiations": controller.renegotiations,
        "broker_retries": controller.broker_retries,
        "denials": controller.denials,
        "degradations": controller.degradations,
        "restores": controller.restores,
        "final_rung": controller.rung_name,
        "final_state": controller.state,
        "violation_windows": monitor.violation_windows,
    }

    if controller.flaps > bound:
        raise SoakFailure(
            f"flap bound violated: {controller.flaps} > {bound} "
            f"(cooldown {controller.cooldown}s over {horizon}s)"
        )
    # The soak must actually exercise the machinery it claims to test.
    if controller.renegotiations == 0:
        raise SoakFailure("no renegotiations — pressure feed is broken")
    if controller.broker_retries == 0:
        raise SoakFailure("no broker retries — crashes missed every boost")
    if controller.degradations == 0:
        raise SoakFailure("ladder never engaged — no degradations")
    if controller.restores == 0:
        raise SoakFailure("ladder never climbed back — no restores")
    if controller.rung != RUNG_PREMIUM:
        raise SoakFailure(
            f"loop did not recover premium by the end "
            f"(rung={controller.rung_name})"
        )

    # Orderly teardown, then nothing may remain booked anywhere.
    controller.close()
    monitor.stop()
    blocker.cancel()
    sim.run(until=horizon + 5.0)
    leaked = broker.conservation_errors([])
    if leaked:
        raise SoakFailure(
            "lost reservations: slot tables not empty after close:\n  "
            + "\n  ".join(leaked)
        )

    if verbose:
        print(f"  {stats}")
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=3,
                        help="crash/restart cycles (default 3)")
    parser.add_argument("--cycle-seconds", type=float, default=20.0,
                        help="simulated seconds per cycle (default 20)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        stats = run_soak(
            seed=args.seed,
            cycles=args.cycles,
            cycle_seconds=args.cycle_seconds,
            verbose=args.verbose,
        )
    except SoakFailure as exc:
        print(f"FAIL (seed {args.seed}): {exc}")
        return 1
    print(
        f"OK seed={stats['seed']}: flaps={stats['flaps']}/"
        f"bound {stats['flap_bound']}, "
        f"renegotiations={stats['renegotiations']}, "
        f"broker_retries={stats['broker_retries']}, "
        f"degradations={stats['degradations']}, "
        f"restores={stats['restores']}, "
        f"recovered={stats['final_rung']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
