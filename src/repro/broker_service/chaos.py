"""Crash/restart chaos soak for the broker service.

Seeded clients hammer a live :class:`BrokerService` with reserve /
cancel / modify / claim traffic while a killer task crashes and
restarts the service mid-load (hard aborts and graceful shutdowns,
chosen by the seed). After the last cycle every client reconciles its
in-doubt operations (a request whose reply was lost to a crash is
resolved through its idempotency key: cancel-by-reserve-key either
cancels the committed reservation or tombstones the key so a late
commit is impossible), the orphan-GC grace window is allowed to pass,
and the harness asserts the conservation invariants the service
guarantees:

* **no lost reservation** — every reservation a client still holds is
  live on the service and its claim entries sit in the broker's slot
  tables;
* **no leaked/duplicated reservation** — the service holds nothing a
  client does not, and the broker's
  :meth:`~repro.gara.BandwidthBroker.conservation_errors` finds every
  slot-table entry held by exactly one live reservation and no slot
  table over its EF capacity;
* **replay equivalence** — a fresh broker + fresh service replaying
  the two (possibly compacted) journals reconstructs slot tables and
  reservation maps identical to the survivor's — the journal is the
  truth, crashes notwithstanding;
* **liveness evidence** — clients actually retried (the outages were
  real) and every crash/restart cycle is visible in the counters.

Run it directly::

    python -m repro.broker_service.chaos --seed 0 --cycles 3

Exit status 1 and a ``violations`` list in the JSON report mean a
guarantee broke.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
from typing import Dict, List, Optional, Tuple

from ..gara import BandwidthBroker
from ..kernel import Simulator
from ..net import garnet, mbps
from ..resilience import Journal
from .client import (
    AdmissionRejected,
    BrokerClient,
    BrokerClientError,
    BrokerReservation,
)
from .server import BrokerService

__all__ = ["build_service", "chaos_soak", "main"]

#: Host pairs chaos clients reserve between (all cross the backbone).
PAIRS = (
    ("premium_src", "premium_dst"),
    ("competitive_src", "competitive_dst"),
    ("premium_src", "competitive_dst"),
    ("competitive_src", "premium_dst"),
)

GC_GRACE = 0.5


def build_service(
    seed: int = 0,
    *,
    compact_every: int = 0,
    max_pending: int = 256,
    evict_after: Optional[float] = None,
    gc_grace: float = GC_GRACE,
    tick: Optional[float] = 0.02,
) -> BrokerService:
    """A broker service over a fresh GARNET topology (OC3 backbone)."""
    sim = Simulator(seed=seed)
    testbed = garnet(sim, backbone_bandwidth=mbps(155.0))
    testbed.network.build_routes()
    broker = BandwidthBroker(
        testbed.network, journal=Journal("broker"), gc_grace=gc_grace
    )
    return BrokerService(
        broker,
        Journal("broker-service"),
        compact_every=compact_every,
        max_pending=max_pending,
        evict_after=evict_after,
        tick=tick,
    )


async def _worker(
    idx: int,
    seed: int,
    port: int,
    ops: int,
    out: Dict[int, dict],
) -> None:
    rng = random.Random(seed)
    cli = BrokerClient(
        "127.0.0.1",
        port,
        name=f"chaos-{idx}",
        seed=seed + 1,
        timeout=0.25,
        max_retries=40,
        backoff_base=0.01,
        backoff_cap=0.15,
    )
    cli.start_heartbeats(0.1)
    held: List[BrokerReservation] = []
    in_doubt: List[BrokerReservation] = []
    stats = {"rejected": 0, "gave_up": 0, "ops": 0}
    for _ in range(ops):
        stats["ops"] += 1
        roll = rng.random()
        if roll < 0.55 or not held:
            src, dst = PAIRS[rng.randrange(len(PAIRS))]
            start = rng.uniform(0.0, 40.0)
            res = BrokerReservation(
                cli.new_key(),
                f"chaos-{idx}",
                src,
                dst,
                rng.uniform(0.5e6, 3e6),
                start,
                start + rng.uniform(5.0, 40.0),
            )
            # Track before sending: if the reply is lost we must
            # reconcile this key, not forget it.
            in_doubt.append(res)
            try:
                got = await cli.reserve(
                    res.src, res.dst, res.bandwidth, res.start, res.end,
                    owner=res.owner, key=res.key, degrade=False,
                )
            except AdmissionRejected:
                stats["rejected"] += 1
                in_doubt.remove(res)
            except BrokerClientError:
                # Reply lost (a crash window): the key stays in-doubt
                # and is reconciled below.
                stats["gave_up"] += 1
            else:
                in_doubt.remove(res)
                held.append(got)
        elif roll < 0.85:
            res = held.pop(rng.randrange(len(held)))
            in_doubt.append(res)
            try:
                await cli.cancel(res)
            except BrokerClientError:
                stats["gave_up"] += 1
            else:
                in_doubt.remove(res)
        elif roll < 0.95:
            res = held[rng.randrange(len(held))]
            try:
                await cli.modify(
                    res, bandwidth=res.bandwidth * rng.uniform(0.6, 1.1)
                )
            except AdmissionRejected:
                stats["rejected"] += 1
            except BrokerClientError:
                stats["gave_up"] += 1
        else:
            try:
                await cli.claim(held[rng.randrange(len(held))])
            except BrokerClientError:
                stats["gave_up"] += 1
        await asyncio.sleep(rng.uniform(0.0, 0.004))
    out[idx] = {
        "client": cli, "held": held, "in_doubt": in_doubt, "stats": stats,
    }


async def _reconcile(worker: dict) -> None:
    """Resolve every in-doubt operation through idempotency keys.

    The service is stable now, so these must all land: a cancel by
    reserve-key either frees the committed reservation, is a counted
    no-op (already cancelled), or tombstones a never-committed key.
    """
    cli: BrokerClient = worker["client"]
    for res in worker["in_doubt"]:
        await cli.cancel(res)
    worker["in_doubt"] = []


def _replay_oracle(service: BrokerService, seed: int) -> Tuple:
    """Rebuild broker + service state purely from the journals."""
    sim = Simulator(seed=seed)
    testbed = garnet(sim, backbone_bandwidth=mbps(155.0))
    testbed.network.build_routes()
    oracle_broker = BandwidthBroker(
        testbed.network, journal=service.broker.journal, gc_grace=GC_GRACE
    )
    oracle_broker.crash()
    oracle_broker.restart()
    oracle_svc = BrokerService(oracle_broker, service.journal, tick=None)
    if service.journal.snapshot_payload is not None:
        oracle_svc._restore_checkpoint(service.journal.snapshot_payload)
    for record in service.journal.records:
        oracle_svc._replay(record)
    claims_by_name = {
        rid: tuple((c[0].node.name, c[0].name, c[1]) for c in claims)
        for rid, claims in oracle_svc._claims.items()
    }
    return oracle_broker.snapshot(), claims_by_name


async def chaos_soak(
    seed: int = 0,
    *,
    cycles: int = 3,
    clients: int = 3,
    ops: int = 40,
    compact_every: int = 64,
    settle: float = GC_GRACE + 0.4,
) -> dict:
    """One full soak; returns a report with a ``violations`` list
    (empty = every guarantee held)."""
    rng = random.Random(seed ^ 0x5EED)
    service = build_service(
        seed, compact_every=compact_every, evict_after=1.0
    )
    await service.start()
    port = service.port

    out: Dict[int, dict] = {}
    workers = [
        asyncio.create_task(_worker(i, seed * 1000 + i, port, ops, out))
        for i in range(clients)
    ]

    crash_log = []
    for cycle in range(cycles):
        await asyncio.sleep(rng.uniform(0.15, 0.4))
        graceful = rng.random() < 0.4
        await service.crash(graceful=graceful)
        crash_log.append("graceful" if graceful else "hard")
        await asyncio.sleep(rng.uniform(0.05, 0.2))
        await service.restart()

    await asyncio.gather(*workers)
    for worker in out.values():
        await _reconcile(worker)
    # Let the orphan-GC grace window for the last restart expire so
    # broker-journal-only entries (crash between the two journal
    # appends) are expunged before we audit.
    await asyncio.sleep(settle)

    violations: List[str] = []

    client_rids = {}
    for idx, worker in out.items():
        for res in worker["held"]:
            if res.rid is None:
                continue
            if res.rid in client_rids:
                violations.append(
                    f"rid {res.rid} held by two clients "
                    f"({client_rids[res.rid]} and {idx}) — double booked"
                )
            client_rids[res.rid] = idx

    server_rids = set(service._claims)
    lost = set(client_rids) - server_rids
    leaked = server_rids - set(client_rids)
    if lost:
        violations.append(f"lost reservations: {sorted(lost)}")
    if leaked:
        violations.append(f"leaked reservations: {sorted(leaked)}")

    violations += service.broker.conservation_errors(service._claims.values())

    # Replay equivalence: journals alone rebuild the survivor's state.
    oracle_snapshot, oracle_claims = _replay_oracle(service, seed)
    if oracle_snapshot != service.broker.snapshot():
        violations.append("broker journal replay diverged from live state")
    live_claims = {
        rid: tuple((c[0].node.name, c[0].name, c[1]) for c in claims)
        for rid, claims in service._claims.items()
    }
    if oracle_claims != live_claims:
        violations.append("service journal replay diverged from live state")

    total_retries = sum(w["client"].retries for w in out.values())
    if cycles and total_retries == 0:
        violations.append("no client ever retried — outages were not felt")
    if service.crashes != cycles or service.restarts != cycles:
        violations.append(
            f"crash/restart cycles miscounted: "
            f"{service.crashes}/{service.restarts} vs {cycles}"
        )

    report = {
        "seed": seed,
        "cycles": cycles,
        "crashes": crash_log,
        "clients": clients,
        "ops_per_client": ops,
        "live_reservations": len(server_rids),
        "client_retries": total_retries,
        "client_timeouts": sum(w["client"].timeouts for w in out.values()),
        "client_conn_failures": sum(
            w["client"].conn_failures for w in out.values()
        ),
        "client_idempotent_acks": sum(
            w["client"].idempotent_acks for w in out.values()
        ),
        "gave_up": sum(w["stats"]["gave_up"] for w in out.values()),
        "rejected": sum(w["stats"]["rejected"] for w in out.values()),
        "recovery_seconds_last": service.recovery_seconds_last,
        "recovery_seconds_total": service.recovery_seconds_total,
        "service": service.status_counters(),
        "violations": violations,
    }
    for worker in out.values():
        await worker["client"].close()
    await service.close()
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--ops", type=int, default=40)
    parser.add_argument("--compact-every", type=int, default=64)
    args = parser.parse_args(argv)
    report = asyncio.run(
        chaos_soak(
            args.seed,
            cycles=args.cycles,
            clients=args.clients,
            ops=args.ops,
            compact_every=args.compact_every,
        )
    )
    print(json.dumps(report, indent=2, default=str))
    return 1 if report["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
