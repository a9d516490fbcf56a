"""The PDES coordinator: lockstep windows over inline or forked shards.

The synchronization protocol is the synchronous conservative scheme:

1. Compute the global next-event time ``g`` — the minimum over every
   shard's earliest pending event and every in-flight boundary
   message's arrival time. If ``g`` is past the end of the run, stop.
2. Broadcast the window limit ``W = g + lookahead`` (capped one ulp
   past the end time, so events exactly at the end still run, matching
   serial ``run(until=...)`` inclusivity).
3. Every shard injects the boundary messages routed to it, processes
   all local events with time strictly below ``W``, and reports its
   new outbox and next-event time.

Safety: every event processed in the window has time >= ``g``, so any
message it generates arrives at ``>= g + lookahead = W`` — never inside
the window a peer is concurrently executing. A shard with no traffic
still reports (an empty outbox and its next-event time) every round;
these reports are the scheme's null messages, so no shard ever waits on
a silent peer and the barrier loop cannot deadlock.

Two interchangeable backends run the same loop: ``inline`` advances
every shard round-robin in this process (packets still make a pickle
round-trip, emulating process isolation bit-for-bit), ``fork`` runs
each shard in a forked worker connected by a pipe. Their merged output
is byte-identical; ``auto`` picks fork when the platform has it and
more than one shard is requested.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from ..telemetry import active as active_session, merge_registries
from .plan import ShardPlan, make_plan
from .scenarios import Scenario, get_scenario
from .shard import ShardRunner

__all__ = ["PdesResult", "run_scenario"]


@dataclass
class PdesResult:
    """Outcome of one (possibly sharded) scenario run."""

    scenario: str
    n_shards: int
    backend: str
    seed: int
    duration: float
    lookahead: float
    #: Barrier rounds executed (0 for an empty run).
    windows: int
    #: The scenario's deterministically merged output — the artifact
    #: the shard-count-invariance gate compares byte-for-byte.
    merged: dict
    per_shard_events: List[int] = field(default_factory=list)
    #: Boundary messages sent by each shard.
    boundary_messages: List[int] = field(default_factory=list)
    wall_s: float = 0.0
    #: Merged telemetry registry snapshot, when the scenario keeps one.
    telemetry: Optional[dict] = None

    @property
    def total_events(self) -> int:
        return sum(self.per_shard_events)

    def summary(self) -> dict:
        """JSON-able summary (everything but the merged payload)."""
        return {
            "scenario": self.scenario,
            "n_shards": self.n_shards,
            "backend": self.backend,
            "seed": self.seed,
            "duration": self.duration,
            "lookahead": self.lookahead,
            "windows": self.windows,
            "per_shard_events": list(self.per_shard_events),
            "boundary_messages": list(self.boundary_messages),
            "total_events": self.total_events,
            "wall_s": self.wall_s,
        }


def _fork_available() -> bool:
    return "fork" in mp.get_all_start_methods()


def _resolve_backend(backend: str, n_shards: int) -> str:
    if backend not in ("auto", "inline", "fork"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "auto":
        return "fork" if n_shards > 1 and _fork_available() else "inline"
    if backend == "fork" and not _fork_available():
        raise RuntimeError("fork start method is unavailable on this platform")
    return backend


def run_scenario(
    scenario,
    seed: int = 0,
    shards: int = 1,
    backend: str = "auto",
    duration: Optional[float] = None,
    params: Optional[dict] = None,
) -> PdesResult:
    """Run ``scenario`` (a name or :class:`Scenario`) across ``shards``.

    ``duration`` overrides the scenario's default end time; ``params``
    are forwarded to the scenario's topology and actor builders (both
    must receive the same values on every shard — they are broadcast,
    never partitioned).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    until = scenario.duration if duration is None else duration
    chosen = _resolve_backend(backend, shards)
    params = dict(params or {})

    # The plan is computed once from a throwaway topology-only build
    # (no actors, no flow timers) and broadcast; every worker wires its
    # boundary from the same assignment.
    from ..kernel import Simulator

    topo = scenario.topology(Simulator(seed=seed), **params)
    network = getattr(topo, "network", topo)
    hint = scenario.hint(topo, shards) if scenario.hint is not None else None
    plan = make_plan(network, shards, hint=hint)

    started = perf_counter()
    if chosen == "inline":
        outcome = _run_inline(scenario, seed, plan, until, params)
    else:
        outcome = _run_fork(scenario, seed, plan, until, params)
    wall = perf_counter() - started

    partials, events, bout, windows, registries = outcome
    merged = scenario.merge(partials)
    telemetry = None
    session = active_session()
    live = [r for r in registries if r is not None]
    if live:
        shard_metrics = merge_registries(live)
        telemetry = shard_metrics.snapshot()
        if session is not None:
            # The shards recorded into private registries (possibly in
            # other processes); fold them into the session being
            # exported, as if it had watched one serial run.
            merge_registries([shard_metrics], into=session.registry)
    result = PdesResult(
        scenario=scenario.name,
        n_shards=shards,
        backend=chosen,
        seed=seed,
        duration=until,
        lookahead=plan.lookahead,
        windows=windows,
        merged=merged,
        per_shard_events=events,
        boundary_messages=bout,
        wall_s=wall,
        telemetry=telemetry,
    )
    if session is not None:
        # The shard simulators (possibly in other processes) were never
        # attached; the summary is how the session learns what ran.
        session.pdes_runs.append(result.summary())
    return result


def _window_limits(until: float):
    """The end cap: one ulp past ``until``, so a strict-< window bound
    still executes events that land exactly on the end time."""
    return math.nextafter(until, math.inf)


def _coordinate(workers, n_shards: int, lookahead: float, until: float):
    """The barrier loop, shared by both backends.

    ``workers`` expose ``next_time()``, ``step(limit, msgs) ->
    (outbox, next_time)`` and belong to this coordinator. Returns the
    number of windows run.
    """
    cap = _window_limits(until)
    pending: List[list] = [[] for _ in range(n_shards)]
    nexts = [w.next_time() for w in workers]
    windows = 0
    while True:
        g = min(nexts)
        for queue in pending:
            for msg in queue:
                if msg[0] < g:
                    g = msg[0]
        if g > until:
            break
        limit = min(g + lookahead, cap)
        if limit <= g:
            # g + lookahead underflowed to g (lookahead smaller than one
            # ulp at g, or infinite g-cancellation): a strict-< window
            # would process nothing and the loop would spin. Widen to
            # one ulp so the events at exactly g run; injection at
            # arrival == g stays legal (inject allows time == now).
            limit = math.nextafter(g, math.inf)
        outboxes = _step_all(workers, limit, pending)
        pending = [[] for _ in range(n_shards)]
        for shard_id, (outbox, next_time) in enumerate(outboxes):
            nexts[shard_id] = next_time
            for dest, arrival, link, direction, seq, blob in outbox:
                pending[dest].append((arrival, link, direction, seq, blob))
        windows += 1
    # Any message still pending arrives strictly after the end time —
    # serial execution would have scheduled but never processed it.
    return windows


def _step_all(workers, limit: float, pending: List[list]):
    """Issue one window to every worker and gather the responses."""
    for shard_id, worker in enumerate(workers):
        worker.begin_step(limit, pending[shard_id])
    return [worker.end_step() for worker in workers]


# -- inline backend ------------------------------------------------------


class _InlineWorker:
    """Round-robin, single-process stand-in for a forked worker."""

    def __init__(self, runner: ShardRunner) -> None:
        self.runner = runner
        self._reply = None

    def next_time(self) -> float:
        return self.runner.next_time()

    def begin_step(self, limit: float, msgs: list) -> None:
        runner = self.runner
        runner.inject(msgs)
        outbox = runner.run_window(limit)
        self._reply = (outbox, runner.next_time())

    def end_step(self):
        reply, self._reply = self._reply, None
        return reply


def _run_inline(scenario, seed, plan: ShardPlan, until, params):
    runners = [
        ShardRunner(scenario, seed, plan, shard_id, params)
        for shard_id in range(plan.n_shards)
    ]
    workers = [_InlineWorker(r) for r in runners]
    windows = _coordinate(workers, plan.n_shards, plan.lookahead, until)
    partials, events, bout, registries = [], [], [], []
    for runner in runners:
        runner.finalize(until)
        partials.append(runner.collect())
        events.append(runner.sim.events_processed)
        bout.append(runner.boundary_out)
        registries.append(runner.registry)
    return partials, events, bout, windows, registries


# -- fork backend --------------------------------------------------------


def _worker_main(conn, scenario, seed, plan, shard_id, params) -> None:
    """Forked worker: build, then serve window requests until told to
    finish. The ready message doubles as the build barrier."""
    try:
        runner = ShardRunner(scenario, seed, plan, shard_id, params)
        conn.send(("ready", runner.next_time()))
        while True:
            op, *rest = conn.recv()
            if op == "step":
                limit, msgs = rest
                runner.inject(msgs)
                outbox = runner.run_window(limit)
                conn.send(("ok", outbox, runner.next_time()))
            elif op == "finish":
                runner.finalize(rest[0])
                conn.send(
                    (
                        "done",
                        runner.collect(),
                        runner.sim.events_processed,
                        runner.boundary_out,
                        runner.registry,
                    )
                )
                conn.close()
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown op {op!r}")
    except Exception as exc:  # surface the traceback to the parent
        import traceback

        try:
            conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
            conn.close()
        except Exception:
            pass
        raise


class _ForkWorker:
    """Parent-side proxy for one forked shard."""

    def __init__(self, ctx, scenario, seed, plan, shard_id, params) -> None:
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, scenario, seed, plan, shard_id, params),
            name=f"pdes-shard-{shard_id}",
            daemon=True,
        )
        self.proc.start()
        child.close()
        self._next = self._expect("ready")[0]

    def _expect(self, want: str):
        reply = self.conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"pdes worker failed:\n{reply[1]}")
        if reply[0] != want:
            raise RuntimeError(f"expected {want!r} from worker, got {reply[0]!r}")
        return reply[1:]

    def next_time(self) -> float:
        return self._next

    def begin_step(self, limit: float, msgs: list) -> None:
        self.conn.send(("step", limit, msgs))

    def end_step(self):
        outbox, next_time = self._expect("ok")
        self._next = next_time
        return outbox, next_time

    def finish(self, until: float):
        self.conn.send(("finish", until))
        collected, events, bout, registry = self._expect("done")
        self.conn.close()
        self.proc.join(timeout=60)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.terminate()
        return collected, events, bout, registry

    def kill(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()


def _run_fork(scenario, seed, plan: ShardPlan, until, params):
    ctx = mp.get_context("fork")
    workers: List[_ForkWorker] = []
    try:
        for shard_id in range(plan.n_shards):
            workers.append(
                _ForkWorker(ctx, scenario, seed, plan, shard_id, params)
            )
        windows = _coordinate(workers, plan.n_shards, plan.lookahead, until)
        partials, events, bout, registries = [], [], [], []
        for worker in workers:
            collected, ev, b, registry = worker.finish(until)
            partials.append(collected)
            events.append(ev)
            bout.append(b)
            registries.append(registry)
        return partials, events, bout, windows, registries
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
