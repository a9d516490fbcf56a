"""The two broker workloads: the daemon used both ways.

``broker_open`` is independent clients: one connection, an open loop of
single-request frames at fixed rates, then a saturation phase. Per-frame
cost (asyncio I/O, codec, dispatch) and server pauses (GC, journal
compaction) dominate; this is where latency lives.

``broker_batch`` is a bulk pipeline: a fresh daemon per repeat, a closed
loop of reserve+cancel pairs in 256-pair ``batch`` frames (summary
mode). One frame carries 512 operations, so admission and the double
journaling per op dominate and per-frame cost vanishes.

Correctness comes from the wire, not from stored outputs: every reply
is checked against what its request must produce (the generator
predicts reservation ids — the service numbers admissions from 1 on a
single connection), and the ``st`` counters must equal what the
generator sent.
"""

from __future__ import annotations

import gc
import os
import pstats
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.broker_service.protocol import STATUS_OK, encode_frame

from . import host, layers
from .loadgen import Connection, Daemon, StepResult, closed_loop, open_loop
from .protocol import Invocation, Measurement, more_repeats, timed_setup

__all__ = ["broker_open", "broker_batch", "OPEN_RATES"]

#: Fixed open-loop rates, requests/s. The daemon answers 16-22k
#: single-frame requests/s at saturation on the reference 2-core box
#: depending on the minute, so the reference step sits near a quarter
#: of capacity and the high step near half: as high as it can go with
#: no request ever shed. ``lo`` runs in the traced pass only.
OPEN_RATES = {"lo": 2_500.0, "ref": 5_000.0, "hi": 10_000.0}
#: Share of ``--seconds`` each phase of ``broker_open`` gets.
_OPEN_SHARES = {"lo": 0.2, "ref": 0.3, "hi": 0.2}
#: The saturation phase is a fixed number of requests per second of
#: ``--seconds`` (about half of the run at ~20k replies/s), not a fixed
#: time: the work, the key cache and so the daemon's memory are then the
#: same on a fast minute and a slow one.
_SAT_REQUESTS_PER_SECOND = 10_000
_SAT_IN_FLIGHT = 1_024
#: The live set stays within [_LIVE_MAX / 2, _LIVE_MAX] reservations:
#: small, on the one-hop pair topology, so that admission stays a minor
#: cost here (gara + resilience are 22% of traced time; 32 live
#: reservations on GARNET's four hops made it 43%).
_LIVE_MAX = 4
_OPEN_ARGS = ["--topology", "pair", "--max-pending", "4096"]

#: GARNET, so every admission books the four hops of the paper's
#: premium path: gara + resilience are then 61% of traced time, against
#: 22% on broker_open (on the one-hop pair topology it was 42%, short of
#: the "at least twice" the two workloads are held to).
_BATCH_ARGS = ["--topology", "garnet", "--max-pending", "131072"]
_BATCH_PAIRS = {"full": 80_000, "smoke": 4_000}
_PAIRS_PER_FRAME = 256
_BATCH_IN_FLIGHT = 8

#: A rate is "ok" while p99 stays under this and no backlog builds.
_OK_P99_MS = 250.0


class RequestMix:
    """A seeded request stream over a bounded live set of reservations.

    40% ``rsv`` / 40% ``can`` / 10% ``clm`` / 10% ``mod``; a reserve
    drawn at the upper bound becomes a cancel and a cancel drawn at the
    lower bound a reserve, so the mix stays 40/40 over a long run. Every
    mutating request carries a fresh idempotency key, as
    ``BrokerClient`` does. ``want[i]`` is what reply ``i`` must carry.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.live: List[Tuple[int, str]] = []
        self.next_rid = 1
        self.frames: List[bytes] = []
        self.kinds: List[str] = []
        self.want: List[int] = []

    def _emit(self, kind: str) -> None:
        rng = self.rng
        mid = len(self.frames)
        live = self.live
        if kind == "rsv":
            rid, key = self.next_rid, f"k{mid}"
            self.next_rid += 1
            live.append((rid, key))
            request = ["rsv", mid, key, "gqbench", "a",
                       "b", 100e3, 0.0, 1e9]
            want = rid
        elif kind == "can":
            pick = int(rng.random() * len(live))
            live[pick], live[-1] = live[-1], live[pick]
            rid, reserve_key = live.pop()
            request = ["can", mid, f"k{mid}", rid, reserve_key]
            want = 1
        elif kind == "clm":
            rid = live[int(rng.random() * len(live))][0]
            request = ["clm", mid, rid]
            want = rid
        else:
            rid = live[int(rng.random() * len(live))][0]
            bandwidth = 100e3 + 1e3 * int(rng.random() * 100)
            request = ["mod", mid, f"k{mid}", rid, bandwidth, 0.0, 1e9]
            want = rid
        self.frames.append(encode_frame(request))
        self.kinds.append(kind)
        self.want.append(want)

    def prefill(self) -> slice:
        first = len(self.frames)
        for _ in range(_LIVE_MAX * 3 // 4):
            self._emit("rsv")
        return slice(first, len(self.frames))

    def take(self, count: int) -> slice:
        first = len(self.frames)
        rng = self.rng
        for _ in range(count):
            draw = rng.random()
            if draw < 0.4:
                kind = "rsv" if len(self.live) < _LIVE_MAX else "can"
            elif draw < 0.8:
                kind = "can" if len(self.live) > _LIVE_MAX // 2 else "rsv"
            else:
                kind = "clm" if draw < 0.9 else "mod"
            self._emit(kind)
        return slice(first, len(self.frames))

    def check(self, reply: list) -> bool:
        """Whether ``reply`` is what its request must produce."""
        if reply[1] != STATUS_OK:
            return False
        got = reply[2]
        if got.__class__ is dict:
            got = got["rid"]
        return got == self.want[reply[0]]

    def expected_counters(self, sent: int) -> Dict[str, int]:
        """What ``st`` must report once the first ``sent`` frames ran."""
        kinds = self.kinds[:sent]
        reserves, cancels = kinds.count("rsv"), kinds.count("can")
        return {
            "admissions": reserves,
            "cancels": cancels,
            "modifies": kinds.count("mod"),
            "claims_served": kinds.count("clm"),
            "live_reservations": reserves - cancels,
            "rejections": 0,
            "busy_replies": 0,
            "bad_requests": 0,
        }


def _status(conn: Connection) -> dict:
    reply = conn.request(encode_frame(["st", -1]))
    if reply[1] != STATUS_OK:
        raise RuntimeError(f"status poll refused: {reply!r}")
    return reply[2]


def _verify(measurement: Measurement, counters: dict,
            expected: Dict[str, int]) -> None:
    """Conservation from the wire: the daemon's ``st`` counters must
    equal what the generator sent. Each counter is one more attempt."""
    measurement.attempted += len(expected)
    for name, want in expected.items():
        if counters.get(name) != want:
            measurement.failed += 1
            measurement.violations.append(
                f"daemon counter {name} = {counters.get(name)}, "
                f"generator sent {want}"
            )


def _daemon_counts(counters: dict) -> Dict[str, float]:
    return {
        "gara.admissions": counters["broker_admissions"],
        "gara.rejections": counters["broker_rejections"],
        "resilience.journal_records": (
            counters["journal_records"] + counters["journal_truncated"]
        ),
        "broker_service.frames": counters["frames"],
        "broker_service.requests": counters["requests"],
        "broker_service.busy_replies": counters["busy_replies"],
        "broker_service.queue_high_water": counters["queue_high_water"],
        "broker_service.idempotent_replays": counters["idempotent_replays"],
    }


def _account(measurement: Measurement, step: StepResult) -> None:
    measurement.attempted += step.sent
    measurement.failed += step.failed + step.unanswered


def _timed_load(args, load, profile_out=None) -> float:
    """Seconds ``load(conn)`` takes on a fresh daemon (a null load just
    spawns, connects and stops: the idle twin)."""
    with Daemon(args, profile_out=profile_out) as daemon:
        conn = Connection(daemon.port)
        try:
            started = perf_counter()
            load(conn)
            return perf_counter() - started
        finally:
            conn.close()


def _profile_daemon(args, load, untraced_s: Optional[float] = None
                    ) -> Dict[str, float]:
    """Layer attribution for the daemon under ``load(conn)``.

    Two runs of the same CLI under ``python -m cProfile -o``, each
    stopped with SIGINT: an idle twin (spawn, connect, stop) and the
    loaded one. Their difference is the load alone — start-up imports
    and shutdown cancel out. ``untraced_s`` is what the same load takes
    without the hook; when the caller has not timed that already, one
    more fresh daemon does. Returns the per-layer and ``trace.*``
    metrics.
    """
    if untraced_s is None:
        untraced_s = _timed_load(args, load)
    idle_path = host.scratch_dir() / f"daemon-idle-{os.getpid()}.prof"
    load_path = host.scratch_dir() / f"daemon-load-{os.getpid()}.prof"
    try:
        _timed_load(args, lambda conn: None, profile_out=idle_path)
        traced_s = _timed_load(args, load, profile_out=load_path)
        self_s, calls = layers.attribute(
            layers.subtract(
                pstats.Stats(str(load_path)).stats,
                pstats.Stats(str(idle_path)).stats,
            ),
            daemon=True,
        )
    finally:
        idle_path.unlink(missing_ok=True)
        load_path.unlink(missing_ok=True)
    return layers.as_metrics(self_s, calls, traced_s, untraced_s)


# -- broker_open --------------------------------------------------------------


@dataclass
class _OpenState:
    """One set-up pass of ``broker_open``: the generated frames, a live
    daemon and a connection whose live set is prefilled and warm."""

    mix: RequestMix
    plan: Dict[str, slice]
    daemon: Daemon
    conn: Connection

    def close(self) -> None:
        self.conn.close()
        self.daemon.stop()


def _open_setup(seed: int, seconds: float, scale: float,
                with_lo: bool) -> _OpenState:
    mix = RequestMix(seed)
    plan = {"prefill": mix.prefill(), "warm": mix.take(int(2_000 * scale))}
    for step in ("lo", "ref", "hi") if with_lo else ("ref", "hi"):
        plan[step] = mix.take(
            int(OPEN_RATES[step] * seconds * _OPEN_SHARES[step] * scale)
        )
    plan["sat"] = mix.take(int(_SAT_REQUESTS_PER_SECOND * seconds * scale))
    daemon = Daemon(_OPEN_ARGS).start()
    try:
        conn = Connection(daemon.port)
        for step in ("prefill", "warm"):
            done = closed_loop(conn, mix.frames[plan[step]], 64, mix.check)
            if done.failed or done.unanswered:
                raise RuntimeError(f"broker warm-up failed in {step}")
    except BaseException:
        daemon.stop()
        raise
    return _OpenState(mix, plan, daemon, conn)


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def broker_open(inv: Invocation) -> Measurement:
    seed, seconds, trace, spans = inv.seed, inv.seconds, inv.trace, inv.spans
    scale = 0.1 if inv.size == "smoke" else 1.0
    measurement = Measurement(repeats=1)

    def set_up() -> _OpenState:
        with spans.span("build"):
            return _open_setup(seed, seconds, scale, with_lo=trace)

    pass_s, state = timed_setup(set_up, inv.setup_passes, _OpenState.close)
    try:
        mix, plan, conn = state.mix, state.plan, state.conn
        calib = [host.calibrate()]
        steps: Dict[str, StepResult] = {}
        lat: Dict[str, np.ndarray] = {}
        late: Dict[str, np.ndarray] = {}
        gc.collect()
        gc.disable()  # the generator's own pauses must not read as latency
        try:
            began = perf_counter()
            with spans.span("run"):
                for step in ("lo", "ref", "hi"):
                    if step not in plan:
                        continue
                    rate = OPEN_RATES[step]
                    frames = mix.frames[plan[step]]
                    with spans.span(f"step.{step}", rate=rate):
                        done = steps[step] = open_loop(
                            conn, frames, rate, mix.check
                        )
                    due = done.started + np.arange(len(frames)) / rate
                    lat[step] = done.latencies_ms(due, plan[step].start)
                    late[step] = done.lateness_ms(due)
                    if inv.tamper is not None:
                        inv.tamper(state.daemon)
                with spans.span("saturation"):
                    sat = steps["sat"] = closed_loop(
                        conn, mix.frames[plan["sat"]], _SAT_IN_FLIGHT,
                        mix.check,
                    )
            with spans.span("collect"):
                counters = _status(conn) if not conn.closed else {}
                _verify(measurement, counters,
                        mix.expected_counters(plan["sat"].start + sat.sent))
            wall = perf_counter() - began
        finally:
            gc.enable()
        calib.append(host.calibrate())
        measurement.attempted += plan["warm"].stop  # prefill + warm-up ran clean
        for done in steps.values():
            _account(measurement, done)
        alive = state.daemon.alive()
        measurement.end_to_end = {
            "wall_s": wall,
            "setup_s": inv.startup_s + pass_s,
            "peak_rss_mb": state.daemon.hwm_mb() if alive else 0.0,
            "sat_rps": len(sat.reply_ids) / (sat.ended - sat.started),
        }
        measurement.supporting = {
            "lat_p50_ms": _percentile(lat["ref"], 50),
            "lat_p99_ms": _percentile(lat["ref"], 99),
            "lat_p99_ms_hi": _percentile(lat["hi"], 99),
        }
        measurement.samples["host.calib_s"] = calib
        if not trace or not alive:
            return measurement

        rate_steps = ("lo", "ref", "hi")
        busy_s = sum(s.ended - s.started for s in steps.values())
        ok_rates = [
            OPEN_RATES[s] for s in rate_steps
            if not steps[s].failed and not steps[s].unanswered
            and _percentile(lat[s], 99) <= _OK_P99_MS
            and steps[s].backlog_at_end <= 0.25 * OPEN_RATES[s]
        ]
        per_layer = measurement.per_layer
        per_layer.update(_daemon_counts(counters))
        per_layer.update({
            "loadgen.late_p99_ms": _percentile(late["ref"], 99),
            "loadgen.cpu_frac": sum(s.cpu_s for s in steps.values()) / busy_s,
            "loadgen.reply_gap_max_ms": 1e3 * max(
                steps[s].reply_gap_max_s for s in rate_steps
            ),
            "loadgen.ok_rps": max(ok_rates, default=0.0),
            "loadgen.lat_p50_ms.ref": _percentile(lat["ref"], 50),
            "loadgen.lat_p99_ms.ref": _percentile(lat["ref"], 99),
            "loadgen.lat_p999_ms.ref": _percentile(lat["ref"], 99.9),
            "loadgen.lat_p99_ms.lo": _percentile(lat["lo"], 99),
            "loadgen.lat_p50_ms.hi": _percentile(lat["hi"], 50),
            "loadgen.lat_p99_ms.hi": _percentile(lat["hi"], 99),
            "phase.build_s": pass_s,
            "phase.run_s": spans.total("run"),
            "phase.collect_s": spans.total("collect"),
        })
        state.close()

        # Layer attribution: a fixed saturated load on a profiled daemon.
        traced = RequestMix(seed)
        warm = traced.prefill()
        body = traced.take(int(40_000 * scale))

        def load(profiled_conn: Connection) -> None:
            closed_loop(profiled_conn, traced.frames[warm], 64, traced.check)
            _account(measurement, closed_loop(
                profiled_conn, traced.frames[body], _SAT_IN_FLIGHT, traced.check
            ))

        with spans.span("profile"):
            per_layer.update(_profile_daemon(_OPEN_ARGS, load))
        return measurement
    finally:
        state.close()


# -- broker_batch -------------------------------------------------------------


class _Batch:
    """The batch workload's frames and the check each reply must pass.

    ``pairs`` reserve+cancel pairs in 256-pair summary-mode frames. Each
    cancel names its reserve by idempotency key and follows it directly,
    so the slot table holds one entry at a time: the rate is the
    sustainable steady state, not a fill-up. The seed draws the
    bandwidths.
    """

    def __init__(self, seed: int, pairs: int) -> None:
        rng = random.Random(seed)
        self.pairs = pairs
        self.frames: List[bytes] = []
        self.sizes: List[int] = []
        #: Operations acknowledged OK by the load that is running.
        self.answered = 0
        for first in range(0, pairs, _PAIRS_PER_FRAME):
            subs = []
            for k in range(first, min(first + _PAIRS_PER_FRAME, pairs)):
                bandwidth = 1e6 + 1e3 * int(rng.random() * 1000)
                subs.append(["rsv", k, f"k{k}", None, "premium_src",
                             "premium_dst", bandwidth, 0.0, 1e9])
                subs.append(["can", k, None, None, f"k{k}"])
            self.sizes.append(len(subs) // 2)
            self.frames.append(
                encode_frame(["batch", len(self.frames), subs, 1])
            )

    def check(self, reply: list) -> bool:
        if reply[1] != STATUS_OK or reply[2] != [2 * self.sizes[reply[0]], 0]:
            return False
        self.answered += reply[2][0]
        return True

    def load(self, conn: Connection, measurement: Measurement) -> StepResult:
        """The workload once: every frame, 8 in flight, then count."""
        self.answered = 0
        done = closed_loop(conn, self.frames, _BATCH_IN_FLIGHT, self.check)
        # One frame is 512 operations: count operations, not frames.
        measurement.attempted += 2 * self.pairs
        measurement.failed += 2 * self.pairs - self.answered
        return done


def broker_batch(inv: Invocation) -> Measurement:
    trace, spans = inv.trace, inv.spans
    pairs = _BATCH_PAIRS["smoke" if inv.size == "smoke" else "full"]
    expected = {
        "admissions": pairs, "cancels": pairs, "live_reservations": 0,
        "rejections": 0, "busy_replies": 0, "bad_requests": 0,
    }
    measurement = Measurement()

    def set_up():
        with spans.span("build"):
            return _Batch(inv.seed, pairs), Daemon(_BATCH_ARGS).start()

    pass_s, (batch, daemon) = timed_setup(
        set_up, inv.setup_passes, lambda made: made[1].stop()
    )
    try:
        calib = [host.calibrate()]
        walls: List[float] = []
        rss: List[float] = []
        cpu_s = gap_s = 0.0
        while True:
            conn = Connection(daemon.port)
            gc.collect()
            gc.disable()
            try:
                with spans.span("run"):
                    done = batch.load(conn, measurement)
                with spans.span("collect"):
                    counters = _status(conn) if not conn.closed else {}
            finally:
                gc.enable()
                conn.close()
            walls.append(done.ended - done.started)
            cpu_s += done.cpu_s
            gap_s = max(gap_s, done.reply_gap_max_s)
            rss.append(daemon.hwm_mb() if daemon.alive() else 0.0)
            daemon.stop()
            daemon = None
            _verify(measurement, counters, expected)
            if not more_repeats(walls, inv.seconds, 1 if trace else inv.repeats):
                break
            daemon = Daemon(_BATCH_ARGS).start()  # fresh daemon per repeat
        calib.append(host.calibrate())
        wall = statistics.median(walls)
        measurement.repeats = len(walls)
        measurement.end_to_end = {
            "wall_s": wall,
            "setup_s": inv.startup_s + pass_s,
            "peak_rss_mb": statistics.median(rss),
            "admissions_per_s": pairs / wall,
        }
        measurement.samples = {
            "wall_s": walls,
            "admissions_per_s": [pairs / w for w in walls],
            "peak_rss_mb": rss,
            "host.calib_s": calib,
        }
        if not trace:
            return measurement

        per_layer = measurement.per_layer
        per_layer.update(_daemon_counts(counters))
        per_layer.update({
            "loadgen.cpu_frac": cpu_s / sum(walls),
            "loadgen.reply_gap_max_ms": 1e3 * gap_s,
            "phase.build_s": pass_s,
            "phase.run_s": spans.total("run"),
            "phase.collect_s": spans.total("collect"),
        })
        with spans.span("profile"):
            per_layer.update(_profile_daemon(
                _BATCH_ARGS, lambda conn: batch.load(conn, measurement), wall
            ))
        return measurement
    finally:
        if daemon is not None:
            daemon.stop()
