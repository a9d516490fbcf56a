"""Load generation against the real ``mpichgq-broker`` daemon.

The daemon is the public CLI (``python -m repro.broker_service.cli``)
run as a subprocess with its own GC and compaction defaults; gqbench
talks to it only over the length-prefixed JSON wire protocol. One
generator process, one connection, a non-blocking socket paced with
``select`` (an ``asyncio.sleep`` pacer ran 1.2 ms late at 10k req/s on
the reference box; this one stays under 0.2 ms).

Two drivers share the socket code:

* :func:`open_loop` sends single-request frames on a fixed schedule
  regardless of replies (independent clients) and times each request
  from when it was *due*, so a server stall is charged to every request
  it delayed;
* :func:`closed_loop` keeps a fixed number of frames in flight (callers
  that wait for replies) for the saturation phase and the batch
  workload.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from .host import ROOT

__all__ = ["Daemon", "Connection", "StepResult", "open_loop", "closed_loop"]

_SRC = ROOT / "src"
_SPAWN_TIMEOUT_S = 30.0
_STOP_TIMEOUT_S = 30.0
#: Give up on a silent server after this long with requests outstanding.
_DRAIN_TIMEOUT_S = 20.0


class Daemon:
    """One ``mpichgq-broker`` subprocess: spawn, observe, stop.

    ``profile_out`` launches the same CLI under ``python -m cProfile -o``
    (the traced pass); SIGINT makes the CLI return normally, so the
    profile is dumped on the way out.
    """

    def __init__(self, args: Sequence[str], profile_out: Optional[Path] = None):
        self.args = list(args)
        self.profile_out = profile_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        #: Seconds from spawn until the listener accepted a connection.
        self.spawn_s = 0.0
        #: Final ``status_counters()`` JSON the CLI prints on shutdown.
        self.final_counters: dict = {}

    def start(self) -> "Daemon":
        cmd = [sys.executable]
        if self.profile_out is not None:
            cmd += ["-m", "cProfile", "-o", str(self.profile_out)]
        cmd += ["-m", "repro.broker_service.cli", "--port", "0", *self.args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            self.port = self._await_listening(started + _SPAWN_TIMEOUT_S)
            # "Until it accepts": a throwaway connection proves the
            # listener is live, not just bound.
            socket.create_connection(("127.0.0.1", self.port), timeout=5.0).close()
        except BaseException:
            self.stop()
            raise
        self.spawn_s = time.perf_counter() - started
        return self

    def _await_listening(self, deadline: float) -> int:
        """The CLI announces ``listening on host:port`` on stderr once
        the socket is bound (``--port 0`` lets the daemon pick a free
        port, so concurrent benchmarks never collide)."""
        stderr = self.proc.stderr
        fd = stderr.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"broker daemon did not start (exit={self.proc.poll()}): "
                    f"{buf.decode(errors='replace')!r}"
                )
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    time.sleep(0.01)
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if "listening on" not in line:
            raise RuntimeError(f"unexpected daemon banner: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def hwm_mb(self) -> float:
        """High-water resident set of the daemon (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported for the daemon")

    def stop(self) -> None:
        """SIGINT (the CLI's orderly exit), then escalate; always reaps."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        out = b""
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            out, _err = proc.communicate(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        try:
            self.final_counters = json.loads(out or b"{}")
        except ValueError:
            self.final_counters = {}

    def kill(self) -> None:
        """SIGKILL, for the self-test's daemon-dies-mid-load case."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()

    def __enter__(self) -> "Daemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class Connection:
    """One non-blocking client socket plus reply framing."""

    def __init__(self, port: int) -> None:
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # An open loop models independent clients, each with its own
        # socket buffer: a deep one here keeps a server stall from
        # back-pressuring the schedule (it is charged as latency, not
        # hidden as late sends).
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
        sock.setblocking(False)
        self.sock = sock
        self._inbuf = bytearray()
        self.closed = False

    def send(self, data) -> int:
        """Bytes the kernel accepted (0 when the socket buffer is full)."""
        try:
            return self.sock.send(data)
        except (BlockingIOError, InterruptedError):
            return 0
        except OSError:
            self.closed = True
            return 0

    def recv_replies(self) -> list:
        """Decode every complete reply frame currently readable."""
        try:
            # A bounded read keeps one burst of replies (a server coming
            # back from a pause) from delaying the next due send.
            chunk = self.sock.recv(1 << 12)
        except (BlockingIOError, InterruptedError):
            return []
        except OSError:
            chunk = b""
        if not chunk:
            self.closed = True
            return []
        buf = self._inbuf
        buf += chunk
        replies = []
        pos = 0
        size = len(buf)
        loads = json.loads
        while size - pos >= 4:
            length = int.from_bytes(buf[pos:pos + 4], "big")
            end = pos + 4 + length
            if end > size:
                break
            replies.append(loads(buf[pos + 4:end]))
            pos = end
        del buf[:pos]
        return replies

    def wait(self, want_write: bool, timeout: float) -> None:
        select.select(
            [self.sock], [self.sock] if want_write else [], [], max(timeout, 0.0)
        )

    def request(self, payload: bytes, timeout: float = _DRAIN_TIMEOUT_S) -> list:
        """One synchronous request/reply (status polls, prefill)."""
        view = memoryview(payload)
        deadline = time.perf_counter() + timeout
        while len(view) and not self.closed:
            view = view[self.send(view):]
            if len(view):
                self.wait(True, deadline - time.perf_counter())
        while not self.closed and time.perf_counter() < deadline:
            replies = self.recv_replies()
            if replies:
                return replies[-1]
            self.wait(False, deadline - time.perf_counter())
        raise RuntimeError("broker daemon did not answer")

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class StepResult:
    """What one load phase observed, in generator-side terms."""

    sent: int = 0
    #: Replies received, in arrival order: request id and arrival time.
    reply_ids: List[int] = field(default_factory=list)
    reply_times: List[float] = field(default_factory=list)
    #: Replies whose status or payload was not what the request expects.
    failed: int = 0
    started: float = 0.0
    ended: float = 0.0
    #: Open loop: (first index, last index + 1, send time) per batch.
    send_batches: List[tuple] = field(default_factory=list)
    reply_gap_max_s: float = 0.0
    backlog_at_end: int = 0
    cpu_s: float = 0.0

    @property
    def unanswered(self) -> int:
        return self.sent - len(self.reply_ids)

    def latencies_ms(self, due: np.ndarray, first_id: int) -> np.ndarray:
        """Per-reply latency from each request's *due* time."""
        ids = np.asarray(self.reply_ids, dtype=np.int64) - first_id
        return (np.asarray(self.reply_times) - due[ids]) * 1e3

    def lateness_ms(self, due: np.ndarray) -> np.ndarray:
        """How late each sent frame left the generator."""
        late = np.empty(self.sent)
        for lo, hi, at in self.send_batches:
            late[lo:hi] = at - due[lo:hi]
        return late * 1e3


def _absorb(result: StepResult, replies: list, now: float,
            check: Callable[[list], bool]) -> None:
    ids = result.reply_ids
    times = result.reply_times
    for reply in replies:
        ids.append(reply[0])
        times.append(now)
        if not check(reply):
            result.failed += 1


def open_loop(conn: Connection, frames: Sequence[bytes], rate: float,
              check: Callable[[list], bool]) -> StepResult:
    """Send ``frames`` at ``rate`` per second, whatever the server does.

    ``check(reply)`` says whether a reply is what its request must
    produce (a refusal such as BUSY is not). Frame ``i`` is due at
    ``started + i / rate``; all frames due by "now" go out in one
    ``send`` (what a kernel does with simultaneous writers).
    """
    total = len(frames)
    blob = memoryview(b"".join(frames))
    ends = list(itertools.accumulate(len(frame) for frame in frames))
    result = StepResult()
    perf = time.perf_counter
    cpu0 = time.process_time()
    t0 = result.started = perf()
    sent = 0          # frames fully handed to the kernel
    sent_bytes = 0
    got = 0
    last_reply = t0
    deadline = t0 + total / rate + _DRAIN_TIMEOUT_S
    while got < total and not conn.closed:
        now = perf()
        if now > deadline:
            break
        due_count = min(total, int((now - t0) * rate) + 1)
        blocked = False
        if sent < due_count:
            accepted = conn.send(blob[sent_bytes:ends[due_count - 1]])
            sent_bytes += accepted
            first = sent
            while sent < due_count and ends[sent] <= sent_bytes:
                sent += 1
            if sent > first:
                result.send_batches.append((first, sent, now))
                if sent == total:
                    result.backlog_at_end = sent - got
            blocked = sent < due_count
        replies = conn.recv_replies()
        if replies:
            now = perf()
            if sent > got and now - last_reply > result.reply_gap_max_s:
                result.reply_gap_max_s = now - last_reply
            last_reply = now
            _absorb(result, replies, now, check)
            got += len(replies)
            continue
        if sent == got:
            last_reply = now  # nothing outstanding: silence is not a pause
        if sent < total:
            next_due = t0 + due_count / rate
            conn.wait(blocked, next_due - perf())
        else:
            conn.wait(False, 0.05)
    result.sent = sent
    result.ended = perf()
    result.cpu_s = time.process_time() - cpu0
    return result


def closed_loop(conn: Connection, frames: Sequence[bytes], in_flight: int,
                check: Callable[[list], bool]) -> StepResult:
    """Send ``frames`` keeping ``in_flight`` of them outstanding, until
    every one is answered (or the server goes silent)."""
    total = len(frames)
    result = StepResult()
    perf = time.perf_counter
    cpu0 = time.process_time()
    last_progress = result.started = perf()
    sent = got = 0
    out = memoryview(b"")
    while got < total and not conn.closed:
        if not len(out) and sent < total and sent - got < in_flight:
            hi = min(total, got + in_flight)
            out = memoryview(b"".join(frames[sent:hi]))
            sent = hi
        if len(out):
            out = out[conn.send(out):]
        replies = conn.recv_replies()
        now = perf()
        if replies:
            if now - last_progress > result.reply_gap_max_s:
                result.reply_gap_max_s = now - last_progress
            _absorb(result, replies, now, check)
            got += len(replies)
            last_progress = now
        elif now - last_progress > _DRAIN_TIMEOUT_S:
            break
        else:
            conn.wait(bool(len(out)), 0.05)
    result.sent = sent
    result.ended = perf()
    result.cpu_s = time.process_time() - cpu0
    return result
