"""Per-hop behaviours: the priority-queuing egress discipline.

The paper's testbed uses priority queuing on egress ports: "all packets
associated with reservations are sent before any other packets. When
there are no packets in the priority queue, other packets are allowed
to use the entire available bandwidth" (§5.1). This realises the EF PHB.

:class:`PriorityQdisc` holds one queue per service class (EF > AF > BE)
and always dequeues from the highest non-empty class. An optional
aggregate EF policer at a domain-ingress port limits the total
expedited traffic, "to prevent starvation of nonexpedited flows" (§2).

Band queues default to drop-tail but are pluggable: any
:class:`~repro.net.queues.Qdisc` can serve as a band — the scheduler
talks to overrides only through ``enqueue``/``dequeue``/``peek``, which
is how WRED (or CoDel) drops into the AF band without touching the
scheduler. Plain drop-tail bands keep the historical inlined fast path
(byte-identical datapath, no extra dispatch).
"""

from __future__ import annotations

from typing import List, Optional

from ..net.packet import Packet
from ..net.queues import DropTailQueue, Qdisc
from .dscp import (
    AF_CODEPOINTS as _AF_CODEPOINTS,
    CLASS_AF,
    CLASS_BE,
    CLASS_EF,
    EF as _EF,
)
from .token_bucket import TokenBucket

__all__ = ["PriorityQdisc"]


class PriorityQdisc(Qdisc):
    """Strict-priority scheduling over per-class queues.

    Parameters
    ----------
    ef_limit_packets, af_limit_packets, be_limit_packets:
        Per-class queue bounds. The EF queue is generously sized — with
        admission control it should never grow; drops there indicate a
        broken reservation rather than normal congestion.
    ef_aggregate_policer:
        Optional :class:`TokenBucket` policing the *aggregate* EF
        arrivals at this port (used at domain-ingress routers).
    ef_qdisc, af_qdisc, be_qdisc:
        Optional band-queue overrides (e.g. a WRED queue on the AF
        band). Overrides are served through the ordinary
        ``enqueue``/``dequeue``/``peek`` qdisc interface (so
        dequeue-time droppers compose); only genuine
        :class:`DropTailQueue` bands take the inlined fast path.
    """

    N_CLASSES = 3

    def __init__(
        self,
        ef_limit_packets: int = 400,
        af_limit_packets: int = 200,
        be_limit_packets: int = 100,
        ef_aggregate_policer: Optional[TokenBucket] = None,
        sim=None,
        ef_qdisc: Optional[Qdisc] = None,
        af_qdisc: Optional[Qdisc] = None,
        be_qdisc: Optional[Qdisc] = None,
    ) -> None:
        self._queues: List[Qdisc] = [
            ef_qdisc or DropTailQueue(limit_packets=ef_limit_packets),
            af_qdisc or DropTailQueue(limit_packets=af_limit_packets),
            be_qdisc or DropTailQueue(limit_packets=be_limit_packets),
        ]
        # Per-band enqueue override: None selects the inlined drop-tail
        # fast path; anything else is dispatched dynamically.
        self._band_enqueue = [
            None if type(q) is DropTailQueue else q.enqueue
            for q in self._queues
        ]
        # Per-band dequeue plan, same gate: a genuine DropTailQueue is
        # popped inline; any other discipline is served through its own
        # dequeue so idle stamps and dequeue-time drops actually run.
        self._deq_bands = [
            (q, None if type(q) is DropTailQueue else q.dequeue)
            for q in self._queues
        ]
        self.ef_aggregate_policer = ef_aggregate_policer
        self.sim = sim
        if ef_aggregate_policer is not None and sim is None:
            raise ValueError("an aggregate policer needs the sim for timestamps")
        self.ef_policer_drops = 0

    # -- class accessors (for tests and monitoring) ----------------------

    @property
    def ef_queue(self) -> Qdisc:
        return self._queues[CLASS_EF]

    @property
    def af_queue(self) -> Qdisc:
        return self._queues[CLASS_AF]

    @property
    def be_queue(self) -> Qdisc:
        return self._queues[CLASS_BE]

    @property
    def drops(self) -> int:
        """All losses at this port: band-queue drops (tail *and* AQM
        early drops) plus aggregate-policer drops. ``total_drops``
        (the telemetry figure) mirrors this, so policer losses are
        never invisible in queue stats."""
        return sum(q.total_drops for q in self._queues) + self.ef_policer_drops

    # -- qdisc interface --------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        # Inlined service_class_of: this runs once per packet per hop.
        # Any AF codepoint (AF11..AF43) selects the AF band — only
        # AF11 used to, silently demoting the other eleven to BE.
        dscp = packet.dscp
        klass = (
            CLASS_EF if dscp == _EF
            else CLASS_AF if dscp in _AF_CODEPOINTS
            else CLASS_BE
        )
        if klass == CLASS_EF and self.ef_aggregate_policer is not None:
            if not self.ef_aggregate_policer.consume(packet.size, self.sim.now):
                self.ef_policer_drops += 1
                tel = self.sim.telemetry
                if tel is not None and tel.trace is not None:
                    tel.trace.emit(
                        self.sim.now, "diffserv", "ef_policer_drop",
                        src=packet.src, dst=packet.dst,
                        sport=packet.sport, dport=packet.dport,
                        size=packet.size,
                    )
                return False
        band_enqueue = self._band_enqueue[klass]
        if band_enqueue is not None:
            # Custom band discipline (e.g. WRED on the AF band).
            return band_enqueue(packet)
        # Inlined DropTailQueue.enqueue for the band queue (nothing
        # patches the inner bands' enqueue; the *qdisc*-level enqueue —
        # this method — is the supported hook point).
        queue = self._queues[klass]
        if (
            len(queue._queue) >= queue._limit_p
            or queue._bytes + packet.size > queue._limit_b
        ):
            return queue._dropped(packet)
        queue._queue.append(packet)
        queue._bytes += packet.size
        return True

    def dequeue(self) -> Optional[Packet]:
        for queue, band_dequeue in self._deq_bands:
            if band_dequeue is None:
                # Inlined drop-tail pop: the scan skips (usually empty)
                # higher-priority bands without a call, and the hit
                # avoids a second method dispatch.
                if queue._queue:
                    packet = queue._queue.popleft()
                    queue._bytes -= packet.size
                    return packet
            elif len(queue):
                # Custom band (WRED, CoDel, …) — its dequeue may drop
                # the whole backlog and come back empty-handed, in
                # which case service falls to the next band.
                packet = band_dequeue()
                if packet is not None:
                    return packet
        return None

    def peek(self) -> Optional[Packet]:
        for queue, band_dequeue in self._deq_bands:
            packet = (
                (queue._queue[0] if queue._queue else None)
                if band_dequeue is None
                else queue.peek()
            )
            if packet is not None:
                return packet
        return None

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def backlog_bytes(self) -> int:
        return sum(q.backlog_bytes for q in self._queues)
