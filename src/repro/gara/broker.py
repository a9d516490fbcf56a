"""Bandwidth broker: per-link admission control for premium traffic.

"Normally, admission control is performed not by the router but by an
external QoS system, usually referred to as a bandwidth broker" (§2).
GARA adds "policy-driven management of a variety of resource types"
(§4.2): here, per-owner quotas bounding how much of the EF capacity any
one principal may hold.

Each directed link egress gets a slot table whose capacity is the EF
share of the link (premium traffic must be "carefully limited" to avoid
starving best effort). A path admission claims the same interval/amount
on every egress along the path, transactionally.

Crash tolerance
---------------
The broker is a process, and processes die. With a
:class:`~repro.resilience.Journal` attached, every committed mutation
(path admission, release, quota change, orphan collection) is logged
before the caller sees the result; :meth:`crash` wipes all in-memory
state and makes every control call fail with :class:`BrokerUnavailable`,
and :meth:`restart` replays the journal to reconstruct the exact
pre-crash slot tables, owner usage, and quotas — entry ids included, so
claim records held by resource managers stay valid across the restart.

Entries resurrected by replay are *orphan candidates* until their
holder re-registers them (:meth:`reregister`, normally from a
``restart_listeners`` callback): a claim whose owner never comes back
within ``gc_grace`` seconds is expunged by the orphan GC so a dead
client cannot strand premium capacity forever. Releasing a claim the GC
already expunged is a counted no-op (``stale_releases``), never an
error — the capacity is simply already free.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..net.node import Interface, Node
from ..net.topology import Network, RouteError
from .reservation import ReservationError
from .slot_table import AdmissionError, SlotEntry, SlotTable

__all__ = ["BandwidthBroker", "BrokerUnavailable", "DEFAULT_EF_SHARE"]

#: Fraction of each link's bandwidth admissible as EF traffic.
DEFAULT_EF_SHARE = 0.7


class BrokerUnavailable(ReservationError):
    """The broker is down; the control call was never processed."""


class BandwidthBroker:
    """Admission control over the paths of a :class:`Network`.

    Parameters
    ----------
    network:
        The topology whose link egresses are brokered.
    ef_share:
        Fraction of each link's bandwidth admissible as premium.
    journal:
        Optional :class:`~repro.resilience.Journal`; when given, every
        committed mutation is logged and :meth:`restart` replays it.
    gc_grace:
        Seconds after a restart before unre-registered (orphaned)
        claims are expunged.
    """

    def __init__(
        self,
        network: Network,
        ef_share: float = DEFAULT_EF_SHARE,
        journal=None,
        gc_grace: float = 2.0,
    ) -> None:
        if not 0 < ef_share <= 1:
            raise ValueError("ef_share must be in (0, 1]")
        if gc_grace < 0:
            raise ValueError("gc_grace must be non-negative")
        self.network = network
        self.sim = network.sim
        self.ef_share = ef_share
        self.journal = journal
        self.gc_grace = gc_grace
        #: False while crashed; every control call then raises
        #: :class:`BrokerUnavailable` (releases become deaf no-ops).
        self.alive = True
        #: Called with the broker after every restart's journal replay;
        #: claim holders use this to flush write-behind releases and
        #: re-register live claims before the orphan GC grace expires.
        self.restart_listeners: List[Callable[["BandwidthBroker"], None]] = []
        # Admission statistics (scraped by repro.telemetry). The
        # journal-derivable ones (admissions/releases/orphans) are
        # volatile process state: a crash zeroes them and replay
        # restores them; rejections are not journaled and reset to 0.
        self.admissions = 0
        self.rejections = 0
        self.releases = 0
        # Recovery statistics (observer-side; survive crashes).
        self.crashes = 0
        self.restarts = 0
        self.journal_replays = 0
        self.stale_releases = 0
        self.deaf_releases = 0
        self.reregistrations = 0
        self.orphans_collected = 0
        self.orphan_paths_collected = 0
        self._tables: Dict[Interface, SlotTable] = {}
        # Policy: owner -> max fraction of any link's EF capacity.
        self._quotas: Dict[str, float] = {}
        self._owner_usage: Dict[Tuple[str, Interface], float] = {}
        # Provenance of every live entry, keyed (iface, entry_id) ->
        # (owner, bandwidth, admit_lsn). Feeds checkpoints (journal
        # compaction) and the post-replay orphan-candidate set.
        self._entry_meta: Dict[
            Tuple[Interface, int], Tuple[Optional[str], float, int]
        ] = {}
        # Entries resurrected by replay, keyed (iface, entry_id) ->
        # (owner, bandwidth, admit_lsn); awaiting re-registration.
        self._orphan_candidates: Dict[
            Tuple[Interface, int], Tuple[Optional[str], float, int]
        ] = {}
        self._gc_timer = None
        #: Snapshot taken immediately after the latest replay, before
        #: restart listeners run (recovery-equivalence checks).
        self.last_replay_snapshot = None

    def _require_alive(self) -> None:
        if not self.alive:
            raise BrokerUnavailable("bandwidth broker is down")

    def table_for(self, iface: Interface) -> SlotTable:
        table = self._tables.get(iface)
        if table is None:
            table = SlotTable(
                capacity=iface.bandwidth * self.ef_share,
                name=f"EF:{iface.node.name}.{iface.name}",
            )
            self._tables[iface] = table
        return table

    def path_available(
        self, src: Node, dst: Node, start: float, end: float
    ) -> float:
        """Admissible premium bandwidth over the path for the interval
        (0.0 if no working path currently exists or the broker is
        down)."""
        if not self.alive:
            return 0.0
        try:
            ifaces = self.network.path_interfaces(src, dst)
        except RouteError:
            return 0.0
        return min(
            self.table_for(iface).available(start, end) for iface in ifaces
        )

    def claims_valid(self, claimed) -> bool:
        """True while every claimed egress still sits on a working link.

        A claim on a downed interface reserves capacity on a path that
        no longer exists — the holder must release it and re-admit on
        the rerouted path. A dead broker validates nothing.
        """
        if not self.alive:
            return False
        return all(iface.up for iface, _entry, _owner, _bw in claimed)

    # -- policy ----------------------------------------------------------

    def set_quota(self, owner: str, fraction: float) -> None:
        """Cap ``owner`` at ``fraction`` of any link's EF capacity
        (policy-driven management). Owners without a quota are bounded
        only by the capacity itself."""
        self._require_alive()
        if not 0 < fraction <= 1:
            raise ValueError("quota fraction must be in (0, 1]")
        self._quotas[owner] = fraction
        if self.journal is not None:
            self.journal.append("quota", owner=owner, fraction=fraction)

    def quota_of(self, owner: Optional[str]) -> Optional[float]:
        return None if owner is None else self._quotas.get(owner)

    def _check_quota(
        self, owner: Optional[str], iface: Interface, bandwidth: float
    ) -> None:
        quota = self.quota_of(owner)
        if quota is None:
            return
        limit = self.table_for(iface).capacity * quota
        used = self._owner_usage.get((owner, iface), 0.0)
        if used + bandwidth > limit + 1e-9:
            raise ReservationError(
                f"policy: owner {owner!r} would hold "
                f"{(used + bandwidth) / 1e6:.1f} Mb/s on "
                f"{iface.node.name}.{iface.name}, quota is "
                f"{limit / 1e6:.1f} Mb/s"
            )

    # -- admission ----------------------------------------------------------

    def admit_path(
        self,
        src: Node,
        dst: Node,
        bandwidth: float,
        start: float,
        end: float,
        owner: Optional[str] = None,
    ) -> List[Tuple[Interface, int, Optional[str], float]]:
        """Claim ``bandwidth`` on every egress from ``src`` to ``dst``.

        All-or-nothing: on any failure (capacity or policy quota),
        already-claimed entries are rolled back — per-owner usage is
        restored to its *exact* prior value, not arithmetically
        decremented, so repeated-link paths and adversarial float
        magnitudes cannot leave residue — and
        :class:`ReservationError` is raised. Returns the claim records
        for later release.
        """
        self._require_alive()
        claimed: List[Tuple[Interface, int, Optional[str], float]] = []
        # Exact-rollback snapshot of every (owner, iface) usage value
        # this admission touches (None = key absent before).
        usage_before: Dict[Tuple[str, Interface], Optional[float]] = {}
        try:
            ifaces = self.network.path_interfaces(src, dst)
        except RouteError as exc:
            raise ReservationError(str(exc)) from exc
        try:
            for iface in ifaces:
                if owner is not None:
                    self._check_quota(owner, iface, bandwidth)
                entry = self.table_for(iface).add(start, end, bandwidth)
                if owner is not None:
                    key = (owner, iface)
                    if key not in usage_before:
                        usage_before[key] = self._owner_usage.get(key)
                    self._owner_usage[key] = (
                        self._owner_usage.get(key, 0.0) + bandwidth
                    )
                claimed.append((iface, entry, owner, bandwidth))
        except (AdmissionError, ReservationError) as exc:
            for iface, entry, _owner, _bw in claimed:
                self.table_for(iface).remove(entry)
            for key, value in usage_before.items():
                if value is None:
                    self._owner_usage.pop(key, None)
                else:
                    self._owner_usage[key] = value
            self.rejections += 1
            self._emit_admission("reject", src, dst, bandwidth, error=str(exc))
            if isinstance(exc, ReservationError):
                raise
            raise ReservationError(str(exc)) from exc
        self.admissions += 1
        lsn = 0
        if self.journal is not None:
            lsn = self.journal.append(
                "admit",
                owner=owner,
                bandwidth=bandwidth,
                start=start,
                end=end,
                claims=tuple(
                    [
                        (iface.node.name, iface.name, entry)
                        for iface, entry, _o, _bw in claimed
                    ]
                ),
            ).lsn
        for iface, entry, _o, _bw in claimed:
            self._entry_meta[(iface, entry)] = (owner, bandwidth, lsn)
        if self.sim.telemetry is not None:
            self._emit_admission(
                "admit", src, dst, bandwidth, hops=len(claimed)
            )
        return claimed

    def _emit_admission(
        self, name: str, src: Node, dst: Node, bandwidth: float, **fields
    ) -> None:
        sim = self.network.sim
        tel = sim.telemetry
        if tel is not None and tel.trace is not None:
            tel.trace.emit(
                sim.now, "gara", name,
                src=src.name, dst=dst.name, bandwidth=bandwidth, **fields,
            )

    def _emit(self, name: str, **fields) -> None:
        tel = self.sim.telemetry
        if tel is not None and tel.trace is not None:
            tel.trace.emit(self.sim.now, "gara", name, **fields)

    def release(self, claimed, count: bool = True) -> None:
        """Free the given claim records.

        Crash-safe semantics: claims the orphan GC already expunged are
        counted no-ops (``stale_releases``), and a release sent to a
        dead broker is a deaf no-op (``deaf_releases``) — the caller's
        resource manager queues it and flushes on restart.
        """
        if not claimed:
            return
        if not self.alive:
            self.deaf_releases += 1
            return
        removed = []
        stale = 0
        for iface, entry, owner, bandwidth in claimed:
            if self._forget_claim(iface, entry, owner, bandwidth):
                removed.append(
                    (iface.node.name, iface.name, entry, owner, bandwidth)
                )
            else:
                stale += 1
        self.stale_releases += stale
        counted = bool(count and removed)
        if counted:
            self.releases += 1
        if removed and self.journal is not None:
            self.journal.append(
                "release", entries=tuple(removed), counted=counted
            )

    def _forget_claim(
        self,
        iface: Interface,
        entry_id: int,
        owner: Optional[str],
        bandwidth: float,
    ) -> bool:
        """Remove one claim entry and its usage; False if already gone.

        Shared by live release, journal replay, and the orphan GC so
        all three produce bit-identical float accounting.
        """
        table = self.table_for(iface)
        if entry_id not in table:
            return False
        table.remove(entry_id)
        self._entry_meta.pop((iface, entry_id), None)
        if owner is not None:
            key = (owner, iface)
            remaining = self._owner_usage.get(key, 0.0) - bandwidth
            if remaining <= 1e-9:
                self._owner_usage.pop(key, None)
            else:
                self._owner_usage[key] = remaining
        return True

    # -- crash / recovery ----------------------------------------------------

    def snapshot(self):
        """Canonical committed state (non-empty slot tables, per-owner
        usage, quotas) for recovery-equivalence checks."""
        tables = tuple(
            sorted(
                table.snapshot()
                for table in self._tables.values()
                if len(table)
            )
        )
        usage = tuple(
            sorted(
                (owner, iface.node.name, iface.name, value)
                for (owner, iface), value in self._owner_usage.items()
            )
        )
        quotas = tuple(sorted(self._quotas.items()))
        return (tables, usage, quotas)

    def conservation_errors(self, holders) -> List[str]:
        """Reservation conservation: the slot tables against the
        :meth:`admit_path` claim lists ``holders`` hold. One message,
        naming table and entry, per held entry not booked, held twice or
        booked at another bandwidth; per booked entry nobody holds; per
        table over capacity. No holders: nothing may be booked."""
        booked = {
            (iface, e.entry_id): e.amount
            for iface, table in self._tables.items()
            for e in table.entries
        }
        errors, held = [], set()
        for claims in holders:
            for iface, entry_id, _owner, bandwidth in claims:
                where = f"EF:{iface.node.name}.{iface.name} entry {entry_id}"
                key = (iface, entry_id)
                if key in held:
                    errors.append(f"{where} is held twice")
                elif key not in booked:
                    errors.append(f"{where} is held but not booked")
                elif booked[key] != bandwidth:
                    errors.append(
                        f"{where} is booked at {booked[key]} b/s but "
                        f"held at {bandwidth}"
                    )
                held.add(key)
        for iface, entry_id in booked:
            if (iface, entry_id) not in held:
                errors.append(
                    f"{self._tables[iface].name} entry {entry_id} is "
                    "booked but held by no one"
                )
        for table in self._tables.values():
            peak = table.max_usage(-math.inf, math.inf) if len(table) else 0
            if peak > table.capacity + 1e-6:
                errors.append(f"{table.name} is over capacity: peak {peak}")
        return errors

    def checkpoint(self):
        """Serialize the full committed state for journal compaction.

        Unlike :meth:`snapshot` (a canonical value for equality
        checks), a checkpoint preserves *exact process state* — entry
        insertion order, float accounting values, provenance LSNs, and
        the journal-derivable counters — so restoring it and folding
        the post-checkpoint journal suffix is byte-identical to
        replaying the full log.
        """
        self._require_alive()
        entries = []
        for iface, table in self._tables.items():
            for e in table.entries:
                owner, bandwidth, lsn = self._entry_meta[
                    (iface, e.entry_id)
                ]
                entries.append((
                    iface.node.name, iface.name,
                    e.entry_id, e.start, e.end, e.amount,
                    owner, bandwidth, lsn,
                ))
        usage = tuple(
            (owner, iface.node.name, iface.name, value)
            for (owner, iface), value in self._owner_usage.items()
        )
        return (
            "broker-v1",
            tuple(entries),
            usage,
            tuple(self._quotas.items()),
            (
                self.admissions,
                self.releases,
                self.orphans_collected,
                self.orphan_paths_collected,
            ),
        )

    def _restore_checkpoint(self, payload) -> None:
        """Install a :meth:`checkpoint` payload (start of replay)."""
        version, entries, usage, quotas, counters = payload
        if version != "broker-v1":  # pragma: no cover - future-proofing
            raise ValueError(f"unknown checkpoint version {version!r}")
        for node_name, iface_name, entry_id, start, end, amount, owner, \
                bandwidth, lsn in entries:
            iface = self._iface(node_name, iface_name)
            self.table_for(iface).restore(
                SlotEntry(entry_id, start, end, amount)
            )
            self._entry_meta[(iface, entry_id)] = (owner, bandwidth, lsn)
        for owner, node_name, iface_name, value in usage:
            self._owner_usage[
                (owner, self._iface(node_name, iface_name))
            ] = value
        self._quotas.update(quotas)
        (
            self.admissions,
            self.releases,
            self.orphans_collected,
            self.orphan_paths_collected,
        ) = counters

    def compact_journal(self) -> int:
        """Checkpoint the live state into the journal and truncate the
        records it subsumes, bounding future replay work; returns the
        number of records truncated. No-op without a journal."""
        self._require_alive()
        if self.journal is None:
            return 0
        return self.journal.compact(self.checkpoint())

    def crash(self) -> None:
        """Kill the broker process: all in-memory state (slot tables,
        owner usage, quotas, journal-derivable statistics) is lost; the
        journal, being stable storage, survives. Idempotent."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self._tables.clear()
        self._quotas.clear()
        self._owner_usage.clear()
        self._entry_meta.clear()
        self._orphan_candidates.clear()
        self.admissions = 0
        self.rejections = 0
        self.releases = 0
        self.orphans_collected = 0
        self.orphan_paths_collected = 0
        if self._gc_timer is not None:
            self._gc_timer.cancel()
            self._gc_timer = None
        self._emit("broker_crash")

    def restart(self) -> None:
        """Bring the broker back: restore the journal's checkpoint (if
        one was taken by :meth:`compact_journal`), fold the remaining
        records to reconstruct the exact pre-crash state, notify
        ``restart_listeners`` (who flush queued releases and
        re-register live claims), then start the orphan-GC grace window
        for whatever nobody re-registered."""
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        replayed = 0
        if self.journal is not None:
            if self.journal.snapshot_payload is not None:
                self._restore_checkpoint(self.journal.snapshot_payload)
            for record in self.journal.records:
                self._replay(record)
                replayed += 1
        self.journal_replays += replayed
        # Every entry live after replay was resurrected from stable
        # storage; each is an orphan until its holder re-registers.
        self._orphan_candidates = dict(self._entry_meta)
        self.last_replay_snapshot = self.snapshot()
        self._emit(
            "broker_restart",
            replayed=replayed,
            resurrected=len(self._orphan_candidates),
        )
        for listener in list(self.restart_listeners):
            listener(self)
        if self._orphan_candidates:
            self._gc_timer = self.sim.call_in(
                self.gc_grace, self._collect_orphans
            )

    def reregister(self, claimed) -> int:
        """A claim holder proves liveness for its claim records after a
        restart; re-registered entries are no longer orphan candidates.
        Returns how many candidate entries this call rescued."""
        self._require_alive()
        rescued = 0
        for iface, entry, _owner, _bw in claimed:
            if self._orphan_candidates.pop((iface, entry), None) is not None:
                rescued += 1
        self.reregistrations += rescued
        return rescued

    def _iface(self, node_name: str, iface_name: str) -> Interface:
        node = self.network._resolve(node_name)
        for iface in node.interfaces:
            if iface.name == iface_name:
                return iface
        raise KeyError(f"no interface {iface_name!r} on node {node_name!r}")

    def _replay(self, record) -> None:
        op, fields = record.op, record.fields
        if op == "quota":
            self._quotas[fields["owner"]] = fields["fraction"]
        elif op == "admit":
            owner = fields["owner"]
            bandwidth = fields["bandwidth"]
            for node_name, iface_name, entry_id in fields["claims"]:
                iface = self._iface(node_name, iface_name)
                self.table_for(iface).restore(
                    SlotEntry(
                        entry_id, fields["start"], fields["end"], bandwidth
                    )
                )
                if owner is not None:
                    key = (owner, iface)
                    self._owner_usage[key] = (
                        self._owner_usage.get(key, 0.0) + bandwidth
                    )
                self._entry_meta[(iface, entry_id)] = (
                    owner, bandwidth, record.lsn
                )
            self.admissions += 1
        elif op in ("release", "gc"):
            for node_name, iface_name, entry_id, owner, bandwidth in fields[
                "entries"
            ]:
                iface = self._iface(node_name, iface_name)
                self._forget_claim(iface, entry_id, owner, bandwidth)
            if op == "release":
                if fields["counted"]:
                    self.releases += 1
            else:
                self.orphans_collected += len(fields["entries"])
                self.orphan_paths_collected += fields["paths"]
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown journal record op {op!r}")

    def _collect_orphans(self) -> None:
        self._gc_timer = None
        candidates, self._orphan_candidates = self._orphan_candidates, {}
        if not self.alive or not candidates:
            return
        expunged = []
        paths = set()
        for (iface, entry_id), (owner, bandwidth, lsn) in candidates.items():
            if self._forget_claim(iface, entry_id, owner, bandwidth):
                expunged.append(
                    (iface.node.name, iface.name, entry_id, owner, bandwidth)
                )
                paths.add(lsn)
        if not expunged:
            return
        self.orphans_collected += len(expunged)
        self.orphan_paths_collected += len(paths)
        if self.journal is not None:
            self.journal.append(
                "gc", entries=tuple(expunged), paths=len(paths)
            )
        self._emit("orphan_gc", entries=len(expunged), paths=len(paths))
