"""Journal compaction: snapshot/truncate primitives and checkpointed
broker recovery that is byte-identical to a full-log replay."""

import pytest

from repro import Simulator, mbps
from repro.gara import BandwidthBroker
from repro.net.topology import garnet
from repro.resilience import Journal


def build(seed=3):
    sim = Simulator(seed=seed)
    tb = garnet(sim, backbone_bandwidth=mbps(50))
    journal = Journal("wal")
    broker = BandwidthBroker(tb.network, ef_share=0.7, journal=journal)
    return sim, tb, broker, journal


# ---------------------------------------------------------------------------
# Journal primitives
# ---------------------------------------------------------------------------


class TestJournalPrimitives:
    def test_snapshot_covers_current_lsn_without_dropping(self):
        j = Journal("j")
        j.append("a", x=1)
        j.append("b", y=2)
        lsn = j.snapshot(("payload",))
        assert lsn == 2 and j.snapshot_lsn == 2
        assert len(j) == 2  # snapshot alone drops nothing
        assert j.snapshots_total == 1
        assert j.snapshot_payload == ("payload",)

    def test_truncate_refuses_to_pass_the_checkpoint(self):
        j = Journal("j")
        j.append("a")
        j.append("b")
        with pytest.raises(ValueError):
            j.truncate_below(2)  # no checkpoint: would lose record 1
        j.snapshot("chk")
        with pytest.raises(ValueError):
            j.truncate_below(4)  # past snapshot_lsn + 1
        assert j.truncate_below(2) == 1
        assert [r.lsn for r in j.records] == [2]
        assert j.records_truncated == 1

    def test_compact_preserves_lsn_continuity(self):
        j = Journal("j")
        for op in ("a", "b", "c"):
            j.append(op)
        assert j.compact("chk") == 3
        assert len(j) == 0
        assert j.last_lsn == 3  # carried by the checkpoint
        assert j.append("d").lsn == 4  # LSNs never restart

    def test_replay_folds_only_retained_suffix(self):
        j = Journal("j")
        j.append("a")
        j.compact("chk")
        j.append("b")
        seen = []
        assert j.replay(lambda r: seen.append(r.op)) == 1
        assert seen == ["b"]


# ---------------------------------------------------------------------------
# Broker-level compaction
# ---------------------------------------------------------------------------


class TestBrokerCompaction:
    def test_checkpoint_plus_suffix_replay_is_identical(self):
        sim, tb, broker, journal = build()
        claims = [
            broker.admit_path(
                tb.premium_src, tb.premium_dst, mbps(1),
                float(i), float(i) + 5.0, owner=f"owner{i % 2}",
            )
            for i in range(6)
        ]
        broker.release(claims.pop())
        truncated = broker.compact_journal()
        assert truncated > 0
        assert len(journal) == 0  # everything subsumed by the checkpoint

        # Post-checkpoint suffix: one more admission, one release.
        claims.append(broker.admit_path(
            tb.competitive_src, tb.competitive_dst, mbps(2),
            0.0, 9.0, owner="late",
        ))
        broker.release(claims.pop(0))
        suffix = len(journal)
        assert suffix > 0
        expected = broker.snapshot()
        expected_counters = (broker.admissions, broker.releases)

        broker.crash()
        broker.restart()
        assert broker.snapshot() == expected
        assert (broker.admissions, broker.releases) == expected_counters
        # Replay work was bounded by the suffix, not the full history.
        assert broker.journal_replays == suffix

    def test_compaction_survives_repeated_crash_cycles(self):
        sim, tb, broker, journal = build(seed=9)
        held = []
        for cycle in range(3):
            claimed = broker.admit_path(
                tb.premium_src, tb.premium_dst, mbps(1),
                float(cycle), float(cycle) + 2.0, owner="cycler",
            )
            held.append(claimed)
            broker.compact_journal()
            expected = broker.snapshot()
            broker.crash()
            broker.restart()
            assert broker.snapshot() == expected
            broker.reregister(claimed)
        assert journal.snapshots_total == 3
        assert broker.conservation_errors(held) == []

    def test_released_state_does_not_resurrect_after_compaction(self):
        sim, tb, broker, journal = build(seed=5)
        claimed = broker.admit_path(
            tb.premium_src, tb.premium_dst, mbps(3), 0.0, 4.0, owner="gone",
        )
        broker.release(claimed)
        broker.compact_journal()
        broker.crash()
        broker.restart()
        assert broker.conservation_errors([]) == []
        assert broker._owner_usage.get(("gone",)) is None
