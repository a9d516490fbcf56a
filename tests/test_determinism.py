"""Determinism regression suite.

The kernel's fast path (lazy cancellation, heap compaction, handle
reuse via reschedule, call_fast entries) must never change observable
event ordering: a fixed seed must give bit-identical results run to
run, and the parallel runner's merged output must equal the serial
output. These tests pin both properties.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig1_tcp_reservation,
    fig6_visualization,
    table1_aqm,
    table1_burstiness,
    table1_l4s,
)
from repro.kernel import Simulator
from repro.kernel.simulator import _COMPACT_MIN_DEAD


# ---------------------------------------------------------------------------
# Whole-experiment bit-identity
# ---------------------------------------------------------------------------


def _fig1_fingerprint(seed=0):
    result = fig1_tcp_reservation.run(quick=True, seed=seed, duration=4.0)
    series = {
        k: (tuple(map(float, x)), tuple(map(float, y)))
        for k, (x, y) in result.series.items()
    }
    return series, tuple(map(tuple, result.rows)), dict(result.extra)


def test_fig1_quick_twice_bit_identical():
    assert _fig1_fingerprint() == _fig1_fingerprint()


# ---------------------------------------------------------------------------
# Kernel ordering properties
# ---------------------------------------------------------------------------


class TestKernelOrdering:
    def test_compaction_preserves_order(self):
        """Firing order with mass cancellation == order without any
        compaction (small heaps never compact)."""

        def build(n_timers, cancel_stride):
            sim = Simulator(seed=0)
            fired = []
            handles = [
                sim.call_in(
                    (i % 7) * 0.001, lambda i=i: fired.append(i)
                )
                for i in range(n_timers)
            ]
            cancelled = set()
            for i in range(0, n_timers, cancel_stride):
                handles[i].cancel()
                cancelled.add(i)
            sim.run()
            return fired, cancelled

        # Big enough that the >50% dead compaction triggers...
        big_fired, big_cancelled = build(4 * _COMPACT_MIN_DEAD, 2)
        assert big_fired == [
            i
            for i in sorted(
                range(4 * _COMPACT_MIN_DEAD),
                key=lambda i: ((i % 7) * 0.001, i),
            )
            if i not in big_cancelled
        ]

    def test_reschedule_matches_cancel_plus_call_in(self):
        """reschedule() must consume exactly one sequence number, so
        interleavings with other timers are identical to the
        cancel-then-call_in spelling."""

        def variant(use_reschedule):
            sim = Simulator(seed=0)
            fired = []
            handle = sim.call_in(0.010, fired.append, "rearmed")
            sim.call_in(0.001, fired.append, "a")
            if use_reschedule:
                sim.reschedule(handle, 0.005)
            else:
                handle.cancel()
                sim.call_in(0.005, fired.append, "rearmed")
            # Same absolute time as the re-armed timer: the tie must
            # break the same way in both spellings.
            sim.call_in(0.005, fired.append, "tie")
            sim.run()
            return fired

        assert variant(True) == variant(False) == ["a", "rearmed", "tie"]

    def test_rescheduled_old_entry_never_fires(self):
        sim = Simulator(seed=0)
        fired = []
        handle = sim.call_in(0.001, fired.append, "x")
        sim.reschedule(handle, 0.100)
        sim.run(until=0.050)
        assert fired == []
        sim.run(until=0.200)
        assert fired == ["x"]

    def test_call_fast_ties_break_by_insertion(self):
        sim = Simulator(seed=0)
        fired = []
        sim.call_fast(0.001, fired.append, "fast1")
        sim.call_in(0.001, fired.append, "timer")
        sim.call_fast(0.001, fired.append, "fast2")
        sim.run()
        assert fired == ["fast1", "timer", "fast2"]

    def test_events_processed_excludes_dead_entries(self):
        sim = Simulator(seed=0)
        live = [sim.call_in(0.001, lambda: None) for _ in range(5)]
        dead = [sim.call_in(0.002, lambda: None) for _ in range(5)]
        for handle in dead:
            handle.cancel()
        sim.run()
        assert sim.events_processed == len(live)

    def test_mass_cancel_compacts_heap(self):
        sim = Simulator(seed=0)
        handles = [
            sim.call_in(1.0, lambda: None)
            for _ in range(4 * _COMPACT_MIN_DEAD)
        ]
        for handle in handles[: 3 * _COMPACT_MIN_DEAD]:
            handle.cancel()
        # Compaction triggered along the way: the heap shrank below
        # the push total, and dead-count bookkeeping stayed exact
        # (queue length minus tracked dead == live survivors).
        assert len(sim._queue) < 4 * _COMPACT_MIN_DEAD
        assert len(sim._queue) - sim._dead == _COMPACT_MIN_DEAD


# ---------------------------------------------------------------------------
# Partitioned-merge identity (the parallel runner's merge path)
# ---------------------------------------------------------------------------


class TestPartitionedMerge:
    def test_fig6_cell_results_match_serial(self):
        """run(cell_results=...) with serially measured values must
        reproduce run() exactly — this is the contract the parallel
        runner's merge depends on."""
        grid = dict(
            frame_sizes_kb=[5], reservations_kbps=[200.0, 800.0],
            duration=2.0,
        )
        serial = fig6_visualization.run(seed=0, **grid)
        points = {
            key: fig6_visualization.measure_point(seed=0, **kwargs)
            for key, kwargs in fig6_visualization.plan_points(**grid)
        }
        merged = fig6_visualization.run(seed=0, cell_results=points, **grid)
        assert merged.rows == serial.rows
        assert merged.series.keys() == serial.series.keys()
        for key in serial.series:
            np.testing.assert_array_equal(
                merged.series[key][1], serial.series[key][1]
            )

    def test_fig6_plan_covers_quick_grid(self):
        keys = [k for k, _ in fig6_visualization.plan_points(quick=True)]
        assert len(keys) == len(set(keys)) == 8  # 2 frame sizes x 4 points

    def test_table1_cell_results_assembly(self):
        """Injected cell values land in the right (row, column) —
        validates the merge without running any bisection."""
        cells = {
            key: float(100 * i)
            for i, (key, _) in enumerate(table1_burstiness.plan_cells(quick=True))
        }
        result = table1_burstiness.run(quick=True, cell_results=cells)
        for row in result.rows:
            bandwidth = row[0]
            for offset, label in enumerate(result.headers[1:]):
                assert row[1 + offset] == cells[(bandwidth, label)]

    def test_table1_plan_covers_quick_grid(self):
        keys = [k for k, _ in table1_burstiness.plan_cells(quick=True)]
        assert len(keys) == len(set(keys)) == 6  # 2 bandwidths x 3 configs

    def test_table1_aqm_cell_results_assembly(self):
        """Injected cell dicts land in the right row — validates the
        parallel merge without running any simulation."""
        fields = ("reservation_kbps", "throughput_kbps", "resent_segments",
                  "timeouts", "early_drops", "tail_drops", "ecn_marks",
                  "ce_received")
        cells = {
            key: {f: float(100 * i + j) for j, f in enumerate(fields)}
            for i, (key, _) in enumerate(table1_aqm.plan_cells(quick=True))
        }
        result = table1_aqm.run(quick=True, cell_results=cells)
        for row in result.rows:
            bandwidth, label, mode = row[0], row[1], row[2]
            cell = cells[(bandwidth, label, mode)]
            assert row[3:] == [cell[f] for f in fields[:-1]]
        # The per-mode totals must be sums over that mode's cells.
        for mode in ("droptail", "wred", "wred+ecn"):
            expected = sum(
                c["resent_segments"]
                for (_, _, m), c in cells.items() if m == mode
            )
            key = mode.replace("+", "_")
            assert result.extra[f"{key}_resent_segments"] == expected

    def test_table1_aqm_plan_covers_quick_grid(self):
        keys = [k for k, _ in table1_aqm.plan_cells(quick=True)]
        # 2 bandwidths x 3 configs x 3 modes
        assert len(keys) == len(set(keys)) == 18

    def test_table1_l4s_cell_results_assembly(self):
        fields = ("reservation_kbps", "throughput_kbps", "resent_segments",
                  "timeouts", "early_drops", "tail_drops", "ecn_marks",
                  "queue_delay_ms", "ce_received", "ecn_responses")
        cells = {
            key: {f: float(100 * i + j) for j, f in enumerate(fields)}
            for i, (key, _) in enumerate(table1_l4s.plan_cells(quick=True))
        }
        result = table1_l4s.run(quick=True, cell_results=cells)
        row_fields = ("reservation_kbps", "throughput_kbps",
                      "resent_segments", "timeouts", "early_drops",
                      "tail_drops", "ecn_marks", "queue_delay_ms")
        for row in result.rows:
            bandwidth, label, mode = row[0], row[1], row[2]
            cell = cells[(bandwidth, label, mode)]
            assert row[3:] == [cell[f] for f in row_fields]
        for mode in table1_l4s.MODES:
            mode_cells = [c for (_, _, m), c in cells.items() if m == mode]
            key = mode.replace("+", "_")
            assert result.extra[f"{key}_resent_segments"] == sum(
                c["resent_segments"] for c in mode_cells
            )
            assert result.extra[f"{key}_mean_queue_delay_ms"] == pytest.approx(
                sum(c["queue_delay_ms"] for c in mode_cells) / len(mode_cells)
            )

    def test_table1_l4s_cell_results_match_serial(self):
        """Serially measured cells fed back through run(cell_results=...)
        reproduce the serial run exactly — the parallel runner's merge
        contract, on a reduced grid."""
        grid = dict(bandwidths_kbps=[1600.0], duration=2.0)
        serial = table1_l4s.run(seed=0, **grid)
        cells = {
            key: table1_l4s.measure_cell(seed=0, **kwargs)
            for key, kwargs in table1_l4s.plan_cells(**grid)
        }
        merged = table1_l4s.run(seed=0, cell_results=cells, **grid)
        assert merged.rows == serial.rows
        assert merged.extra == serial.extra
        # Liveness of the pinned reference cells (benchmarks/pins.json):
        # a config drift that stopped the marking or the sojourn
        # accounting would leave their event counts pinning a plain
        # priority queue.
        assert cells[1600.0, "normal_1fps", "wred+ecn"]["ecn_marks"] > 0
        codel = cells[1600.0, "normal_1fps", "codel"]
        assert codel["ecn_marks"] > 0
        assert codel["queue_delay_ms"] > 0

    def test_table1_l4s_plan_covers_quick_grid(self):
        keys = [k for k, _ in table1_l4s.plan_cells(quick=True)]
        # 2 bandwidths x 3 configs x 4 modes
        assert len(keys) == len(set(keys)) == 24
        modes = {mode for _, _, mode in keys}
        assert modes == set(table1_l4s.MODES)


# ---------------------------------------------------------------------------
# call_at contract
# ---------------------------------------------------------------------------


def test_call_at_past_raises():
    sim = Simulator(seed=0)
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda: None)
