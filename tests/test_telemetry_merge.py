"""Cross-process telemetry merges and the in-process parallel fallback."""

from __future__ import annotations

import pytest

from repro.telemetry import MetricsRegistry, merge_registries


def test_counters_sum_and_gauges_take_latest_sim_time():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("pkts").inc(10)
    b.counter("pkts").inc(32)
    b.counter("only_b").inc(5)
    a.gauge("depth").set(7.0, t=1.5)
    b.gauge("depth").set(3.0, t=0.5)
    a.gauge("unstamped").set(1.0)
    b.gauge("unstamped").set(2.0)

    merged = merge_registries([a, b])
    assert merged.counter("pkts").value == 42
    assert merged.counter("only_b").value == 5
    # Shard a recorded depth later in simulation time, so its value
    # wins even though b merges after it.
    assert merged.gauge("depth").value == 7.0
    assert merged.gauge("depth").t == 1.5
    # Neither unstamped gauge carries a time: merge order decides.
    assert merged.gauge("unstamped").value == 2.0


def test_histograms_pool_counts_extremes_and_samples():
    a = MetricsRegistry()
    b = MetricsRegistry()
    for v in (1.0, 2.0, 3.0):
        a.histogram("lat").observe(v)
    for v in (9.0, 0.5):
        b.histogram("lat").observe(v)

    merged = merge_registries([a, b])
    hist = merged.histogram("lat")
    assert hist.count == 5
    assert hist.total == pytest.approx(15.5)
    assert hist.min == 0.5
    assert hist.max == 9.0
    assert sorted(hist.samples) == [0.5, 1.0, 2.0, 3.0, 9.0]
    # The merge must not mutate its sources.
    assert a.histogram("lat").count == 3
    assert b.histogram("lat").count == 2


def test_windowed_histograms_merge_bucket_by_bucket():
    a = MetricsRegistry()
    b = MetricsRegistry()
    wa = a.windowed_histogram("rtt", bucket_s=1.0)
    wb = b.windowed_histogram("rtt", bucket_s=1.0)
    wa.observe(0.2, 10.0)
    wa.observe(1.2, 20.0)
    wb.observe(1.7, 30.0)
    wb.observe(5.1, 40.0)

    merged = merge_registries([a, b]).get("rtt")
    assert merged.count == 4
    assert merged._buckets[1].count == 2          # 20.0 and 30.0 share t in [1,2)
    assert merged._buckets[1].min == 20.0
    assert merged._buckets[1].max == 30.0
    assert merged._newest == 5


def test_windowed_bucket_width_mismatch_is_an_error():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.windowed_histogram("rtt", bucket_s=1.0).observe(0.1, 1.0)
    b.windowed_histogram("rtt", bucket_s=2.0).observe(0.1, 1.0)
    with pytest.raises(ValueError, match="bucket widths"):
        merge_registries([a, b])


def test_conflicting_metric_types_are_an_error():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("x").inc()
    b.gauge("x").set(1.0)
    with pytest.raises(TypeError, match="conflicting types"):
        merge_registries([a, b])


def test_run_parallel_single_process_fallback_matches_serial(tmp_path):
    """--parallel 1 runs the job plan in-process, and its experiment
    output must match a plain serial run exactly; so must a pooled
    run, including the job kwargs (--mode) the pool forwards."""
    import json

    from repro.experiments.parallel import run_parallel
    from repro.experiments.runner import EXPERIMENTS, main

    serial = EXPERIMENTS["fig8"].run(quick=True, seed=0)
    results = list(run_parallel(["fig8"], quick=True, seed=0, processes=1))
    assert len(results) == 1
    name, result, record = results[0]
    assert name == "fig8"
    assert record["telemetry"] is None
    assert record["phases"]["run_s"] >= 0.0
    assert result.headers == serial.headers
    assert result.rows == serial.rows

    payloads = []
    for extra in ([], ["--parallel", "2"]):
        out = tmp_path / f"hybrid{len(extra)}"
        argv = ["fig1", "--quick", "--mode", "hybrid", "--no-telemetry"]
        assert main(argv + extra + ["--out", str(out)]) == 0
        payloads.append(json.loads((out / "fig1.json").read_text()))
    assert payloads[0]["extra"]["mode"] == "hybrid"
    assert payloads[0] == payloads[1]
