"""Cross-process metric merges for sharded (PDES) runs.

Every PDES shard keeps its own :class:`MetricsRegistry`; after a run
the coordinator folds them into one registry as if a single process had
recorded everything:

* **counters** sum;
* **gauges** take the value with the latest recorded simulation time
  (:attr:`GaugeMetric.t`); unstamped gauges fall back to the last
  shard in merge order, which is deterministic for a fixed shard
  count;
* **histograms** sum counts and totals, widen min/max, and pool the
  retained samples (for :class:`WindowedHistogram`, bucket by bucket).

Counter and count merges are exact. Histogram sums are float additions
in shard order — deterministic for a fixed layout, but the last ulp
can differ *between* layouts, which is why the PDES byte-identity gate
compares scenario-merged outputs (built from order-insensitive
reductions) and not raw telemetry snapshots.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from .windowed import WindowedHistogram

__all__ = ["merge_registries"]


def _merge_counter(dst: CounterMetric, src: CounterMetric) -> None:
    dst.value += src.value


def _merge_gauge(dst: GaugeMetric, src: GaugeMetric) -> None:
    # Later sim-time wins; an unstamped source (t=None) acts as minus
    # infinity unless the destination is unstamped too, in which case
    # merge order decides (>= keeps the later shard).
    dst_t = dst.t if dst.t is not None else float("-inf")
    src_t = src.t if src.t is not None else float("-inf")
    if src_t >= dst_t:
        dst.value = src.value
        dst.t = src.t


def _merge_histogram(dst: HistogramMetric, src: HistogramMetric) -> None:
    if src.count == 0:
        return
    dst.count += src.count
    dst.total += src.total
    if src.min < dst.min:
        dst.min = src.min
    if src.max > dst.max:
        dst.max = src.max
    dst.samples.extend(src.samples)


def _merge_windowed(dst: WindowedHistogram, src: WindowedHistogram) -> None:
    if src.bucket_s != dst.bucket_s:
        raise ValueError(
            f"cannot merge windowed histogram {src.name!r}: bucket widths "
            f"differ ({src.bucket_s} vs {dst.bucket_s})"
        )
    dst.count += src.count
    dst.total += src.total
    for idx, bucket in src._buckets.items():
        mine = dst._buckets.get(idx)
        if mine is None:
            mine = dst._buckets[idx] = type(bucket)()
        mine.count += bucket.count
        mine.total += bucket.total
        if bucket.min < mine.min:
            mine.min = bucket.min
        if bucket.max > mine.max:
            mine.max = bucket.max
        mine.samples.extend(bucket.samples)
    if src._newest is not None and (
        dst._newest is None or src._newest > dst._newest
    ):
        dst._newest = src._newest


_MERGERS = [
    (WindowedHistogram, _merge_windowed),  # before the plain histogram
    (HistogramMetric, _merge_histogram),
    (CounterMetric, _merge_counter),
    (GaugeMetric, _merge_gauge),
]


def merge_registries(
    registries: Iterable[MetricsRegistry],
    into: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Fold per-shard registries into one (see the module docstring).

    The destination is ``into`` (a telemetry session's registry, say)
    or a fresh registry. It is for snapshotting and export; its
    histograms may hold more retained samples than their nominal caps,
    so keep recording into the per-shard originals, not the merge.
    """
    merged = MetricsRegistry() if into is None else into
    for registry in registries:
        for name, metric in registry.items():
            for klass, fold in _MERGERS:
                if isinstance(metric, klass):
                    break
            else:
                raise TypeError(
                    f"metric {name!r} has unmergeable type "
                    f"{type(metric).__name__}"
                )
            existing = merged.get(name)
            if existing is None:
                # Fresh instruments keep the destination independent of
                # the sources (merging must not mutate shard state).
                if klass is WindowedHistogram:
                    existing = merged.windowed_histogram(
                        name,
                        bucket_s=metric.bucket_s,
                        n_buckets=metric.n_buckets,
                        max_samples_per_bucket=metric.max_samples_per_bucket,
                    )
                elif klass is HistogramMetric:
                    existing = merged.histogram(
                        name, max_samples=metric.max_samples
                    )
                elif klass is CounterMetric:
                    existing = merged.counter(name)
                else:
                    existing = merged.gauge(name)
            elif not isinstance(existing, klass) or not isinstance(
                metric, type(existing)
            ):
                raise TypeError(
                    f"metric {name!r} registered with conflicting types "
                    f"across shards: {type(existing).__name__} vs "
                    f"{type(metric).__name__}"
                )
            fold(existing, metric)
    return merged
