"""Run one workload invocation and assemble its result.

End-to-end metrics come from the untraced pass: set-up, then timed
repeats with nothing of gqbench's inside the timed call. Per-layer
metrics come from a separate ``--trace`` pass: one reference repeat with
phase spans, then one more under ``cProfile`` whose self times and call
counts are folded by layer (:mod:`gqbench.layers`).
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import statistics
from time import perf_counter
from typing import Callable, Dict, Optional

from . import brokerwork, host, layers
from .protocol import (
    SETUP_PASSES, Invocation, Measurement, more_repeats, timed_setup,
)
from .simwork import SIM
from .spans import PHASES, NoSpans, Spans
from .spec import END_TO_END, NATIVE, PER_LAYER, SUPPORTING, WORKLOADS

__all__ = ["run_workload", "profile_call", "driver_line", "render"]


def _timed(workload, seed: int, size: str, spans, **kwargs):
    """The timed call, the way ``experiments/runner.py`` runs one for a
    user: GC collected before, disabled during, enabled after."""
    gc.collect()
    gc.disable()
    try:
        started = perf_counter()
        raw = workload.run(seed, size, spans, **kwargs)
        wall = perf_counter() - started
    finally:
        gc.enable()
    return raw, wall


def profile_call(workload, seed: int, size: str, **kwargs):
    """One call under ``cProfile``, folded by layer.

    Returns ``(outcome, self_s, calls, traced_wall)``. The hook is
    deterministic: for one seed ``calls`` repeats exactly.
    """
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        started = perf_counter()
        profile.enable()
        raw = workload.run(seed, size, NoSpans(), **kwargs)
        profile.disable()
        traced_wall = perf_counter() - started
    finally:
        gc.enable()
    outcome = workload.examine(raw)
    self_s, calls = layers.attribute(pstats.Stats(profile).stats)
    return outcome, self_s, calls, traced_wall


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    return sum(os.times()[:4])


def _simulator(name: str, inv: Invocation) -> Measurement:
    workload = SIM[name]
    seed, size, trace, spans = inv.seed, inv.size, inv.trace, inv.spans
    sharded = hasattr(workload, "check_invariance")
    measurement = Measurement()
    violations = measurement.violations

    # Set-up: the short warm-up, several times over; the median counts.
    pass_s, warm = timed_setup(
        lambda: workload.examine(workload.run(seed, "warm", NoSpans())),
        inv.setup_passes,
    )
    violations += warm.violations
    setup_s = inv.startup_s + pass_s
    if sharded:
        started = perf_counter()
        violations += workload.check_invariance(seed)
        setup_s += perf_counter() - started
    setup_failed = bool(violations)
    calib = [host.calibrate()]

    walls = []
    outcomes = []
    # The traced pass times one reference repeat, with phase spans.
    want = 1 if trace else inv.repeats
    while more_repeats(walls, inv.seconds, want):
        raw, wall = _timed(workload, seed, size, spans)
        outcome = workload.examine(raw)
        del raw
        if inv.tamper is not None:
            inv.tamper(len(walls), outcome)
        walls.append(wall)
        outcomes.append(outcome)

    if trace:
        if sharded:
            # The timed repeats run both shards in this process (inline
            # backend). The traced pass also forks them once, for the
            # numbers that need real cores: wall-clock on two of them,
            # and total CPU.
            cpu_before = _cpu_s()
            raw, fork_wall = _timed(
                workload, seed, size, NoSpans(), backend="fork"
            )
            fork_cpu = _cpu_s() - cpu_before
            outcomes.append(workload.examine(raw))
            del raw
        outcome, self_s, calls, traced_wall = profile_call(workload, seed, size)
        outcomes.append(outcome)
    calib.append(host.calibrate())

    # A seed must repeat itself exactly: same events, same digest.
    first = outcomes[0]
    failing = 0
    for index, outcome in enumerate(outcomes):
        problems = list(outcome.violations)
        if (outcome.events, outcome.digest) != (first.events, first.digest):
            problems.append(
                f"repeat {index} diverged from repeat 0: events "
                f"{outcome.events} vs {first.events}, digest "
                f"{outcome.digest[:12]} vs {first.digest[:12]}"
            )
        failing += bool(problems)
        violations += problems
    # The set-up checks count as one more attempt.
    measurement.attempted = len(outcomes) + 1
    measurement.failed = failing + setup_failed
    measurement.repeats = len(walls)
    measurement.digest = f"{first.events}:{first.digest[:16]}"
    measurement.end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": host.peak_rss_mb(),
    }
    measurement.samples = {"wall_s": walls, "host.calib_s": calib}
    if not trace:
        return measurement

    per_layer = measurement.per_layer
    per_layer.update(layers.as_metrics(self_s, calls, traced_wall, walls[0]))
    per_layer.update(first.counts)
    per_layer["kernel.events"] = first.events
    per_layer["kernel.events_credited"] = first.credited
    for phase in PHASES:
        per_layer[f"phase.{phase}_s"] = spans.total(phase)
    if sharded:
        per_layer["pdes.fork_wall_s"] = fork_wall
        per_layer["pdes.cpu_s"] = fork_cpu
    return measurement


def run_workload(name: str, seed: int = 0, seconds: float = 10.0,
                 repeats: Optional[int] = None, trace: bool = False,
                 smoke: bool = False, startup_s: float = 0.0,
                 tamper: Optional[Callable] = None) -> dict:
    """One invocation of workload ``name``; returns the result record.

    ``tamper`` is the self-test's fault injector (a nondeterministic
    repeat, a daemon killed mid-load); nothing else passes it.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)}")
    spans = Spans() if trace else NoSpans()
    inv = Invocation(
        seed=seed, seconds=seconds, repeats=repeats,
        size="smoke" if smoke else "full", trace=trace, spans=spans,
        startup_s=startup_s,
        # The traced pass reports no set-up time, so it sets up once.
        setup_passes=1 if trace or smoke else SETUP_PASSES,
        tamper=tamper,
    )
    if name in SIM:
        measurement = _simulator(name, inv)
    elif name == "broker_open":
        measurement = brokerwork.broker_open(inv)
    else:
        measurement = brokerwork.broker_batch(inv)

    calib = measurement.samples.get("host.calib_s", [0.0])
    failed = min(measurement.attempted, measurement.failed)
    if trace:
        values = {n: 0.0 for n, _u, _b in PER_LAYER}
        values.update(measurement.per_layer)
        values["host.calib_s"] = statistics.mean(calib)
        values["host.loadavg"] = host.loadavg()
        units = {n: u for n, u, _b in PER_LAYER}
        spans.dump(
            host.scratch_dir() / f"trace-{name}.json",
            meta={"workload": name, "seed": seed},
        )
    else:
        values = _with_aliases(name, measurement.end_to_end)
        units = {n: u for n, u, _b, _bound in END_TO_END}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "repeats": measurement.repeats,
        "attempted": measurement.attempted,
        "failed": failed,
        "fail_frac": failed / measurement.attempted,
        "correct": failed == 0 and not measurement.violations,
        "violations": measurement.violations,
        "digest": measurement.digest,
        "supporting": {
            n: {"value": measurement.supporting[n], "unit": u}
            for n, u, _b in SUPPORTING if n in measurement.supporting
        },
        "metrics": {
            n: {"value": values[n], "unit": units[n],
                **({"samples": measurement.samples[n]}
                   if n in measurement.samples else {})}
            for n in units
        },
        "stamp": host.stamp(seed, measurement.repeats, calib),
    }


def _with_aliases(name: str, native: Dict[str, float]) -> Dict[str, float]:
    """Every end-to-end metric for workload ``name``.

    The driver wants every workload to emit every metric. A rate this
    workload does not measure (``sat_rps`` on a simulator call,
    ``admissions_per_s`` on the open loop) is reported as the workload's
    own headline time turned into a rate: timed calls per second,
    ``1 / wall_s``. Aliased cells carry no information beyond
    ``wall_s``; ``spec.NATIVE`` says which cells are real.
    """
    return {
        metric: native[metric] if name in NATIVE[metric]
        else 1.0 / native["wall_s"]
        for metric, _unit, _better, _bound in END_TO_END
    }


def driver_line(result: dict) -> dict:
    """The one JSON object the driver reads from the last stdout line."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }


def render(result: dict) -> str:
    """Every metric by name with its unit, native cells marked."""
    name = result["workload"]
    lines = [
        f"== {name}  seed={result['seed']}  repeats={result['repeats']}  "
        f"{'traced' if result['trace'] else 'untraced'}"
    ]
    for metric, m in result["metrics"].items():
        note = ""
        if not result["trace"] and name not in NATIVE[metric]:
            note = "  (alias of wall_s)"
        elif "samples" in m and len(m["samples"]) > 1:
            q1, _med, q3 = host.quartiles(m["samples"])
            note = f"  (n={len(m['samples'])}, q1={q1:.4g}, q3={q3:.4g})"
        lines.append(f"{metric:34s} {m['value']:14.6g} {m['unit']}{note}")
    for metric, m in result["supporting"].items():
        lines.append(
            f"{metric:34s} {m['value']:14.6g} {m['unit']}  (supporting, no bound)"
        )
    lines.append(
        f"{'fail_frac':34s} {result['fail_frac']:14.6g} frac  "
        f"({result['failed']} of {result['attempted']})"
    )
    for violation in result["violations"]:
        lines.append(f"VIOLATION: {violation}")
    return "\n".join(lines)
