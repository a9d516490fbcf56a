"""The experiment executor behind every ``mpichgq-experiments`` run.

One plan, one executor. Each selected experiment becomes jobs: one job
per cell for experiments that declare independent cells
(:class:`~repro.experiments.runner.Cells`), otherwise one
whole-experiment job. With one process the jobs run here, experiment
by experiment, in ``selected`` order; with more they fan out over a
fork-based pool, longest-estimated-first so the pool drains evenly.
Either way a cell experiment is assembled by feeding the measured
values through its own ``run(cell_results=...)``, so output never
depends on where a job ran — a ``--parallel N`` run differs from a
serial one only in the wall-clock ``elapsed_seconds``.

Telemetry: a telemetry session is process-global state tied to one
simulator at a time, so when collection is on, cell splitting is
disabled — each experiment runs whole inside one job, which installs
its own session and exports its own metrics files.

``shards > 1`` (PDES workers forked by the experiment itself) only
runs in-process: pool workers are daemonic and cannot fork children.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from .. import telemetry
from .runner import EXPERIMENTS, make_telemetry

__all__ = ["run_parallel"]


class _Job(NamedTuple):
    name: str
    #: Cell key, or None for the whole experiment.
    key: Any
    weight: float
    fn: Any
    args: tuple


@contextmanager
def _gc_suspended():
    """A simulation run allocates at a steady rate and drops whole
    object graphs at once; generational GC only adds pauses, so it is
    suspended for the duration and the garbage swept once after."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


# ---------------------------------------------------------------------------
# Job functions (module level so the pool can pickle them).
# ---------------------------------------------------------------------------


def _cell_job(name: str, kwargs: dict, seed: int):
    """Measure one cell; returns (value, elapsed)."""
    started = time.time()
    with _gc_suspended():
        value = EXPERIMENTS[name].cells.measure(seed=seed, **kwargs)
    return value, time.time() - started


def _whole_job(
    name: str, kwargs: dict, seed: int, collect: bool, out: Optional[str]
):
    """Run one experiment end to end; returns (result, elapsed, summary)
    with ``summary`` ``(n_metrics, n_span_events)`` or None. With
    ``collect`` the run happens inside a telemetry session, exported to
    ``out`` when given."""
    tel = None
    if collect:
        tel = make_telemetry()
        telemetry.install(tel)
    started = time.time()
    try:
        with _gc_suspended():
            result = EXPERIMENTS[name].run(seed=seed, **kwargs)
    finally:
        if tel is not None:
            telemetry.uninstall()
    elapsed = time.time() - started
    if tel is None:
        return result, elapsed, None
    tel.collect()
    snap = tel.snapshot()
    if out is not None:
        meta = {"experiment": name, "quick": kwargs["quick"], "seed": seed}
        telemetry.export_json(tel, Path(out, f"{name}.metrics.json"), meta=meta)
        telemetry.export_csv(tel, Path(out, f"{name}.metrics.csv"))
    return result, elapsed, (len(snap["metrics"]), snap["span_count"])


# ---------------------------------------------------------------------------
# Planning, execution, assembly
# ---------------------------------------------------------------------------


def _plan(name, quick, seed, collect, out, mode, shards) -> List[_Job]:
    entry = EXPERIMENTS[name]
    if entry.cells is not None and not collect:
        return [
            _Job(name, key, entry.cells.weight(key), _cell_job,
                 (name, kwargs, seed))
            for key, kwargs in entry.cells.plan(quick=quick)
        ]
    kwargs = {"quick": quick}
    if entry.modes != ("packet",):
        kwargs["mode"] = mode
    if entry.shardable:
        kwargs["shards"] = shards
    return [
        _Job(name, None, entry.weight, _whole_job,
             (name, kwargs, seed, collect, out))
    ]


def _assemble(name: str, jobs: List[_Job], raw: list, quick: bool, seed: int):
    """One experiment's ``(name, result, elapsed, summary)`` from its
    jobs' return values. A cell experiment's ``elapsed`` is the summed
    job time (its CPU cost, not its critical path)."""
    if jobs[0].key is None:
        return (name, *raw[0])
    values = {job.key: value for job, (value, _) in zip(jobs, raw)}
    result = EXPERIMENTS[name].run(quick=quick, seed=seed, cell_results=values)
    return name, result, sum(elapsed for _, elapsed in raw), None


def run_parallel(
    selected: List[str],
    quick: bool,
    seed: int,
    processes: int,
    collect: bool = False,
    out: Optional[Path] = None,
    mode: str = "packet",
    shards: int = 1,
) -> Iterator[Tuple[str, Any, float, Optional[Tuple[int, int]]]]:
    """Run ``selected`` experiments over ``processes`` workers.

    Yields ``(name, result, elapsed_seconds, telemetry_summary)`` in
    ``selected`` order, each as soon as its experiment is complete.
    ``mode`` and ``shards`` reach the experiments the registry declares
    them for; the caller has checked them against it.
    """
    out = str(out) if out is not None else None
    plans = [
        (name, _plan(name, quick, seed, collect, out, mode, shards))
        for name in selected
    ]
    if processes <= 1 or "fork" not in mp.get_all_start_methods():
        for name, jobs in plans:
            raw = [job.fn(*job.args) for job in jobs]
            yield _assemble(name, jobs, raw, quick, seed)
        return
    # Fork keeps worker startup cheap and inherits the imported stack.
    with mp.get_context("fork").Pool(processes=processes) as pool:
        # Longest first: the heaviest job bounds the pool's critical
        # path, so it must never be picked up last.
        handles = {
            (job.name, job.key): pool.apply_async(job.fn, job.args)
            for job in sorted(
                (job for _, jobs in plans for job in jobs),
                key=lambda job: -job.weight,
            )
        }
        pool.close()
        for name, jobs in plans:
            raw = [handles[name, job.key].get() for job in jobs]
            yield _assemble(name, jobs, raw, quick, seed)
        pool.join()
