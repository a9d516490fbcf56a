"""The experiment executor behind every ``mpichgq-experiments`` run.

One plan, one executor. Each selected experiment becomes jobs: one job
per cell for experiments that declare independent cells
(:class:`~repro.experiments.runner.Cells`), otherwise one
whole-experiment job. With one process the jobs run here, experiment
by experiment, in ``selected`` order; with more they fan out over a
fork-based pool, longest-estimated-first so the pool drains evenly.
Either way a cell experiment is assembled by feeding the measured
values through its own ``run(cell_results=...)``, so output never
depends on where a job ran — the result of a ``--parallel N`` run is
the result of a serial one. How a run went (where, how long, how many
events) is its *run record*, kept apart from the result.

Telemetry: every job runs inside a telemetry session, which is how the
record learns what ran. A session is process-global state tied to one
simulator at a time, so when collection is on, cell splitting is
disabled — each experiment runs whole inside one job, whose session
also instruments the simulators and exports its own metrics files.

``shards > 1`` (PDES workers forked by the experiment itself) only
runs in-process: pool workers are daemonic and cannot fork children.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import platform
import subprocess
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Tuple

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


@lru_cache(maxsize=None)
def _commit() -> Optional[str]:
    """HEAD of the checkout this package was imported from; None when
    it is not a git checkout (or git is not installed)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _recorded(
    fn: Callable,
    name: str,
    kwargs: dict,
    seed: int,
    parallel: int,
    collect: bool = False,
    out: Optional[str] = None,
):
    """Run ``fn(seed=seed, **kwargs)`` the one way a job runs — GC
    suspended, inside a telemetry session that instruments only with
    ``collect`` — and return ``(value, record)``. ``record`` is the run
    record; with ``collect`` and ``out`` it is also the ``meta`` of the
    metrics files exported here, which are only written for a session
    that collected something."""
    session = telemetry.install(
        make_telemetry() if collect else telemetry.Telemetry(instrument=False)
    )
    started = time.perf_counter()
    try:
        with _gc_suspended():
            value = fn(seed=seed, **kwargs)
        # Before uninstall(): detaching forgets the simulators.
        processed, credited = session.event_counts()
    finally:
        telemetry.uninstall()
    ran = time.perf_counter()
    collected = None
    if collect:
        session.collect()
        collected = {
            "metrics": len(session.registry),
            "span_events": len(session.trace),
        }
    # run_s includes building the deployment; exporting follows the
    # record (it is the export's meta), so it cannot be in it.
    phases = {"run_s": ran - started, "collect_s": time.perf_counter() - ran}
    # Only a whole job of a multi-mode experiment carries the deployment
    # mode in its kwargs (a Table 1 cell's "mode" is its AQM).
    multi_mode = EXPERIMENTS[name].modes != ("packet",)
    record = {
        "experiment": name,
        "kwargs": kwargs,
        "seed": seed,
        "mode": kwargs.get("mode", "packet") if multi_mode else "packet",
        "shards": max((run["n_shards"] for run in session.pdes_runs), default=1),
        "parallel": parallel,
        "jobs": 1,
        "commit": _commit(),
        "python": platform.python_version(),
        "events_processed": processed,
        "events_credited": credited,
        "pdes": session.pdes_runs,
        "phases": phases,
        "telemetry": collected,
    }
    if out is not None and collected and any(collected.values()):
        telemetry.export_json(
            session, Path(out, f"{name}.metrics.json"), meta=record
        )
        telemetry.export_csv(session, Path(out, f"{name}.metrics.csv"))
    return value, record


# ---------------------------------------------------------------------------
# Job functions (module level so the pool can pickle them).
# ---------------------------------------------------------------------------


def _cell_job(name: str, kwargs: dict, seed: int, parallel: int = 1):
    """Measure one cell; returns (value, record)."""
    return _recorded(
        EXPERIMENTS[name].cells.measure, name, kwargs, seed, parallel
    )


def _whole_job(
    name: str,
    kwargs: dict,
    seed: int,
    parallel: int = 1,
    collect: bool = False,
    out: Optional[str] = None,
):
    """Run one experiment end to end; returns (result, record)."""
    return _recorded(
        EXPERIMENTS[name].run, name, kwargs, seed, parallel, collect, out
    )


# ---------------------------------------------------------------------------
# Planning, execution, assembly
# ---------------------------------------------------------------------------


def _plan(name, quick, seed, processes, collect, out, mode, shards) -> List[_Job]:
    entry = EXPERIMENTS[name]
    if entry.cells is not None and not collect:
        return [
            _Job(name, key, entry.cells.weight(key), _cell_job,
                 (name, kwargs, seed, processes))
            for key, kwargs in entry.cells.plan(quick=quick)
        ]
    kwargs = {"quick": quick}
    if entry.modes != ("packet",):
        kwargs["mode"] = mode
    if entry.shardable:
        kwargs["shards"] = shards
    return [
        _Job(name, None, entry.weight, _whole_job,
             (name, kwargs, seed, processes, collect, out))
    ]


def _assemble(name: str, jobs: List[_Job], raw: list, quick: bool, seed: int):
    """One experiment's ``(name, result, record)`` from its jobs'
    return values. A cell experiment's record sums its jobs' (so its
    ``run_s`` is CPU cost, not the critical path)."""
    if jobs[0].key is None:
        return (name, *raw[0])
    values = {job.key: value for job, (value, _) in zip(jobs, raw)}
    result = EXPERIMENTS[name].run(quick=quick, seed=seed, cell_results=values)
    records = [record for _, record in raw]
    total = dict(records[0], kwargs={"quick": quick}, jobs=len(records))
    for key in ("events_processed", "events_credited"):
        total[key] = sum(record[key] for record in records)
    total["phases"] = {
        phase: sum(record["phases"][phase] for record in records)
        for phase in total["phases"]
    }
    return name, result, total


def run_parallel(
    selected: List[str],
    quick: bool,
    seed: int,
    processes: int,
    collect: bool = False,
    out: Optional[Path] = None,
    mode: str = "packet",
    shards: int = 1,
) -> Iterator[Tuple[str, Any, dict]]:
    """Run ``selected`` experiments over ``processes`` workers.

    Yields ``(name, result, run_record)`` in ``selected`` order, each
    as soon as its experiment is complete. ``mode`` and ``shards``
    reach the experiments the registry declares them for; the caller
    has checked them against it.
    """
    out = str(out) if out is not None else None
    plans = [
        (name, _plan(name, quick, seed, processes, collect, out, mode, shards))
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
