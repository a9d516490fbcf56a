"""Command-line entry point regenerating every paper table and figure.

Usage::

    mpichgq-experiments [--quick] [--seed N] [--out DIR] [--parallel N]
                        [--mode M] [--shards N] [exp ...]

where ``exp`` is any key of :data:`EXPERIMENTS` (default: all, in paper
order). ``--quick`` runs scaled-down variants. :data:`EXPERIMENTS`
declares, once, what each experiment is: its ``run``, the independent
cells it splits into (if any), the ``--mode`` values it accepts,
whether ``--shards`` can partition it and, for a paper artifact, an
ablation or the fault timelines, the ``check`` stating its claims.
Every invocation checks them and exits 1, after writing everything, if
one broke. One executor (:mod:`repro.experiments.parallel`) runs that
declaration every way: in this process, or over ``--parallel N``
workers; ``--shards N`` partitions a single simulation across N PDES
workers (see :mod:`repro.pdes`). With ``--out`` each experiment writes
``<name>.json`` — the result, a pure function of (experiment,
arguments, seed) and so byte-identical however it ran — and
``<name>.run.json``, the run record: how it ran (mode, shards,
parallel, commit, python), how many kernel events it processed and
credited, the PDES summary of a sharded run, and phase wall times.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

from .. import telemetry
from . import (
    bucket_ablation,
    fault_recovery,
    fig1_tcp_reservation,
    fig5_pingpong,
    fig6_visualization,
    fig7_burstiness_traces,
    fig8_cpu_reservation,
    fig9_combined,
    fig_adaptation,
    garnet_xl,
    recovery_ablation,
    table1_aqm,
    table1_burstiness,
    table1_l4s,
)
from .common import MODES
from .report import render_result

__all__ = ["main", "Cells", "Experiment", "EXPERIMENTS", "make_telemetry"]


class Cells(NamedTuple):
    """An experiment's grid of independent simulations.

    Every cell builds its own deployment from the seed, so its value
    cannot depend on which process measured it or in what order;
    ``run(cell_results={key: value})`` assembles the result.
    """

    #: ``plan(quick=) -> [(key, measure_kwargs), ...]``
    plan: Callable
    #: ``measure(seed=, **measure_kwargs) -> value``
    measure: Callable
    #: ``weight(key) -> rough --quick seconds`` (submission order only)
    weight: Callable


class Experiment(NamedTuple):
    """What the executor needs to know about one experiment."""

    #: ``run(quick=, seed=) -> ExperimentResult``; also takes
    #: ``cell_results=`` with cells, ``mode=`` with several modes and
    #: ``shards=`` when shardable.
    run: Callable
    #: Rough --quick wall-clock seconds of a whole run, used only for
    #: longest-first submission. Full runs scale every entry up roughly
    #: uniformly, which preserves the ordering.
    weight: float
    cells: Optional[Cells] = None
    modes: Tuple[str, ...] = ("packet",)
    shardable: bool = False
    #: ``check(result) -> [message, ...]``: the claims about this
    #: experiment's result, one message per claim the result breaks.
    check: Optional[Callable] = None


EXPERIMENTS = {
    "fig1": Experiment(
        fig1_tcp_reservation.run, 4.0, modes=MODES, shardable=True,
        check=fig1_tcp_reservation.check,
    ),
    "fig5": Experiment(fig5_pingpong.run, 8.5, check=fig5_pingpong.check),
    "fig6": Experiment(
        fig6_visualization.run,
        14.0,
        Cells(
            fig6_visualization.plan_points,
            fig6_visualization.measure_point,
            lambda key: 2.0,
        ),
        check=fig6_visualization.check,
    ),
    "fig7": Experiment(
        fig7_burstiness_traces.run, 2.0, check=fig7_burstiness_traces.check
    ),
    # A table1 cell runs ~5-10 bisection probes; probe cost grows with
    # the cell's target bandwidth (key[0], Kb/s), so weight by it. The
    # AQM tables' cells are single runs of the same probe.
    "table1": Experiment(
        table1_burstiness.run,
        60.0,
        Cells(
            table1_burstiness.plan_cells,
            table1_burstiness.required_reservation,
            lambda key: key[0] * 0.008,
        ),
        check=table1_burstiness.check,
    ),
    "table1_aqm": Experiment(
        table1_aqm.run,
        40.0,
        Cells(
            table1_aqm.plan_cells,
            table1_aqm.measure_cell,
            lambda key: key[0] * 0.001,
        ),
    ),
    "table1_l4s": Experiment(
        table1_l4s.run,
        50.0,
        Cells(
            table1_l4s.plan_cells,
            table1_l4s.measure_cell,
            lambda key: key[0] * 0.001,
        ),
    ),
    "fig8": Experiment(
        fig8_cpu_reservation.run, 0.5, check=fig8_cpu_reservation.check
    ),
    "fig9": Experiment(fig9_combined.run, 11.0, check=fig9_combined.check),
    "fig_adaptation": Experiment(
        fig_adaptation.run,
        5.0,
        Cells(
            fig_adaptation.plan_cells,
            fig_adaptation.measure_cell,
            lambda key: 2.5,
        ),
    ),
    "garnet_xl": Experiment(garnet_xl.run, 25.0, shardable=True),
    # Claims of the paper's design (§4.3, §5.4) and of this
    # reproduction's calibration and resilience, over Figure 1's
    # transfer and Figure 6's point measurement.
    "recovery_ablation": Experiment(
        recovery_ablation.run, 8.0, check=recovery_ablation.check
    ),
    "bucket_ablation": Experiment(
        bucket_ablation.run,
        9.0,
        Cells(
            bucket_ablation.plan_cells,
            fig6_visualization.measure_point,
            lambda key: 2.0,
        ),
        check=bucket_ablation.check,
    ),
    "fault_recovery": Experiment(
        fault_recovery.run, 10.0, check=fault_recovery.check
    ),
}


def make_telemetry() -> "telemetry.Telemetry":
    """The runner's standard collection session.

    Excludes the per-packet event types: a full fig run emits hundreds
    of thousands of them, swamping the dump with data the registry
    already summarises as byte and conformance counters. Drops,
    retransmits, grants, and MPI-message events all stay.
    """
    return telemetry.Telemetry(
        trace=telemetry.FlowTrace(
            exclude=(
                ("net", "tx"),
                ("tcp", "segment"),
                ("diffserv", "mark"),
            ),
            limit=200_000,
        )
    )


def _payload(result, quick: bool, seed: int) -> dict:
    return {
        "experiment": result.experiment,
        "description": result.description,
        "headers": result.headers,
        "rows": result.rows,
        "series": {
            k: [list(map(float, x)), list(map(float, y))]
            for k, (x, y) in result.series.items()
        },
        "extra": result.extra,
        "quick": quick,
        "seed": seed,
    }


def _report(name, result, record, args) -> List[str]:
    """Print one experiment's result and every paper claim it breaks
    (to stderr, which a redirected run still shows); with ``--out``
    write its JSON dump and, beside it, its run record. Returns the
    broken claims."""
    print(render_result(result))
    print(f"[{name} completed in {record['phases']['run_s']:.1f}s]\n")
    check = EXPERIMENTS[name].check
    failures = check(result) if check is not None else []
    for message in failures:
        print(f"CLAIM FAILED {message}", file=sys.stderr)
    collected = record["telemetry"]
    if collected is not None:
        print(
            f"[telemetry: {collected['metrics']} metrics, "
            f"{collected['span_events']} span events]\n"
        )
    if args.out is None:
        return failures
    args.out.mkdir(parents=True, exist_ok=True)
    for suffix, payload in (
        ("json", _payload(result, args.quick, args.seed)),
        ("run.json", record),
    ):
        path = args.out / f"{name}.{suffix}"
        path.write_text(json.dumps(payload, indent=2))
        print(f"[wrote {path}]\n")
    if collected is not None and any(collected.values()):
        print(f"[wrote {args.out / name}.metrics.json and .csv]\n")
    elif collected is not None:
        # E.g. fig1 --shards N: the PDES scenario keeps no registry and
        # its simulators live in the shard workers.
        print(
            "[no metrics files: the session saw no instrumented "
            "simulator, so it has nothing to export]\n"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpichgq-experiments",
        description="Regenerate the MPICH-GQ paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="exp",
        help=f"subset to run (default: all); any of: "
             f"{' '.join(EXPERIMENTS)}",
    )
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down parameters")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=MODES, default="packet",
        help="background-traffic fidelity for experiments that support "
             "it (packet: every datagram simulated; hybrid: background "
             "UDP advanced as a fluid rate envelope)",
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for JSON result dumps")
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="run experiments over N worker processes (default: serial)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition each supporting experiment's single simulation "
             "across N PDES workers (repro.pdes); merged output is "
             "byte-identical to --shards 1",
    )
    telemetry_group = parser.add_mutually_exclusive_group()
    telemetry_group.add_argument(
        "--telemetry", dest="telemetry", action="store_true", default=None,
        help="collect metrics/spans even without --out",
    )
    telemetry_group.add_argument(
        "--no-telemetry", dest="telemetry", action="store_false",
        help="skip metrics collection even with --out",
    )
    args = parser.parse_args(argv)

    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(valid names: {', '.join(EXPERIMENTS)})"
        )
    if args.parallel < 1:
        parser.error(f"--parallel must be >= 1, got {args.parallel}")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    selected = args.experiments or list(EXPERIMENTS)
    if args.shards > 1 and args.parallel > 1:
        # Pool workers are daemonic: they cannot fork shard workers.
        parser.error(
            "--shards partitions one simulation across processes and "
            "--parallel fans whole experiments out; pick one"
        )
    if args.shards > 1 and args.mode != "packet":
        parser.error(f"--mode {args.mode} has no sharded build; drop --shards")
    undeclared = {
        f"--shards {args.shards}": [
            name for name in selected
            if args.shards > 1 and not EXPERIMENTS[name].shardable
        ],
        f"--mode {args.mode}": [
            name for name in selected
            if args.mode not in EXPERIMENTS[name].modes
        ],
    }
    for flag, names in undeclared.items():
        if names:
            parser.error(f"{flag} is not supported by: {', '.join(names)}")

    # Telemetry is on whenever results are being written out, unless
    # explicitly disabled; --telemetry forces it on for console runs.
    collect_metrics = (
        args.telemetry if args.telemetry is not None else args.out is not None
    )

    from .parallel import run_parallel

    # Every experiment runs and is written before a broken claim fails
    # the invocation.
    failed = False
    for name, result, record in run_parallel(
        selected,
        quick=args.quick,
        seed=args.seed,
        processes=args.parallel,
        collect=collect_metrics,
        out=args.out,
        mode=args.mode,
        shards=args.shards,
    ):
        failed |= bool(_report(name, result, record, args))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
