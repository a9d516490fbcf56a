"""``python -m gqbench``: run, check, spread, layers."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from .host import ROOT, scratch_dir

__all__ = ["main"]


def _trace_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return text == "1"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gqbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one workload (or all) and print every metric"
    )
    run.add_argument("--workload", default="all",
                     help="a workload name, or 'all' for the suite")
    run.add_argument("--seed", type=lambda text: abs(int(text)), default=0,
                     help="any integer (its magnitude is the seed)")
    run.add_argument("--seconds", type=float, default=None,
                     help="seconds of measurement per invocation "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--repeats", type=int, default=None,
                     help="exactly this many timed repeats (default: as "
                          "many as fit in --seconds, at least 3); for "
                          "'all', the number of round-robin rounds")
    run.add_argument("--trace", nargs="?", const=True, default=False,
                     type=_trace_flag,
                     help="the traced pass: per-layer metrics instead of "
                          "end-to-end ones")
    run.add_argument("--smoke", action="store_true",
                     help="self-test sizes (seconds, not minutes)")
    run.add_argument("--out", type=Path, default=None,
                     help="result JSON (default: .gqbench/result-*.json)")

    check = commands.add_parser(
        "check", help="compare result B against result A, metric by metric"
    )
    check.add_argument("a", type=Path)
    check.add_argument("b", type=Path)

    spread = commands.add_parser(
        "spread", help="inter-run spread of each metric over result files"
    )
    spread.add_argument("files", type=Path, nargs="+")

    table = commands.add_parser(
        "layers", help="render a traced result set as the LAYERS.md table"
    )
    table.add_argument("file", type=Path)
    return parser


def _run_suite(args, seconds: float) -> int:
    """All workloads, one child process per invocation, round-robin.

    Each round runs every workload once with a single timed repeat, so
    a slow minute on a shared host is spread over the workloads rather
    than landing on one; the rounds' values are the samples and their
    median the result.
    """
    from . import report
    from .spec import WORKLOADS

    rounds = args.repeats or (1 if args.trace or args.smoke else 3)
    collected = {name: [] for name in WORKLOADS}
    status = 0
    for index in range(rounds):
        for name in WORKLOADS:
            out = scratch_dir() / f"suite-{os.getpid()}-{name}.json"
            command = [
                sys.executable, "-m", "gqbench", "run", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds / rounds),
                "--repeats", "1", "--trace", "1" if args.trace else "0",
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            print(f"-- round {index + 1}/{rounds}: {name}", flush=True)
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
            status = status or done.returncode
            if out.exists():
                collected[name].append(json.loads(out.read_text()))
                out.unlink()
    merged = report.merge_rounds(collected, seed=args.seed, rounds=rounds)
    from .runner import render

    for result in merged["workloads"].values():
        print(render(result))
        status = status or (0 if result["correct"] else 1)
    path = args.out or scratch_dir() / "result-all.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, indent=1))
    print(f"[wrote {path}]")
    return status


def _run(args) -> int:
    from .spec import RUN_SECONDS

    seconds = args.seconds if args.seconds is not None else float(RUN_SECONDS)
    if args.workload == "all":
        return _run_suite(args, seconds)
    from . import host
    from .runner import driver_line, render, run_workload

    startup_s = host.process_age_s()  # interpreter + every import

    result = run_workload(
        args.workload, seed=args.seed, seconds=seconds, repeats=args.repeats,
        trace=bool(args.trace), smoke=args.smoke, startup_s=startup_s,
    )
    path = args.out or scratch_dir() / f"result-{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    print(render(result))
    print(f"[wrote {path}]")
    print(json.dumps(driver_line(result)), flush=True)
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # The program under test lives in src/; the driver's command cannot
    # set PYTHONPATH, so the entry point adds it.
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if args.command == "run":
        return _run(args)
    from . import report

    if args.command == "check":
        return report.check(args.a, args.b)
    if args.command == "spread":
        return report.spread(args.files)
    return report.layers_table(args.file)
