#!/usr/bin/env python
"""Pinned event counts: the behaviour contract, one run per pin.

``pins.json`` declares each pin over ``runner.EXPERIMENTS`` — a whole
run with its kwargs, or one cell key of the experiment's quick plan —
and the kernel event counts that run must produce. A simulation with a
fixed seed is deterministic, so one run decides, and any drift is a
behaviour change, wanted or not. Each pin goes through the executor's
own job functions and is compared with the run record they return;
wall time is not this tool's business (``python -m gqbench`` measures
it).

    python benchmarks/pins.py                # every pin; exit 1 on drift
    python benchmarks/pins.py adaptation     # some of them
    python benchmarks/pins.py --repin hybrid --reason "why it moved"

``--repin`` rewrites that pin's counts with the measured ones and
appends old/new/reason to the file's ``log``. A pin with ``within``
also holds Fig 1's trajectory-robust statistics (mean bandwidth,
delivered volume — per-bin curves diverge by construction, TCP
trajectories being chaotic under µs perturbations) inside a fraction
of another pin's run: the hybrid-vs-packet fidelity gate, at the 60 s
horizon where that chaos averages out below the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.parallel import _cell_job, _whole_job  # noqa: E402
from repro.experiments.runner import EXPERIMENTS  # noqa: E402

PIN_FILE = Path(__file__).with_name("pins.json")


def resolve(pin: dict):
    """``(job, experiment, kwargs)`` for one pin. Raises KeyError when
    it names an experiment the registry, or a cell its quick plan, does
    not have."""
    name = pin["experiment"]
    entry = EXPERIMENTS[name]
    if "cell" not in pin:
        return _whole_job, name, pin["kwargs"]
    cell = pin["cell"]
    key = tuple(cell) if isinstance(cell, list) else cell
    return _cell_job, name, dict(entry.cells.plan(quick=True))[key]


def _counts(record: dict) -> dict:
    """Everything pinnable in a run record, by pin-file key."""
    counts = {
        "events_processed": record["events_processed"],
        "events_credited": record["events_credited"],
    }
    for run in record["pdes"]:
        counts["per_shard_events"] = run["per_shard_events"]
        counts["windows"] = run["windows"]
        counts["boundary_messages"] = sum(run["boundary_messages"])
    return counts


def _fig1_stats(result) -> dict:
    return {
        "mean_kbps": result.extra["mean_kbps"],
        "delivered": sum(row[1] for row in result.rows),
    }


def main(argv=None, pin_file: Path = PIN_FILE) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="name",
                        help="pins to check (default: all)")
    parser.add_argument("--repin", metavar="NAME",
                        help="rewrite this pin with the measured counts")
    parser.add_argument("--reason", help="why the count moved (with --repin)")
    args = parser.parse_args(argv)
    if bool(args.repin) != bool(args.reason):
        parser.error("--repin NAME and --reason TEXT go together")

    data = json.loads(pin_file.read_text())
    pins = data["pins"]
    selected = [args.repin] if args.repin else args.names or list(pins)
    unknown = [name for name in selected if name not in pins]
    if unknown:
        parser.error(f"unknown pin(s) {unknown}; the file has {list(pins)}")

    runs = {}

    def run(name):
        if name not in runs:
            job, experiment, kwargs = resolve(pins[name])
            runs[name] = job(experiment, kwargs, data["seed"])
        return runs[name]

    failed = False
    for name in selected:
        pin = pins[name]
        result, record = run(name)
        within = pin.get("within")
        if within is not None:
            reference = _fig1_stats(run(within["of"])[0])
            for stat, got in _fig1_stats(result).items():
                error = abs(got - reference[stat]) / reference[stat]
                print(f"     {name}: {stat} {got:.1f} vs {within['of']} "
                      f"{reference[stat]:.1f}, off by {error:.3%} "
                      f"(bound {within['fraction']:.0%})")
                if error > within["fraction"]:
                    print(f"FAIL {name}: {stat} diverged from {within['of']}")
                    failed = True
        pinned, counts = pin["counts"], _counts(record)
        measured = {key: counts[key] for key in pinned}
        if measured == pinned:
            print(f"ok   {name}: {measured} "
                  f"[{record['phases']['run_s']:.1f}s]")
        elif args.repin and not failed:
            data["log"].append({"pin": name, "old": pinned, "new": measured,
                                "reason": args.reason})
            pin["counts"] = measured
            pin_file.write_text(json.dumps(data, indent=2) + "\n")
            print(f"re-pinned {name}: {pinned} -> {measured}")
        else:
            print(f"FAIL {name}: pinned {pinned}, measured {measured}")
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
