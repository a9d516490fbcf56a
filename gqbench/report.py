"""Result files: merge suite rounds, compare two sets, spreads, tables."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

from . import host
from .spec import END_TO_END, LAYERS, NATIVE, PER_LAYER

__all__ = ["merge_rounds", "check", "spread", "layers_table", "verdict"]

_RANK = {"same": 0, "unresolved": 1, "worse": 2}


def merge_rounds(collected: Dict[str, List[dict]], seed: int,
                 rounds: int) -> dict:
    """Fold the suite's per-round results into one set: each metric's
    value is the median over rounds and the rounds are its samples."""
    workloads = {}
    for name, results in collected.items():
        if not results:
            continue
        last = results[-1]
        metrics = {}
        for metric, cell in last["metrics"].items():
            samples = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = {
                "value": statistics.median(samples),
                "unit": cell["unit"],
                "samples": samples,
            }
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        violations = [v for r in results for v in r["violations"]]
        if len({r["digest"] for r in results}) > 1:
            # Rounds are separate processes on one seed: same answer.
            failed += 1
            violations.append(
                f"{name}: rounds disagree on events:digest "
                f"{sorted({r['digest'] for r in results})}"
            )
        workloads[name] = {
            **last,
            "repeats": len(results),
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "correct": failed == 0 and len(results) == rounds
            and all(r["correct"] for r in results),
            "violations": violations,
            "supporting": {
                n: {"value": statistics.median(
                        r["supporting"][n]["value"] for r in results),
                    "unit": cell["unit"]}
                for n, cell in last["supporting"].items()
            },
            "metrics": metrics,
        }
    return {"seed": seed, "rounds": rounds, "workloads": workloads}


def _load(path: Path) -> Dict[str, dict]:
    """``{workload: result}`` from a suite file or a single result."""
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def _spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(samples) < 3:
        return 0.0
    q1, median, q3 = host.quartiles(samples)
    return (q3 - q1) / median if median else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``same`` / ``worse`` / ``unresolved`` for one metric cell.

    ``unresolved`` means the run-to-run spread on either side is wider
    than the bound, so a difference of that size cannot be told from
    noise; it is never reported as unchanged.
    """
    if max(_spread(a.get("samples", ())), _spread(b.get("samples", ()))) > bound:
        return "unresolved"
    if better == "lower":
        return "worse" if b["value"] > a["value"] * (1.0 + bound) else "same"
    return "worse" if b["value"] < a["value"] * (1.0 - bound) else "same"


def check(path_a: Path, path_b: Path) -> int:
    """Compare set B against set A on every native end-to-end cell."""
    set_a, set_b = _load(path_a), _load(path_b)
    status = 0
    for name in set_a:
        if name not in set_b:
            print(f"{name}: missing from {path_b}")
            status = 1
            continue
        a, b = set_a[name], set_b[name]
        if a["trace"] or b["trace"]:
            continue  # per-layer metrics carry no bound
        row = "same"
        lines = []
        for metric, _unit, better, bound in END_TO_END:
            if name not in NATIVE[metric]:
                continue
            cell_a, cell_b = a["metrics"][metric], b["metrics"][metric]
            result = verdict(cell_a, cell_b, better, bound)
            change = cell_b["value"] / cell_a["value"] - 1.0
            lines.append(
                f"    {metric:18s} {cell_a['value']:12.5g} -> "
                f"{cell_b['value']:12.5g} {cell_a['unit']:5s} "
                f"{change:+7.1%} (bound {bound:.0%}, {better})  {result}"
            )
            if _RANK[result] > _RANK[row]:
                row = result
        # fail_frac is held to its baseline absolutely: any new failure.
        if b["fail_frac"] > a["fail_frac"]:
            row = "worse"
            lines.append(
                f"    {'fail_frac':18s} {a['fail_frac']:12.5g} -> "
                f"{b['fail_frac']:12.5g}  worse"
            )
        print(f"{name}: {row}")
        print("\n".join(lines))
        status = status or (1 if row == "worse" else 0)
    return status


def spread(paths: Sequence[Path]) -> int:
    """Each metric's inter-run spread over several result files."""
    sets = [_load(path) for path in paths]
    bounds = {metric: bound for metric, _u, _b, bound in END_TO_END}
    print(f"{'workload':20s} {'metric':18s} {'n':>3s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    status = 0
    for name in sets[0]:
        cells = {**sets[0][name]["metrics"], **sets[0][name]["supporting"]}
        for metric in cells:
            if metric in NATIVE and name not in NATIVE[metric]:
                continue
            values = [
                {**s[name]["metrics"], **s[name]["supporting"]}[metric]["value"]
                for s in sets if name in s
            ]
            share = _spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "  WIDE" if share > bound else (
                    "  marginal" if share > bound / 3 else "")
                status = status or (1 if share > bound else 0)
            print(
                f"{name:20s} {metric:18s} {len(values):3d} "
                f"{statistics.median(values):12.5g} {share:8.2%} "
                f"{'' if bound is None else format(bound, '.0%'):>6s}{flag}"
            )
    return status


#: The discrimination each workload is here for: (claim, workload,
#: layers, comparison, threshold or the workload it is compared with).
#: A prediction that fails means the workload is resized or replaced,
#: never the threshold.
_PREDICTIONS = [
    ("aqm >= 10% on aqm_l4s", "aqm_l4s", ("aqm",), ">=", 0.10),
    ("aqm is 0 on fig1_tcp", "fig1_tcp", ("aqm",), "<=", 0.0),
    ("transport.tcp + mpi >= 35% on mpi_stencil", "mpi_stencil",
     ("transport.tcp", "mpi"), ">=", 0.35),
    ("transport.tcp + mpi <= 1% on garnet_grid", "garnet_grid",
     ("transport.tcp", "mpi"), "<=", 0.01),
    ("pdes + pdes.serialize >= 5% on garnet_grid_2shard",
     "garnet_grid_2shard", ("pdes", "pdes.serialize"), ">=", 0.05),
    ("pdes + pdes.serialize <= 1% on garnet_grid", "garnet_grid",
     ("pdes", "pdes.serialize"), "<=", 0.01),
    ("telemetry higher on fig1_telemetry than on fig1_tcp",
     "fig1_telemetry", ("telemetry",), ">1x", "fig1_tcp"),
    ("gara + resilience on broker_batch at least twice broker_open",
     "broker_batch", ("gara", "resilience"), ">=2x", "broker_open"),
]


def _share(result: dict, layers: Sequence[str]) -> float:
    m = result["metrics"]
    total = sum(m[f"{layer}.self_s"]["value"] for layer in LAYERS)
    part = sum(m[f"{layer}.self_s"]["value"] for layer in layers)
    return part / total if total else 0.0


def _predictions(results: Dict[str, dict]) -> int:
    """Print the predictions table; returns how many failed."""
    print("## Predictions\n")
    print("| prediction | measured | holds |")
    print("|---|---|---|")
    failed = 0
    for claim, name, layers, how, against in _PREDICTIONS:
        if name not in results or (
            isinstance(against, str) and against not in results
        ):
            continue
        share = _share(results[name], layers)
        if how == ">=":
            holds, shown = share >= against, f"{share:.1%}"
        elif how == "<=":
            holds, shown = share <= against, f"{share:.1%}"
        else:
            other = _share(results[against], layers)
            factor = 2.0 if how == ">=2x" else 1.0
            holds = share >= factor * other and share > other
            shown = f"{share:.1%} against {other:.1%}"
        failed += not holds
        print(f"| {claim} | {shown} | {'yes' if holds else '**NO**'} |")
    print()
    return failed


def layers_table(path: Path) -> int:
    """The layer table: one row per layer per workload, from a traced
    result set (``run --workload all --trace``), then the predictions
    the workloads are held to. Non-zero when a prediction fails."""
    results = {
        name: result for name, result in _load(path).items() if result["trace"]
    }
    counts = [n for n, _u, _b in PER_LAYER if not n.endswith((".self_s", ".calls"))]
    print("# Layer table\n")
    print("Generated by `python -m gqbench layers` from a traced result set. "
          "`self_s` is traced time (the profile hook inflates call-heavy "
          "layers); shares compare layers within one workload, never two "
          "machines or a speed-up.\n")
    failed = _predictions(results)
    for name, result in results.items():
        m = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        print(f"## {name}\n")
        print(f"seed {result['seed']}, traced wall {total:.2f} s, overhead "
              f"{m['trace.overhead_x']:.2f}x, coverage "
              f"{m['trace.coverage']:.3f}\n")
        print("| layer | self_s | share | calls |")
        print("|---|---:|---:|---:|")
        for layer in LAYERS:
            seconds = m[f"{layer}.self_s"]
            print(f"| `{layer}` | {seconds:.3f} | "
                  f"{seconds / total if total else 0.0:.1%} | "
                  f"{int(m[f'{layer}.calls'])} |")
        print("\n| count | value |")
        print("|---|---:|")
        for count in counts:
            if m[count]:
                print(f"| `{count}` | {m[count]:.6g} |")
        print()
    return 1 if failed else 0
