"""Harness self-test at ``--smoke`` size (``python -m pytest gqbench -q``).

Checks the harness, not the program's speed: every workload runs and
emits exactly the named metrics, every source file has a layer, the
profile is deterministic, the generator keeps its schedule, and a
broken run is reported as broken.
"""

import functools
import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gqbench import cli, layers, report, runner, spec
from gqbench.brokerwork import OPEN_RATES, RequestMix, _OPEN_ARGS
from gqbench.loadgen import Connection, Daemon, closed_loop, open_loop
from gqbench.host import scratch_dir
from gqbench.simwork import SIM

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [name for name, *_ in spec.END_TO_END]
PER_LAYER = [name for name, *_ in spec.PER_LAYER]


# -- the frozen names ---------------------------------------------------------


def test_benchmark_json_is_the_spec_and_within_the_contract():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark == spec.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    names = [m["name"] for m in metrics + benchmark["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in benchmark["workloads"])
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert len(benchmark["end_to_end"]) <= 16
    assert len(benchmark["per_layer"]) <= 128
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    assert benchmark["run_seconds"] == spec.RUN_SECONDS


def test_every_source_file_maps_to_a_named_layer():
    package = ROOT / "src" / "repro"
    for path in package.rglob("*.py"):
        layer = layers.layer_of_path(path.relative_to(package).as_posix())
        assert layer in spec.LAYERS and layer != "other", path


def test_attribution_follows_caller_edges():
    owned = ("/x/src/repro/net/node.py", 1, "send")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    helper = ("/usr/lib/python3/json/encoder.py", 5, "encode")
    inner = ("~", 0, "<built-in method builtins.len>")
    root = ("/somewhere/gqbench/runner.py", 9, "profile_call")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        owned: (4, 4, 2.0, 9.5, {root: (4, 4, 2.0, 9.5)}),
        heap: (3, 3, 1.0, 1.0, {owned: (3, 3, 1.0, 1.0)}),
        append: (7, 7, 0.25, 0.25, {owned: (7, 7, 0.25, 0.25)}),
        helper: (2, 2, 4.0, 6.25, {owned: (2, 2, 4.0, 6.25)}),
        inner: (9, 9, 2.25, 2.25, {helper: (9, 9, 2.25, 2.25)}),
    }
    self_s, calls = layers.attribute(stats)
    assert self_s["kernel.heap"] == 1.0 and calls["kernel.heap"] == 3
    # The layer's own time plus its direct and indirect foreign callees.
    assert self_s["net"] == 2.0 + 0.25 + 4.0 + 2.25
    assert calls["net"] == 4 + 7 + 2
    # Unowned root, and calls between two foreign functions.
    assert self_s["other"] == 0.5 and calls["other"] == 1 + 9
    assert sum(self_s.values()) == sum(v[2] for v in stats.values())
    # Under the daemon the json encoder is the codec's.
    self_s, _calls = layers.attribute(stats, daemon=True)
    assert self_s["broker_service.codec"] == 4.0 + 2.25


# -- every workload, every named metric ---------------------------------------


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_untraced_smoke_emits_the_end_to_end_metrics(name):
    result = runner.run_workload(name, smoke=True, repeats=2, seconds=4.0)
    assert result["violations"] == []
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(cell["value"] > 0 for cell in result["metrics"].values())
    line = runner.driver_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    if name == "broker_open":
        assert [n for n, *_ in spec.SUPPORTING] == list(result["supporting"])


@pytest.mark.parametrize(
    "name", ["mpi_stencil", "garnet_grid_2shard", "broker_open"]
)
def test_traced_smoke_emits_the_per_layer_metrics(name):
    result = runner.run_workload(name, smoke=True, trace=True, seconds=4.0)
    assert result["violations"] == []
    assert list(result["metrics"]) == PER_LAYER
    values = {n: cell["value"] for n, cell in result["metrics"].items()}
    assert abs(values["trace.coverage"] - 1.0) <= 0.05
    assert values["trace.overhead_x"] > 1.0
    trace = json.loads((scratch_dir() / f"trace-{name}.json").read_text())
    spans = trace["spans"]
    assert {s["name"] for s in spans} >= {"build", "run"}
    assert all(s["end"] >= s["start"] for s in spans)
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in spans)
    if name == "garnet_grid_2shard":
        assert values["pdes.boundary_messages"] > 0 and values["pdes.cpu_s"] > 0
        assert values["pdes.self_s"] + values["pdes.serialize.self_s"] > 0
    if name == "broker_open":
        assert values["loadgen.ok_rps"] >= OPEN_RATES["lo"]
        assert values["broker_service.busy_replies"] == 0


@pytest.mark.parametrize("name", list(SIM))
def test_profile_repeats_exactly_and_leaves_little_unattributed(name):
    first = runner.profile_call(SIM[name], 0, "warm")
    second = runner.profile_call(SIM[name], 0, "warm")
    assert first[2] == second[2]  # per-layer calls, integers
    assert first[0].digest == second[0].digest
    _outcome, self_s, _calls, traced_wall = first
    assert self_s["other"] <= 0.03 * traced_wall


# -- the load generator -------------------------------------------------------


def _late_p99_ms(rate: float) -> float:
    mix = RequestMix(0)
    prefill, body = mix.prefill(), mix.take(int(rate * 1.5))
    with Daemon(_OPEN_ARGS) as daemon:
        conn = Connection(daemon.port)
        gc.disable()
        try:
            closed_loop(conn, mix.frames[prefill], 64, mix.check)
            done = open_loop(conn, mix.frames[body], rate, mix.check)
        finally:
            gc.enable()
            conn.close()
    assert done.sent == len(mix.frames[body])
    assert done.failed == 0 and done.unanswered == 0
    assert daemon.final_counters["busy_replies"] == 0
    assert not daemon.alive()
    due = done.started + np.arange(done.sent) / rate
    return float(np.percentile(done.lateness_ms(due), 99))


def test_open_loop_generator_keeps_its_schedule():
    # Select-paced sends on a non-blocking socket run ~0.3 ms late at
    # p99; a shared host can stall the whole process for longer, so one
    # clean trial in three is the claim.
    assert any(_late_p99_ms(OPEN_RATES["hi"]) <= 2.0 for _ in range(3))


# -- broken runs are reported as broken ---------------------------------------


def test_daemon_killed_mid_load_fails_and_exits_non_zero(monkeypatch, capsys):
    sabotaged = functools.partial(
        runner.run_workload, tamper=lambda daemon: daemon.kill()
    )
    monkeypatch.setattr(runner, "run_workload", sabotaged)
    out = scratch_dir() / "selftest-killed.json"
    status = cli.main([
        "run", "--workload", "broker_open", "--smoke", "--seconds", "4",
        "--out", str(out),
    ])
    result = json.loads(out.read_text())
    out.unlink()
    assert status != 0
    assert result["fail_frac"] > 0 and not result["correct"]
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] > 0


def test_nondeterministic_repeat_fails():
    def drift(index, outcome):
        outcome.events += index  # repeat 1 no longer matches repeat 0

    result = runner.run_workload(
        "mpi_stencil", smoke=True, repeats=2, tamper=drift
    )
    assert result["fail_frac"] > 0 and not result["correct"]
    assert any("diverged" in v for v in result["violations"])


# -- comparing two sets -------------------------------------------------------


def test_check_verdicts():
    steady = {"value": 10.0, "samples": [9.9, 10.0, 10.1]}
    assert report.verdict(steady, {"value": 10.5}, "lower", 0.10) == "same"
    assert report.verdict(steady, {"value": 11.5}, "lower", 0.10) == "worse"
    assert report.verdict(steady, {"value": 8.5}, "higher", 0.10) == "worse"
    noisy = {"value": 10.0, "samples": [7.0, 10.0, 13.0]}
    assert report.verdict(steady, noisy, "lower", 0.10) == "unresolved"
