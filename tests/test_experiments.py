"""Smoke and shape tests for the experiment regenerators.

Full fidelity lives in ``benchmarks/``; here we check that each
regenerator runs, produces well-formed results, and preserves the
paper's core qualitative relationships at reduced scale.
"""

import numpy as np
import pytest

from repro.experiments import build_deployment
from repro.experiments.common import ExperimentResult
from repro.experiments.fig5_pingpong import measure_point as fig5_point
from repro.experiments.fig6_visualization import measure_point as fig6_point
from repro.experiments.fig7_burstiness_traces import run as fig7_run
from repro.experiments.fig8_cpu_reservation import run as fig8_run
from repro.experiments.report import ascii_plot, format_table, render_result
from repro.net import mbps


class TestDeployment:
    def test_build_deployment_wiring(self):
        dep = build_deployment(contention_rate=mbps(10))
        assert dep.gq.world.size == 2
        assert dep.contention is not None
        # Conditioners installed on every host-facing edge port.
        assert len(dep.gq.domain.conditioners) == 4

    def test_deterministic_given_seed(self):
        a = fig6_point(5, 300, seed=9, duration=2.0)
        b = fig6_point(5, 300, seed=9, duration=2.0)
        assert a == b


class TestFig5Shape:
    def test_reservation_helps_contended_pingpong(self):
        starved = fig5_point(40_000, 0, duration=1.5)
        reserved = fig5_point(40_000, 6000, duration=1.5)
        assert reserved > 3 * max(starved, 1.0)


class TestFig6Shape:
    def test_adequacy_cliff(self):
        # 5 KB frames at 10 fps: 410 Kb/s target.
        inadequate = fig6_point(5, 300, duration=5.0)
        adequate = fig6_point(5, 500, duration=5.0)
        assert adequate > 0.9 * 410
        assert inadequate < 0.8 * adequate


class TestFig7:
    def test_result_structure(self):
        result = fig7_run(quick=True)
        assert isinstance(result, ExperimentResult)
        assert set(result.series) == {"10fps", "1fps"}
        for _name, (x, y) in result.series.items():
            assert len(x) == len(y)
            assert np.all(np.diff(y) >= -1e9)  # cumulative, nondecreasing
        smooth, bursty = result.rows
        # Same volume; the 1 fps program sends it in one much larger burst.
        assert 0.5 * smooth[1] <= bursty[1] <= 2.0 * smooth[1]
        assert bursty[2] > 3.0 * smooth[2]
        assert smooth[2] < 10.0


def assert_fig8_shape(result):
    """Fig 8 (§5.5): steady full rate, a significant drop once the CPU
    hog starts, full rate again once the 90% DSRT reservation activates."""
    extra = result.extra
    target, before = extra["target_kbps"], extra["before_contention_kbps"]
    assert before > 0.95 * target
    assert extra["during_contention_kbps"] < 0.75 * before
    assert extra["after_reservation_kbps"] > 0.9 * target


class TestFig8:
    def test_three_phases(self):
        result = fig8_run(quick=True)
        assert_fig8_shape(result)
        # Trace rows well-formed.
        assert result.headers == ["time_s", "bandwidth_kbps"]
        assert all(len(row) == 2 for row in result.rows)


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 33.333]])
        lines = text.splitlines()
        assert lines[0].strip().startswith("a")
        assert "33.33" in text

    def test_format_table_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_ascii_plot_renders_all_series(self):
        t = np.linspace(0, 1, 20)
        text = ascii_plot({"up": (t, t), "down": (t, 1 - t)})
        assert "*" in text and "o" in text
        assert "legend" in text

    def test_ascii_plot_empty(self):
        assert ascii_plot({}) == "(no data)"
        assert ascii_plot({"e": (np.array([]), np.array([]))}) == "(no data)"

    def test_render_result(self):
        result = ExperimentResult(
            experiment="x",
            description="demo",
            headers=["h"],
            rows=[[1]],
            extra={"k": 1.0},
        )
        text = render_result(result)
        assert "demo" in text and "k: 1" in text


class TestRunnerCli:
    def test_runner_selects_and_writes_json(self, tmp_path):
        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--out", str(tmp_path)])
        assert rc == 0
        payload = (tmp_path / "fig8.json").read_text()
        assert '"experiment": "fig8"' in payload

    def test_runner_rejects_unknown(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_runner_unknown_error_lists_real_names(self, capsys):
        """Regression: the old ``choices=[[], ...]`` argparse hack
        printed ``(choose from [], 'fig1', ...)`` — the error must name
        the offending argument and the actual experiments."""
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig2", "fig5"])
        err = capsys.readouterr().err
        assert "fig2" in err
        assert "fig1" in err and "table1" in err
        assert "[]" not in err

    def test_runner_writes_metrics_with_out(self, tmp_path):
        import json

        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--out", str(tmp_path)])
        assert rc == 0
        metrics = json.loads((tmp_path / "fig8.metrics.json").read_text())
        assert metrics["metrics"]  # registry scraped something
        assert (tmp_path / "fig8.metrics.csv").read_text().startswith("name,")
        # The metrics dump says what produced it: its meta is the run
        # record written beside the result.
        record = json.loads((tmp_path / "fig8.run.json").read_text())
        assert metrics["meta"] == record
        assert record["experiment"] == "fig8"
        assert record["kwargs"] == {"quick": True}
        assert record["seed"] == 0 and record["python"]
        assert record["events_processed"] > 0
        assert record["phases"]["run_s"] > 0
        assert record["telemetry"]["metrics"] == len(metrics["metrics"])

    def test_runner_no_telemetry_skips_metrics(self, tmp_path):
        """... but still writes the run record, with the same counts."""
        import json

        from repro.experiments.runner import main

        events = []
        for flag in ("--no-telemetry", "--telemetry"):
            out = tmp_path / flag
            assert main(["fig8", "--quick", flag, "--out", str(out)]) == 0
            assert (out / "fig8.json").exists()
            record = json.loads((out / "fig8.run.json").read_text())
            events.append(record["events_processed"])
        assert not (tmp_path / "--no-telemetry" / "fig8.metrics.json").exists()
        assert record["telemetry"] is not None
        assert events[0] == events[1] > 0

    def test_sharded_run_writes_a_record_and_no_empty_metrics(
        self, tmp_path, capsys
    ):
        """Regression: ``fig1 --quick --shards 2 --out D`` wrote a
        ``fig1.metrics.json`` holding 0 metrics (the PDES fig1 scenario
        keeps no registry) and nothing said it had been a 2-shard run."""
        import json

        from repro.experiments.runner import main

        assert main(["fig1", "--quick", "--shards", "2",
                     "--out", str(tmp_path)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "fig1.json", "fig1.run.json",
        ]
        assert "no metrics files" in capsys.readouterr().out
        record = json.loads((tmp_path / "fig1.run.json").read_text())
        assert record["shards"] == 2
        (pdes,) = record["pdes"]
        assert pdes["n_shards"] == 2 and pdes["windows"] > 1
        assert min(pdes["per_shard_events"]) > 0
        assert sum(pdes["per_shard_events"]) == record["events_processed"]
        assert sum(pdes["boundary_messages"]) > 0

    def test_runner_rejects_bad_parallel(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig8", "--quick", "--parallel", "0"])

    def test_runner_parallel_output_matches_serial(self, tmp_path):
        """--parallel 2 writes the same JSON a serial run does, byte
        for byte: how a run went is in its record, not its result."""
        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--no-telemetry",
                   "--out", str(tmp_path / "serial")])
        assert rc == 0
        rc = main(["fig8", "--quick", "--no-telemetry", "--parallel", "2",
                   "--out", str(tmp_path / "par")])
        assert rc == 0
        serial = (tmp_path / "serial" / "fig8.json").read_bytes()
        assert serial == (tmp_path / "par" / "fig8.json").read_bytes()

    def test_runner_parallel_writes_metrics(self, tmp_path):
        """Whole-experiment parallel jobs export per-worker telemetry."""
        import json

        from repro.experiments.runner import main

        rc = main(["fig8", "--quick", "--parallel", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        metrics = json.loads((tmp_path / "fig8.metrics.json").read_text())
        assert metrics["meta"]["experiment"] == "fig8"
        assert metrics["metrics"]

    def test_runner_rejects_undeclared_shards_and_mode(self, capsys):
        from repro.experiments.runner import main

        for argv in (["fig5", "--quick", "--shards", "2"],
                     ["fig5", "--mode", "hybrid"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "fig5" in capsys.readouterr().err


class _Cell(float):
    """Stands in for any cell value: a number, or a dict of numbers."""

    def __getitem__(self, field):
        return float(self)


class _RecordingCells(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


class TestRegistry:
    """``runner.EXPERIMENTS`` is the one declaration the executor and
    the CLI trust, so it must agree with the code it describes."""

    def test_every_module_with_a_run_is_registered(self):
        import importlib
        import pkgutil

        import repro.experiments as package
        from repro.experiments.runner import EXPERIMENTS

        registered = {entry.run for entry in EXPERIMENTS.values()}
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            run = vars(module).get("run")
            if run is not None and run.__module__ == module.__name__:
                assert run in registered, info.name

    def test_declared_capabilities_match_run_signatures(self):
        import inspect

        from repro.experiments.runner import EXPERIMENTS

        for name, entry in EXPERIMENTS.items():
            params = inspect.signature(entry.run).parameters
            assert entry.shardable == ("shards" in params), name
            assert (entry.modes != ("packet",)) == ("mode" in params), name
            assert (entry.cells is not None) == ("cell_results" in params), name
            assert "packet" in entry.modes and entry.weight > 0, name

    def test_cell_plans_are_unique_and_exactly_consumed(self):
        from repro.experiments.runner import EXPERIMENTS

        with_cells = {
            name: entry for name, entry in EXPERIMENTS.items() if entry.cells
        }
        assert len(with_cells) == 5
        for name, entry in with_cells.items():
            keys = [key for key, _ in entry.cells.plan(quick=True)]
            assert len(set(keys)) == len(keys) > 0, name
            assert all(entry.cells.weight(key) > 0 for key in keys), name
            cells = _RecordingCells(
                {key: _Cell(i + 1) for i, key in enumerate(keys)}
            )
            entry.run(quick=True, cell_results=cells)
            assert cells.read == keys, name
