"""Tests for the experiment regenerators and the runner.

Each paper artifact's qualitative claims, and each ablation's and
fault timeline's, are stated once, in its module's ``check(result)``;
here they are held against the checked-in full-scale
``results/*.json`` and fresh quick runs, and shown to be able to
fail. The rest checks that regenerators produce well-formed
results and that the runner and its registry agree with the code.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import build_deployment
from repro.experiments import fig1_tcp_reservation as fig1
from repro.experiments import fig7_burstiness_traces as fig7
from repro.experiments import fig8_cpu_reservation as fig8
from repro.experiments import fig9_combined as fig9
from repro.experiments.common import ExperimentResult
from repro.experiments.fig5_pingpong import measure_point as fig5_point
from repro.experiments.fig6_visualization import measure_point as fig6_point
from repro.experiments.report import ascii_plot, format_table, render_result
from repro.experiments.runner import EXPERIMENTS
from repro.net import mbps

RESULTS = Path(__file__).resolve().parent.parent / "results"
PAPER_ARTIFACTS = ("fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "table1")
#: Registry entries with a ``check`` that are not paper figures: the
#: design ablations and the fault timelines.
ABLATIONS = ("recovery_ablation", "bucket_ablation", "fault_recovery")


def load_result(name: str) -> ExperimentResult:
    """The checked-in full-scale result of ``name``, as ``check`` sees it."""
    payload = json.loads((RESULTS / f"{name}.json").read_text())
    fields = ("experiment", "description", "headers", "rows", "extra")
    return ExperimentResult(**{field: payload[field] for field in fields})


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


class TestFig7:
    def test_result_structure(self):
        result = fig7.run(quick=True)
        assert isinstance(result, ExperimentResult)
        assert set(result.series) == {"10fps", "1fps"}
        for _name, (x, y) in result.series.items():
            assert len(x) == len(y)
            assert np.all(np.diff(y) >= -1e9)  # cumulative, nondecreasing
        assert fig7.check(result) == []


class TestFig8:
    def test_three_phases(self):
        result = fig8.run(quick=True)
        assert fig8.check(result) == []
        # Trace rows well-formed.
        assert result.headers == ["time_s", "bandwidth_kbps"]
        assert all(len(row) == 2 for row in result.rows)


def _perturb(result, key, column, value):
    """Set ``extra[key]``, or ``column`` of the row that starts with
    the tuple ``key``."""
    if isinstance(key, str):
        result.extra[key] = value
        return
    (row,) = [row for row in result.rows if tuple(row[: len(key)]) == key]
    row[column] = value


class TestPaperClaims:
    """Every registered ``check`` holds on the paper artifacts it
    describes, and each of its claims is one that can fail."""

    @pytest.mark.parametrize("name", PAPER_ARTIFACTS + ABLATIONS)
    def test_checked_in_result_holds(self, name):
        assert EXPERIMENTS[name].check(load_result(name)) == []

    @pytest.mark.parametrize("module", [fig1, fig9], ids=["fig1", "fig9"])
    def test_fresh_quick_run_holds(self, module):
        assert module.check(module.run(quick=True)) == []

    @pytest.mark.parametrize(
        "name, key, column, value",
        [
            ("fig1", "retransmissions", None, 0),
            # 120 Kb at 250 Kb/s: more than 0.7x the reservation, still
            # no more than the 500 Kb/s point, so the curve still rises.
            ("fig5", (120, 250), 2, 200.0),
            ("fig6", (2457.6, 2600), 2, 2000.0),
            ("fig7", ("1fps x 400Kb",), 1, 200.0),
            ("fig8", "during_contention_kbps", None, 15000.0),
            ("fig9", "phase5_both_reserved_kbps", None, 20000.0),
            ("table1", (400,), 3, 600.0),
            ("recovery_ablation", ("newreno",), 1, 42000.0),
            ("bucket_ablation", (4.0, False), 2, 350.0),
            ("fault_recovery", ("link",), 5, 5.0),
        ],
        ids=PAPER_ARTIFACTS + ABLATIONS,
    )
    def test_one_perturbed_number_breaks_one_claim(
        self, name, key, column, value
    ):
        result = load_result(name)
        _perturb(result, key, column, value)
        (message,) = EXPERIMENTS[name].check(result)
        assert message.startswith(f"{name}: ")


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

    def test_runner_fails_on_a_broken_claim(
        self, tmp_path, capsys, monkeypatch
    ):
        """A broken claim is printed and exits 1, after the result and
        its record are written."""
        from repro.experiments.runner import main

        monkeypatch.setitem(
            EXPERIMENTS, "fig8",
            EXPERIMENTS["fig8"]._replace(
                check=lambda result: ["fig8: a broken claim"]
            ),
        )
        assert main(["fig8", "--quick", "--no-telemetry",
                     "--out", str(tmp_path)]) == 1
        assert "fig8: a broken claim" in capsys.readouterr().err
        assert (tmp_path / "fig8.json").exists()
        assert (tmp_path / "fig8.run.json").exists()

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
        """... and so is every module's ``check``."""
        import importlib
        import pkgutil

        import repro.experiments as package

        registered = {
            field: {getattr(entry, field) for entry in EXPERIMENTS.values()}
            for field in ("run", "check")
        }
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for field, fns in registered.items():
                fn = vars(module).get(field)
                if fn is not None and fn.__module__ == module.__name__:
                    assert fn in fns, (info.name, field)

    def test_declared_capabilities_match_run_signatures(self):
        import inspect

        for name, entry in EXPERIMENTS.items():
            params = inspect.signature(entry.run).parameters
            assert entry.shardable == ("shards" in params), name
            assert (entry.modes != ("packet",)) == ("mode" in params), name
            assert (entry.cells is not None) == ("cell_results" in params), name
            assert "packet" in entry.modes and entry.weight > 0, name

    def test_cell_plans_are_unique_and_exactly_consumed(self):
        with_cells = {
            name: entry for name, entry in EXPERIMENTS.items() if entry.cells
        }
        assert len(with_cells) == 6
        for name, entry in with_cells.items():
            keys = [key for key, _ in entry.cells.plan(quick=True)]
            assert len(set(keys)) == len(keys) > 0, name
            assert all(entry.cells.weight(key) > 0 for key in keys), name
            cells = _RecordingCells(
                {key: _Cell(i + 1) for i, key in enumerate(keys)}
            )
            entry.run(quick=True, cell_results=cells)
            assert cells.read == keys, name
