"""benchmarks/pins.py: the one checker of the one pin file."""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pins.py"
_spec = importlib.util.spec_from_file_location("pins", _PATH)
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)


def test_every_pin_resolves_against_the_registry():
    """No simulation: each pin names a registered experiment and either
    a cell of its quick plan or kwargs its ``run`` accepts."""
    declared = json.loads(pins.PIN_FILE.read_text())
    assert declared["pins"] and declared["log"]
    for name, pin in declared["pins"].items():
        job, experiment, kwargs = pins.resolve(pin)
        entry = EXPERIMENTS[experiment]
        target = entry.cells.measure if "cell" in pin else entry.run
        inspect.signature(target).bind(seed=declared["seed"], **kwargs)
        assert pin["counts"]["events_processed"] > 0, name
        if "within" in pin:
            assert pin["within"]["of"] in declared["pins"], name
    with pytest.raises(KeyError):
        pins.resolve({"experiment": "fig_adaptation", "cell": "no-such-cell"})


def test_check_passes_then_names_a_drifted_pin(tmp_path, capsys):
    assert pins.main(["adaptation"]) == 0
    declared = json.loads(pins.PIN_FILE.read_text())
    counts = declared["pins"]["adaptation"]["counts"]
    pinned = counts["events_processed"]
    counts["events_processed"] = pinned + 1
    drifted = tmp_path / "pins.json"
    drifted.write_text(json.dumps(declared))
    capsys.readouterr()
    assert pins.main(["adaptation"], pin_file=drifted) == 1
    out = capsys.readouterr().out
    assert "FAIL adaptation" in out
    assert str(pinned) in out and str(pinned + 1) in out
    # A re-pin with its reason puts the file right again and logs it.
    args = ["--repin", "adaptation", "--reason", "undo the test's edit"]
    assert pins.main(args, pin_file=drifted) == 0
    repinned = json.loads(drifted.read_text())
    assert repinned["pins"] == json.loads(pins.PIN_FILE.read_text())["pins"]
    assert repinned["log"][-1] == {
        "pin": "adaptation",
        "old": {"events_processed": pinned + 1},
        "new": {"events_processed": pinned},
        "reason": "undo the test's edit",
    }


def test_repin_needs_a_reason():
    with pytest.raises(SystemExit) as exit_info:
        pins.main(["--repin", "adaptation"])
    assert exit_info.value.code == 2
