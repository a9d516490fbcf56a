"""Benchmark-suite configuration.

Each benchmark runs a scaled-down ("quick") variant of one paper
experiment exactly once under pytest-benchmark's pedantic mode (these
are whole-simulation runs, not microbenchmarks — except the substrate
suite) and then asserts the *shape* properties the paper reports.

Passing ``--metrics-out DIR`` activates the :mod:`repro.telemetry`
session for every benchmark and dumps one ``<test>.metrics.json`` per
test into DIR. Without the flag telemetry stays off, so benchmark
timings measure the uninstrumented (guard-only) hot path.
"""

import re

import pytest

from repro import telemetry
from repro.experiments.runner import make_telemetry


def pytest_addoption(parser):
    parser.addoption(
        "--metrics-out",
        action="store",
        default=None,
        help="directory for per-benchmark telemetry metric dumps "
             "(enables telemetry collection)",
    )
    parser.addoption(
        "--bench-parallel",
        action="store",
        type=int,
        default=1,
        metavar="N",
        help="fan seed-sweep benchmarks out over N worker processes "
             "(default: serial). Each swept run is an independent "
             "simulation, so results are identical either way.",
    )


@pytest.fixture(autouse=True)
def _telemetry_session(request):
    """Install an active telemetry session when --metrics-out is given."""
    out = request.config.getoption("--metrics-out")
    if out is None:
        yield None
        return
    tel = telemetry.install(make_telemetry())
    try:
        yield tel
    finally:
        telemetry.uninstall()
        from pathlib import Path

        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
        telemetry.export_json(
            tel,
            Path(out) / f"{slug}.metrics.json",
            meta={"test": request.node.nodeid},
        )


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under the benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run


@pytest.fixture
def fanout(request):
    """Map a function over independent items, optionally in parallel.

    ``fanout(fn, items)`` returns ``[fn(item) for item in items]``,
    preserving order. With ``--bench-parallel N`` (N > 1) the calls
    run in a fork-based pool of up to N workers; ``fn`` must then be
    a module-level (picklable) function. Telemetry sessions do not
    cross the fork boundary, so seed sweeps under --metrics-out
    should stay serial.
    """
    n = request.config.getoption("--bench-parallel")

    def _map(fn, items):
        items = list(items)
        if n <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(n, len(items))) as pool:
            return pool.map(fn, items)

    return _map
