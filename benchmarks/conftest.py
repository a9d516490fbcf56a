"""Benchmark-suite configuration.

Each benchmark — an ablation, a chaos soak or a substrate
microbenchmark — runs its scenario exactly once under
pytest-benchmark's pedantic mode and then asserts what it
demonstrates. The paper's own figures are not benchmarked here: their
claims are each module's ``check``, which every runner invocation
applies.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """``once(fn, *args, **kwargs)`` runs ``fn`` once under the
    benchmark and returns its result."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run
