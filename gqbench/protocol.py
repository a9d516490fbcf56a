"""The measurement protocol's shared pieces.

One process per workload invocation. Set-up runs ``SETUP_PASSES`` times
and reports its median; then timed repeats run until ``--seconds`` of
measurement have accumulated (never fewer than ``MIN_REPEATS``), or
exactly ``--repeats`` times when that is given.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Invocation", "Measurement", "timed_setup", "more_repeats",
    "SETUP_PASSES", "MIN_REPEATS",
]

SETUP_PASSES = 3
MIN_REPEATS = 3
_MAX_REPEATS = 9


@dataclass
class Invocation:
    """What one ``run`` was asked to do."""

    seed: int
    #: Seconds of measurement; ``repeats`` fixes the count instead.
    seconds: float
    repeats: Optional[int]
    #: "full", or "smoke" for the self-test's sizes.
    size: str
    trace: bool
    #: ``Spans`` in the traced pass, ``NoSpans`` otherwise.
    spans: Any
    #: Interpreter start-up and imports, measured by the entry point.
    startup_s: float = 0.0
    setup_passes: int = 3
    #: The self-test's fault injector; nothing else sets it.
    tamper: Optional[Callable] = None


def timed_setup(make: Callable[[], Any], passes: int,
                discard: Callable[[Any], None] = lambda made: None
                ) -> Tuple[float, Any]:
    """Set up ``passes`` times and keep the last.

    Returns the median seconds of a pass and what the last pass made;
    each earlier pass is handed to ``discard`` before the next begins.
    """
    seconds = []
    made = None
    for index in range(passes):
        if index:
            discard(made)
        started = perf_counter()
        made = make()
        seconds.append(perf_counter() - started)
    return statistics.median(seconds), made


@dataclass
class Measurement:
    """What one workload invocation measured."""

    #: The end-to-end metrics this workload measures natively.
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Per-repeat values behind a median, where there are repeats.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Numbers without a bound (spec.SUPPORTING): measured, printed and
    #: stored, never gated.
    supporting: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced pass only); absent names read as 0.
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Simulator workloads: digest of what the seed produced, so suite
    #: rounds (separate processes) can be held to the same answer.
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    repeats: int = 0


def more_repeats(walls: List[float], seconds: float,
                 repeats: Optional[int]) -> bool:
    """Whether another timed repeat should run.

    With a time budget, another repeat starts only while at least half
    of it still fits, so the measured time lands within half a repeat
    of ``seconds``.
    """
    if repeats is not None:
        return len(walls) < repeats
    if len(walls) < MIN_REPEATS:
        return True
    return (
        len(walls) < _MAX_REPEATS
        and sum(walls) + 0.5 * statistics.mean(walls) <= seconds
    )
