"""Host-side observations: calibration, memory, process age, stamp."""

from __future__ import annotations

import heapq
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence

__all__ = [
    "ROOT", "scratch_dir", "calibrate", "loadavg", "peak_rss_mb",
    "process_age_s", "stamp", "quartiles",
]

ROOT = Path(__file__).resolve().parent.parent


def scratch_dir() -> Path:
    """Where gqbench writes: inside the checkout, git-ignored."""
    path = ROOT / ".gqbench"
    path.mkdir(exist_ok=True)
    return path


def calibrate() -> float:
    """Seconds for a fixed pure-Python heap/dict kernel.

    Timed before and after the repeats: when it moves, the host moved,
    not the program. The work is the simulator's inner loop in
    miniature (heap push/pop of tuples, dict reads and writes).
    """
    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    state = 12345
    for i in range(60_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (state, i))
        table[state & 0xFFF] = i
        if i & 1:
            key = heapq.heappop(heap)[0] & 0xFFF
            table[key] = table.get(key, 0) + 1
    return time.perf_counter() - started


def loadavg() -> float:
    return os.getloadavg()[0]


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child
    (the forked PDES shards), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def process_age_s() -> float:
    """Seconds since this process was created (interpreter start-up and
    imports included), from the kernel's own clock."""
    with open("/proc/self/stat") as stat:
        start_ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as uptime:
        now = float(uptime.read().split()[0])
    return now - start_ticks / os.sysconf("SC_CLK_TCK")


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(seed: int, repeats: int, calib: Sequence[float]) -> dict:
    """What ran where: written into every result file."""
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "repeats": repeats,
        "gc": "simulator: disabled during each timed call, collect "
              "between; daemon: its own defaults; generator: disabled "
              "during load",
        "host.calib_s": list(calib),
        "host.loadavg": loadavg(),
    }
