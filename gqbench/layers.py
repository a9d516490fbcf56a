"""Layer attribution: whose time is it?

A deterministic profile (``cProfile``, in ``pstats`` form) gives every
function's *self* time and call count plus its caller edges. Each
function is charged to the layer that owns its file:

* files under ``src/repro/`` by package (``kernel`` splits into
  ``kernel.process`` and ``kernel.loop``, ``transport`` into ``tcp`` and
  ``udp``, ``broker_service/protocol.py`` is the codec,
  ``pdes/scenarios.py`` is an experiment definition, not PDES runtime);
* a few C built-ins by name: ``_heapq.*`` is ``kernel.heap``,
  ``_pickle.*`` is ``pdes.serialize`` and, under the daemon,
  ``json``/``struct`` are ``broker_service.codec`` and ``asyncio``/
  ``selectors``/sockets are ``broker_service.io``;
* everything else (other built-ins, the standard library, numpy,
  networkx) is *foreign*: its self time goes to the layer that called
  it, exactly along direct caller edges and proportionally through
  foreign intermediates. Only time with no owned caller anywhere above
  it lands in ``other``.

``calls`` stay integers that repeat exactly for a seed: an owned
function's calls count for its layer, a foreign function's calls count
for the owned layer that made them, and foreign-to-foreign calls count
under ``other``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Optional, Tuple

from .spec import LAYERS

__all__ = ["layer_of_path", "owner_of", "attribute", "subtract", "as_metrics"]

Func = Tuple[str, int, str]

_PACKAGE_LAYER = {
    "kernel": "kernel.loop",
    "net": "net",
    "diffserv": "diffserv",
    "aqm": "aqm",
    "transport": "transport.udp",
    "mpi": "mpi",
    "core": "core",
    "cpu": "cpu",
    "apps": "apps",
    "gara": "gara",
    "resilience": "resilience",
    "broker_service": "broker_service.server",
    "pdes": "pdes",
    "telemetry": "telemetry",
    "slo": "slo",
    "faults": "faults",
    "experiments": "experiments",
}


def layer_of_path(relative: str) -> Optional[str]:
    """Layer owning ``relative``, a path below ``src/repro/``."""
    parts = relative.split("/")
    if parts[:2] == ["transport", "tcp"]:
        return "transport.tcp"
    if relative == "kernel/process.py":
        return "kernel.process"
    if relative == "broker_service/protocol.py":
        return "broker_service.codec"
    if relative == "pdes/scenarios.py":
        return "experiments"
    if len(parts) == 1:  # repro/__init__.py: the public re-exports
        return "core"
    return _PACKAGE_LAYER.get(parts[0])


#: "<built-in method _heapq.heappush>" -> "_heapq";
#: "<method 'send' of '_socket.socket' objects>" -> "_socket".
_BUILTIN = re.compile(r"<built-in method (\w+)\.|<method '\w+' of '(\w+)\.")

_BUILTIN_LAYER = {"_heapq": "kernel.heap", "_pickle": "pdes.serialize"}
_DAEMON_BUILTIN_LAYER = {
    "_json": "broker_service.codec",
    "_struct": "broker_service.codec",
    "_socket": "broker_service.io",
    "select": "broker_service.io",
    "_asyncio": "broker_service.io",
}
_DAEMON_STDLIB = re.compile(
    r"/(json|asyncio)/[^/]+\.py$|/(struct|selectors|socket)\.py$"
)


def owner_of(func: Func, daemon: bool = False) -> Optional[str]:
    """The layer that owns ``func``, or None when it is foreign."""
    filename, _line, name = func
    if filename == "~":
        match = _BUILTIN.match(name)
        module = (match.group(1) or match.group(2)) if match else None
        layer = _BUILTIN_LAYER.get(module)
        if layer is None and daemon:
            layer = _DAEMON_BUILTIN_LAYER.get(module)
        return layer
    marker = filename.rfind("/src/repro/")
    if marker >= 0:
        return layer_of_path(filename[marker + len("/src/repro/"):]) or "other"
    if daemon:
        match = _DAEMON_STDLIB.search(filename)
        if match:
            module = match.group(1) or match.group(2)
            return (
                "broker_service.codec" if module in ("json", "struct")
                else "broker_service.io"
            )
    return None


def attribute(stats: dict, daemon: bool = False):
    """Fold a ``pstats`` dict into ``(self_s, calls)`` per layer.

    ``stats`` maps ``func -> (primitive calls, calls, self time,
    cumulative time, {caller: (calls, primitive, self, cumulative)})``.
    """
    owners = {func: owner_of(func, daemon) for func in stats}
    shares: Dict[Func, Dict[str, float]] = {}

    def callers_share(func: Func) -> Dict[str, float]:
        """Which owned layers the calls into ``func`` come from."""
        owner = owners.get(func)
        if owner is not None:
            return {owner: 1.0}
        known = shares.get(func)
        if known is not None:
            return known
        shares[func] = {"other": 1.0}  # breaks cycles among foreigners
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if total > 0:
            mix: Dict[str, float] = defaultdict(float)
            for caller, edge in callers.items():
                for layer, share in callers_share(caller).items():
                    mix[layer] += share * edge[3] / total
            shares[func] = dict(mix)
        return shares[func]

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        owner = owners[func]
        if owner is not None:
            self_s[owner] += tottime
            calls[owner] += ncalls
            continue
        edge_time = edge_calls = 0
        for caller, (n_edge, _cc_edge, tt_edge, _ct_edge) in callers.items():
            edge_time += tt_edge
            edge_calls += n_edge
            calls[owners.get(caller) or "other"] += n_edge
            for layer, share in callers_share(caller).items():
                self_s[layer] += tt_edge * share
        # A root of the profile has no recorded caller.
        self_s["other"] += tottime - edge_time
        calls["other"] += ncalls - edge_calls
    return self_s, calls


def subtract(stats: dict, baseline: dict) -> dict:
    """``stats - baseline`` per function and per caller edge.

    The daemon's profile covers its whole life; subtracting an idle
    twin (spawn, connect, stop) leaves the load alone. A function both
    twins called equally often (imports, start-up, shutdown) is dropped
    outright: what is left of its time is run-to-run jitter, not load.
    """
    out = {}
    for func, (cc, nc, tt, ct, callers) in stats.items():
        bcc, bnc, btt, bct, bcallers = baseline.get(func, (0, 0, 0.0, 0.0, {}))
        if nc <= bnc:
            continue
        edges = {}
        jitter = 0.0
        for caller, edge in callers.items():
            bedge = bcallers.get(caller, (0, 0, 0.0, 0.0))
            delta = tuple(max(a - b, 0) for a, b in zip(edge, bedge))
            if delta[0]:
                edges[caller] = delta
            else:  # the same calls in both twins, e.g. from import code
                jitter += delta[2]
        out[func] = (
            cc - bcc, nc - bnc, max(tt - btt - jitter, 0.0),
            max(ct - bct, 0.0), edges,
        )
    return out


def as_metrics(self_s: Dict[str, float], calls: Dict[str, int],
               traced_s: float, untraced_s: float) -> Dict[str, float]:
    """The per-layer and ``trace.*`` metrics of one profiled run."""
    out: Dict[str, float] = {}
    for layer, seconds in self_s.items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.calls"] = calls[layer]
    out["trace.coverage"] = sum(self_s.values()) / traced_s
    out["trace.overhead_x"] = traced_s / untraced_s
    return out
