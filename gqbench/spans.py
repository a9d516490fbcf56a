"""Phase spans recorded from gqbench's own files.

The traced pass wraps the public calls a workload makes
(``build_deployment``, ``Simulator.run*``, ``Telemetry.collect``,
``export_*``; connect / rate step / saturation / drain / verify for the
broker) and records one span per call: name, start, end and the span
that was open when it began. Spans stay in memory and are written to
``trace.json`` when the invocation ends. The untraced pass gets
:class:`NoSpans`, so timed repeats run the program's own code only.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import List, Optional

__all__ = ["Spans", "NoSpans", "PHASES"]

#: The span names that roll up into ``phase.<name>_s``.
PHASES = ("build", "run", "collect", "export")


class Spans:
    """An in-memory span log with parent links."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._open: List[int] = []
        self._origin = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": perf_counter() - self._origin,
            "end": None,
            **attrs,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter() - self._origin

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    @contextmanager
    def patched(self, owner, attr: str, name: str):
        """Temporarily replace ``owner.attr`` with its spanned twin."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        """Seconds covered by ``name`` spans, counting a span nested
        inside another of the same name once."""
        records = self.records  # a span's id is its index
        seconds = 0.0
        for record in records:
            if record["name"] != name or record["end"] is None:
                continue
            parent = record["parent"]
            while parent is not None and records[parent]["name"] != name:
                parent = records[parent]["parent"]
            if parent is None:
                seconds += record["end"] - record["start"]
        return seconds

    def dump(self, path: Path, meta: Optional[dict] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta or {}, "spans": self.records}))


class NoSpans:
    """Tracing off: nothing is wrapped, nothing is recorded."""

    enabled = False
    records: List[dict] = []

    def span(self, name: str, **attrs):
        return nullcontext()

    def wrap(self, fn, name: str):
        return fn

    def patched(self, owner, attr: str, name: str):
        return nullcontext()

    def total(self, name: str) -> float:
        return 0.0
