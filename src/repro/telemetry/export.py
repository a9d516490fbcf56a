"""Exporters: JSON (full payload) and CSV (flat metrics table).

The JSON dump is the machine-readable companion to every figure run:
``{"meta": ..., "metrics": {...}, "spans": [...]}``.
The CSV flattens the metrics only (one instrument per row), for quick
spreadsheet/pandas triage of a batch of runs.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Optional

from .hub import Telemetry

__all__ = ["metrics_payload", "export_json", "export_csv", "metrics_csv_text"]


def metrics_payload(telemetry: Telemetry, meta: Optional[dict] = None) -> dict:
    """The full JSON-ready dump, with optional run metadata attached."""
    payload = telemetry.snapshot()
    if meta:
        payload = {"meta": dict(meta), **payload}
    return payload


def export_json(
    telemetry: Telemetry, path, meta: Optional[dict] = None
) -> Path:
    """Write the full payload to ``path``; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(metrics_payload(telemetry, meta), indent=2))
    return path


_CSV_FIELDS = [
    "name", "type", "value", "count", "sum", "mean",
    "min", "max", "p50", "p90", "p99",
]


def metrics_csv_text(telemetry: Telemetry) -> str:
    """The flat metrics table as CSV text (collects first)."""
    telemetry.collect()
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, extrasaction="ignore")
    writer.writeheader()
    for name, snap in telemetry.registry.snapshot().items():
        writer.writerow({"name": name, **snap})
    return buf.getvalue()


def export_csv(telemetry: Telemetry, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_csv_text(telemetry))
    return path
