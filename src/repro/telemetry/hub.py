"""The telemetry hub: one session's registry, trace, and run tally.

Layers reach telemetry through the simulator they already hold
(``sim.telemetry``), so the disabled case costs one attribute load and
a ``None`` check — the hot-path contract every instrumentation site in
the stack follows::

    tel = self.sim.telemetry
    if tel is not None and tel.trace is not None:
        tel.trace.emit(self.sim.now, "net", "tx", ...)

A process-wide *active* telemetry can be installed so that deployment
factories (``repro.experiments.common.build_deployment``) pick it up
without threading a parameter through every experiment::

    tel = Telemetry(trace=True)
    install(tel)
    try:
        ...build deployments, run simulations...
        payload = tel.snapshot()
    finally:
        uninstall()
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from .spans import FlowTrace

__all__ = ["Telemetry", "install", "uninstall", "active"]


class Telemetry:
    """One telemetry session.

    Parameters
    ----------
    trace:
        ``True`` for an unrestricted :class:`FlowTrace`, a ready-made
        ``FlowTrace`` instance, or ``False``/``None`` for no tracing.
    instrument:
        When False the session only *records* what ran — the simulators
        handed to :meth:`attach`, the sharded runs in
        :attr:`pdes_runs` — and never sets ``sim.telemetry``, so the
        datapath keeps its disabled (guard-only) cost.
    """

    def __init__(self, trace: Any = False, instrument: bool = True) -> None:
        self.registry = MetricsRegistry()
        if trace is True:
            trace = FlowTrace()
        # NB: explicit identity checks — an empty FlowTrace has len() 0
        # and would be discarded by a truthiness test.
        self.trace: Optional[FlowTrace] = (
            trace if isinstance(trace, FlowTrace) else None
        )
        self.instrument = instrument
        self._sims: List[Any] = []
        self._observed: List[Tuple[str, Any]] = []
        #: ``PdesResult.summary()`` of every sharded run made under
        #: this session (appended by ``repro.pdes.run_scenario``, whose
        #: shard simulators live in workers and are never attached).
        self.pdes_runs: List[dict] = []

    # -- simulator wiring ------------------------------------------------

    def attach(self, sim) -> None:
        """Count ``sim`` into this session and, when instrumenting,
        make its instrumented layers report here."""
        if sim in self._sims:
            return
        self._sims.append(sim)
        if self.instrument:
            sim.telemetry = self

    def detach(self, sim) -> None:
        if sim not in self._sims:
            return
        self._sims.remove(sim)
        if sim.telemetry is self:
            sim.telemetry = None

    def detach_all(self) -> None:
        for sim in list(self._sims):
            self.detach(sim)

    def event_counts(self) -> Tuple[int, int]:
        """``(processed, credited)`` kernel events over every attached
        simulator and every sharded run reported so far. Detaching
        (``uninstall()`` detaches everything) forgets a simulator, so
        read this while the session is still installed."""
        processed = sum(run["total_events"] for run in self.pdes_runs)
        credited = 0
        for sim in self._sims:
            processed += sim.events_processed
            credited += sim.events_credited
        return processed, credited

    # -- instrument shortcuts --------------------------------------------

    def counter(self, name: str) -> CounterMetric:
        return self.registry.counter(name)

    def gauge(self, name: str) -> GaugeMetric:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> HistogramMetric:
        return self.registry.histogram(name)

    # -- scrape targets --------------------------------------------------

    def observe(self, obj: Any, prefix: Optional[str] = None) -> None:
        """Register ``obj`` (a deployment, MpichGQ, network, or host)
        to be scraped into the registry at snapshot time. The first
        observed object owns the bare namespace; later ones are
        prefixed ``dep1.``, ``dep2.``, ... to keep names collision-free
        across multi-deployment experiments."""
        if prefix is None:
            prefix = "" if not self._observed else f"dep{len(self._observed)}."
        self._observed.append((prefix, obj))

    def collect(self) -> None:
        """Scrape every observed object into the registry now."""
        from .collect import collect_any  # late import: collect uses nothing here

        for prefix, obj in self._observed:
            collect_any(self.registry, obj, prefix=prefix)

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        """Scrape observed objects, then return the full JSON-ready
        payload: metrics and, if tracing, span events."""
        self.collect()
        payload: dict = {"metrics": self.registry.snapshot()}
        if self.trace is not None:
            payload["spans"] = self.trace.to_records()
            payload["span_count"] = len(self.trace)
            payload["spans_dropped"] = self.trace.dropped
        return payload


#: The process-wide active session (None when telemetry is off).
_ACTIVE: Optional[Telemetry] = None


def install(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` the active session deployment factories join."""
    global _ACTIVE
    _ACTIVE = telemetry
    return telemetry


def uninstall() -> None:
    """Deactivate (and detach) the active session, if any."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.detach_all()
    _ACTIVE = None


def active() -> Optional[Telemetry]:
    """The active session, or None when telemetry is disabled."""
    return _ACTIVE
