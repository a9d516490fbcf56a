"""The telemetry hub: one session's registry, trace, and profilers.

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

    tel = Telemetry(trace=True, profile=True)
    install(tel)
    try:
        ...build deployments, run simulations...
        payload = tel.snapshot()
    finally:
        uninstall()
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .profiler import SimProfiler
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
    profile:
        When True, every attached simulator gets a
        :class:`SimProfiler` hooked into its event loop.
    """

    def __init__(self, trace: Any = False, profile: bool = False) -> None:
        self.registry = MetricsRegistry()
        if trace is True:
            trace = FlowTrace()
        # NB: explicit identity checks — an empty FlowTrace has len() 0
        # and would be discarded by a truthiness test.
        self.trace: Optional[FlowTrace] = (
            trace if isinstance(trace, FlowTrace) else None
        )
        self.profile = profile
        self._sims: List[Any] = []
        self._profilers: List[SimProfiler] = []
        self._observed: List[Tuple[str, Any]] = []

    # -- simulator wiring ------------------------------------------------

    def attach(self, sim) -> None:
        """Make ``sim``'s instrumented layers report here."""
        if sim in self._sims:
            return
        sim.telemetry = self
        self._sims.append(sim)
        if self.profile:
            profiler = SimProfiler()
            sim._profiler = profiler
            self._profilers.append(profiler)

    def detach(self, sim) -> None:
        if sim not in self._sims:
            return
        self._sims.remove(sim)
        if sim.telemetry is self:
            sim.telemetry = None
        profiler = getattr(sim, "_profiler", None)
        if profiler is not None and profiler in self._profilers:
            profiler.stop()
            sim._profiler = None

    def detach_all(self) -> None:
        for sim in list(self._sims):
            self.detach(sim)

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
        payload: metrics, span events (if tracing), and profiles."""
        self.collect()
        payload: dict = {"metrics": self.registry.snapshot()}
        if self.trace is not None:
            payload["spans"] = self.trace.to_records()
            payload["span_count"] = len(self.trace)
            payload["spans_dropped"] = self.trace.dropped
        if self._profilers:
            profiles = [p.snapshot() for p in self._profilers]
            payload["profile"] = profiles[0] if len(profiles) == 1 else profiles
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
