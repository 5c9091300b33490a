"""The `Telemetry` handle a Testbed carries, and its no-op twin.

Design rules that keep telemetry honest:

* **Off by default, near-zero overhead.**  Components hold a probe
  attribute that defaults to ``None`` and guard every call site with
  ``if probe is not None``; with telemetry disabled no object is ever
  allocated on the hot path.
* **Pure observer.**  Probes only *read* simulation state — they never
  draw from the RNG streams or schedule events, so enabling telemetry
  cannot change a single packet's fate.  (``tests/test_telemetry.py``
  enforces this by diffing results with telemetry on vs off.)
* **Deterministic.**  Snapshots are sorted dicts of plain values;
  traces are append-only logs of simulation-clock events.  The same
  config + seed produces byte-identical output, serial or parallel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect.  Frozen so it can ride inside hashed JobSpecs."""

    #: collect metric snapshots (counters/gauges/histograms)
    metrics: bool = True
    #: record structured trace events (spans + instants)
    trace: bool = False
    #: directory trace files are exported into (created on demand)
    trace_dir: Optional[str] = None
    #: basename for exported traces (``<name>.trace.json`` / ``.jsonl``)
    trace_name: Optional[str] = None
    #: tracer memory bound; events past this are counted, not stored
    max_trace_events: int = 1_000_000


def per_cell_telemetry(
    telemetry: Optional[TelemetryConfig], label: str
) -> Optional[TelemetryConfig]:
    """Derive a sweep cell's config: same knobs, its own trace file.

    Labels are slash-separated (``sweep/scheme/point/seed``); flattening
    them keeps every cell's trace in one directory.  ``None`` stays
    ``None`` so disabled telemetry never grows a config object.
    """
    if telemetry is None or not telemetry.trace:
        return telemetry
    return replace(telemetry, trace_name=label.replace("/", "_"))


class Telemetry:
    """Live collector: a metrics registry plus an optional tracer."""

    enabled = True

    def __init__(self, sim, config: Optional[TelemetryConfig] = None):
        # loaded by the first enabled collector: a run with telemetry
        # off never needs them
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.trace import Tracer

        self.sim = sim
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = (
            Tracer(sim, self.config.max_trace_events)
            if self.config.trace else None
        )
        #: callbacks run at snapshot time to read cumulative sim state
        self._samplers: List[Callable[[MetricsRegistry], None]] = []

    def add_sampler(self, fn: Callable[[MetricsRegistry], None]) -> None:
        self._samplers.append(fn)

    def snapshot(self) -> Dict[str, Any]:
        """Run samplers, then dump every metric (sorted, JSON-able)."""
        if not self.config.metrics:
            return {}
        for sampler in self._samplers:
            sampler(self.registry)
        return self.registry.snapshot()

    def export_trace(self) -> Optional[str]:
        """Write the Chrome trace + JSONL next to it; returns the path.

        No-op (returns None) when tracing is off or no dir was given.
        """
        if self.tracer is None or self.config.trace_dir is None:
            return None
        os.makedirs(self.config.trace_dir, exist_ok=True)
        name = self.config.trace_name or "trace"
        chrome_path = os.path.join(
            self.config.trace_dir, f"{name}.trace.json")
        self.tracer.write_chrome(chrome_path)
        self.tracer.write_jsonl(
            os.path.join(self.config.trace_dir, f"{name}.jsonl"))
        return chrome_path


class NullTelemetry:
    """The disabled sink: every operation is a no-op.

    Components never talk to this directly (they guard on their own
    ``probe is None``); it exists so ``Testbed.telemetry`` is always a
    valid handle and experiment code can call ``snapshot()`` without
    branching.
    """

    enabled = False
    tracer = None

    def add_sampler(self, fn) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def export_trace(self) -> None:
        return None


#: shared singleton — NullTelemetry is stateless
NULL_TELEMETRY = NullTelemetry()
