"""Structured event tracer with Chrome trace-event / JSONL export.

The tracer records *instants* (a drop, a flowcell assignment, an RTO)
and *complete spans* (a GRO hold from segment arrival to flush, a NIC
poll batch) against the simulation clock.  Export targets:

* ``write_jsonl`` — one JSON object per line, trivially greppable;
* ``write_chrome`` — the Chrome trace-event format, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Events carry a ``cat`` (category: ``queue``, ``nic``, ``gro``,
``tcp``, ``presto``), a ``name``, a nanosecond timestamp, and a flat
``args`` dict.  Timestamps are emitted in microseconds (floats) in the
Chrome export because that is the unit the format mandates; the JSONL
export keeps raw nanoseconds.

The tracer is bounded: past ``max_events`` it drops new events and
counts them, so a runaway trace cannot exhaust memory.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: Chrome trace-event phase codes
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_METADATA = "M"


class Tracer:
    """Append-only, bounded event log keyed to the simulation clock."""

    def __init__(self, sim, max_events: int = 1_000_000):
        self.sim = sim
        self.max_events = max_events
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        self._track_ids: Dict[str, int] = {}

    # --- recording -----------------------------------------------------------

    def track_id(self, name: str) -> int:
        """Stable small integer for a named track (maps to a Chrome tid)."""
        tid = self._track_ids.get(name)
        if tid is None:
            tid = len(self._track_ids) + 1
            self._track_ids[name] = tid
        return tid

    def _append(self, event: Dict[str, Any]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def instant(
        self,
        cat: str,
        name: str,
        track: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._append({
            "ph": PH_INSTANT,
            "cat": cat,
            "name": name,
            "ts_ns": self.sim.now,
            "tid": self.track_id(track),
            "args": args or {},
        })

    def complete(
        self,
        cat: str,
        name: str,
        track: str,
        start_ns: int,
        dur_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._append({
            "ph": PH_COMPLETE,
            "cat": cat,
            "name": name,
            "ts_ns": start_ns,
            "dur_ns": dur_ns,
            "tid": self.track_id(track),
            "args": args or {},
        })

    def __len__(self) -> int:
        return len(self.events)

    # --- export --------------------------------------------------------------

    def to_chrome_json(self) -> Dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object."""
        trace_events: List[Dict[str, Any]] = []
        for name, tid in sorted(self._track_ids.items(), key=lambda kv: kv[1]):
            trace_events.append({
                "ph": PH_METADATA,
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            })
        for ev in self.events:
            out = {
                "ph": ev["ph"],
                "cat": ev["cat"],
                "name": ev["name"],
                "pid": 1,
                "tid": ev["tid"],
                "ts": ev["ts_ns"] / 1000.0,
                "args": ev["args"],
            }
            if ev["ph"] == PH_COMPLETE:
                out["dur"] = ev["dur_ns"] / 1000.0
            else:
                out["s"] = "t"  # thread-scoped instant
            trace_events.append(out)
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_json(), fh, sort_keys=True)
            fh.write("\n")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev, sort_keys=True))
                fh.write("\n")
