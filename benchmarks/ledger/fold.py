"""Traced run: cProfile around a workload, folded by ``repro`` package.

The ledger traces from outside: nothing under ``src/`` knows it is
being profiled.  ``pstats`` self time (``tottime``) is exactly "span
minus children", so folding it by the package that owns each function
gives per-layer self time without double counting.  Builtins and stdlib
functions own no package; their self time is charged to the ``repro``
function that called them (the ``callers`` table holds the exact
per-caller split) or, through stdlib frames, to their nearest ``repro``
ancestors in proportion to the cumulative time on each caller edge —
so ``json`` encoding lands on ``runner`` where ``store.save`` asked for
it.  Self time of builtins that *block* (lock acquire, socket receive,
poll, sleep) is waiting on another thread or process and is reported as
the ``wait`` layer; what has no ``repro`` ancestor at all (thread
bootstrap, the HTTP server's request parsing) stays in ``other``.

cProfile only sees the thread that enabled it.  The coordinator answers
each request on a short-lived handler thread, so :class:`Tracer` also
profiles threads whose target is ``process_request_thread`` and merges
them in; the idle ``serve_forever`` and heartbeat threads are left out
because their self time is waiting, not work.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
from typing import Dict, List, Tuple

#: layers = packages under src/repro/; everything else folds to "other"
PACKAGES = (
    "sim", "net", "host", "presto", "lb", "fluid", "workloads",
    "experiments", "metrics", "faults", "runner", "service", "search",
    "validate", "telemetry", "mptcp",
)
OTHER = "other"
#: pseudo-layer: self time of builtins that block (see ``_BLOCKING``)
WAIT = "wait"

#: modules whose self time is reported on its own
HOT_MODULES = (
    "sim.engine", "net.port", "net.queues", "net.switch", "net.packet",
    "net.routing", "host.nic", "host.tcp", "host.gro", "fluid.allocator",
    "fluid.engine", "presto.controller",
)

#: exact call counts: metric -> (module, function name)
COUNTED_CALLS = {
    "fluid.reallocs": ("fluid.allocator", "max_min_allocation"),
    "fluid.resolve_path.calls": ("fluid.engine", "resolve_path"),
    "presto.schedule_for.calls": ("presto.controller", "schedule_for"),
    "sim.schedule.calls": ("sim.engine", "schedule"),
    "sim.cancel.calls": ("sim.engine", "cancel"),
    "net.enqueue.calls": ("net.queues", "enqueue"),
    "host.gro.merge.calls": ("host.gro", "merge"),
    "host.gro.flush.calls": ("host.gro", "flush"),
    "runner.hash.calls": ("runner.jobspec", "hash"),
}

_HANDLER_TARGET = "process_request_thread"


class Tracer:
    """Context manager: profile the calling thread plus the HTTP
    handler threads started while it is active."""

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._threads: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._orig_run = None

    def __enter__(self) -> "Tracer":
        orig_run = self._orig_run = threading.Thread.run
        tracer = self

        def run(thread) -> None:
            target = getattr(thread, "_target", None)
            if getattr(target, "__name__", "") != _HANDLER_TARGET:
                return orig_run(thread)
            prof = cProfile.Profile()
            prof.enable()
            try:
                orig_run(thread)
            finally:
                prof.disable()
                with tracer._lock:
                    tracer._threads.append(prof)

        threading.Thread.run = run
        self._main.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._main.disable()
        threading.Thread.run = self._orig_run

    def stats(self) -> Dict[Tuple[str, int, str], tuple]:
        """The merged ``pstats`` table: func -> (cc, nc, tt, ct, callers)."""
        merged = pstats.Stats(self._main)
        with self._lock:
            for prof in self._threads:
                merged.add(prof)
        return merged.stats


def module_of(filename: str, repro_root: str) -> str:
    """``net.port`` for ``<repro_root>/net/port.py``; "" outside repro."""
    if not filename.startswith(repro_root + os.sep):
        return ""
    rel = filename[len(repro_root) + 1:]
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.replace(os.sep, ".")


#: builtins that block on another thread, process or socket: their self
#: time is waiting, not work, and is reported as the ``wait`` layer
_BLOCKING = (
    "'acquire' of '_thread.lock'", "'recv_into' of '_socket.socket'",
    "'accept' of '_socket.socket'", "'poll' of 'select.", "select.select",
    "time.sleep", "posix.waitpid",
)


def fold(stats: Dict[Tuple[str, int, str], tuple],
         repro_root: str) -> Dict[str, float]:
    """Per-layer metrics from one merged profile table.

    Returns ``P.self_s`` / ``P.calls`` for every package plus ``wait``
    and ``other``, ``M.self_s`` for every hot module, the counted
    calls, ``sim.cancel_share`` and ``trace.total_s`` (the sum of all
    self time, which the ``*.self_s`` layers add up to).
    """
    layers = PACKAGES + (WAIT, OTHER)
    pkg_self = {p: 0.0 for p in layers}
    pkg_calls = {p: 0 for p in layers}
    mod_self = {m: 0.0 for m in HOT_MODULES}
    counted = {name: 0 for name in COUNTED_CALLS}
    by_target = {target: name for name, target in COUNTED_CALLS.items()}
    modules = {func: module_of(func[0], repro_root) for func in stats}
    owners_memo: Dict[tuple, Dict[str, float]] = {}

    def charge(module: str, seconds: float) -> None:
        pkg = module.split(".", 1)[0]
        pkg_self[pkg if pkg in pkg_self else OTHER] += seconds
        if module in mod_self:
            mod_self[module] += seconds

    def owners(func: tuple, stack: frozenset) -> Dict[str, float]:
        """Which repro modules ``func`` works for: itself when it is
        repro code, else its nearest repro ancestors, weighted by the
        cumulative time that arrived over each caller edge ("" = no
        repro ancestor, which ``charge`` books as ``other``)."""
        if modules[func]:
            return {modules[func]: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        edges = [(caller, edge[3] or edge[2])
                 for caller, edge in stats[func][4].items()
                 if caller != func and caller not in stack
                 and caller in stats]
        total = sum(weight for _caller, weight in edges)
        shares: Dict[str, float] = {}
        if total <= 0.0:
            shares[""] = 1.0
        else:
            for caller, weight in edges:
                for module, share in owners(caller, stack | {func}).items():
                    shares[module] = shares.get(module, 0.0) + \
                        share * weight / total
        owners_memo[func] = shares
        return shares

    total = 0.0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        total += tt
        module = modules[func]
        if module:
            pkg = module.split(".", 1)[0]
            pkg_calls[pkg if pkg in pkg_calls else OTHER] += nc
            charge(module, tt)
            metric = by_target.get((module, func[2]))
            if metric is not None:
                counted[metric] += nc
            continue
        pkg_calls[OTHER] += nc
        if any(marker in func[2] for marker in _BLOCKING):
            pkg_self[WAIT] += tt
            continue
        # builtin / stdlib: self time goes to the nearest repro
        # ancestors; the callers table has the exact per-caller split
        charged = 0.0
        for caller, edge in callers.items():
            if caller not in stats:
                continue
            charged += edge[2]
            for owner, share in owners(caller, frozenset((func,))).items():
                charge(owner, edge[2] * share)
        pkg_self[OTHER] += tt - charged

    out: Dict[str, float] = {"trace.total_s": total}
    for pkg in layers:
        out[f"{pkg}.self_s"] = pkg_self[pkg]
        if pkg != WAIT:
            out[f"{pkg}.calls"] = pkg_calls[pkg]
    for module in HOT_MODULES:
        out[f"{module}.self_s"] = mod_self[module]
    out.update(counted)
    schedules = counted["sim.schedule.calls"]
    out["sim.cancel_share"] = (
        counted["sim.cancel.calls"] / schedules if schedules else 0.0)
    return out
