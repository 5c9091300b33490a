"""The five ledger workloads: what runs, on which inputs, checked how.

Every workload calls one public entry point of ``repro`` on a fresh
temporary ``ResultStore`` and is measured from outside.  Sizes are
fixed work.  The *simulated* inputs are the ones the committed
artifacts were generated from (trace seeds 1,2,3, GA seed 1, soak base
seed 1): host time moves 15-30 % from one trace seed to the next (see
README.md, "Why the trace seeds are pinned"), which would drown every
bound below, so ``--seed`` leaves the traces alone and stretches each
cell's simulated horizon by ``(seed - 1) % 1000`` ns instead — every
seed gets its own spec hashes, store records and results, and the same
amount of work.  Seed 1 is the unstretched canonical input whose
``sim_digest`` is committed in ``expected.json``.

``small=True`` is the reduced-size pass ``test_ledger.py`` uses; it
keeps each workload's shape and never matches a committed digest.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: (check name, passed, detail shown on failure)
Check = Tuple[str, bool, str]

TINY_CLOS = "clos:spines=2,leaves=2,hosts=2"


def horizon_jitter_ns(seed: int) -> int:
    return (seed - 1) % 1000


def cpu_now() -> float:
    """user + sys CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure(fn: Callable[[], object]) -> Tuple[float, float]:
    """(wall_s, cpu_s) of one call."""
    cpu0 = cpu_now()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0, cpu_now() - cpu0


@dataclass
class Outputs:
    """What a finished workload hands the harness."""

    #: canonical text of the simulated results; its sha256 is sim_digest
    sim: str
    #: cells the workload was supposed to execute
    cells: int
    #: store records written by those cells (elapsed_s, attempts)
    records: List[Dict]
    #: simulated milliseconds covered, for the derived speed figure
    sim_ms: float
    checks: List[Check]
    cells_cached: int = 0
    #: records whose elapsed_s feed cell_tail_s, when not all of them
    tail_records: Optional[List[Dict]] = None
    #: per-layer metrics only this workload can measure
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: per-layer metric that receives wall_s - sum(cell elapsed_s)
    overhead_metric: Optional[str] = None

    def __init__(self, seed: int, tmp: str, small: bool = False):
        from repro.runner import ResultStore

        self.seed = seed
        self.tmp = tmp
        self.small = small
        self.jitter = horizon_jitter_ns(seed)
        self.store = ResultStore(os.path.join(tmp, "store"))

    @property
    def canonical(self) -> bool:
        """True when the outputs must match the committed digests."""
        return self.jitter == 0 and not self.small

    def run(self) -> Tuple[float, float]:
        """Execute the timed section; returns its (wall_s, cpu_s)."""
        return measure(self._timed)

    def _timed(self) -> None:
        raise NotImplementedError

    def outputs(self) -> Outputs:
        raise NotImplementedError

    def close(self) -> None:
        pass


class TournamentCold(Workload):
    name = "tournament_cold"
    why = ("cold TOURNAMENT.json regeneration: 297 small flow-fidelity "
           "cells, fluid allocator + engine do about 2/3 of the work")
    overhead_metric = "experiments.reduce_s"

    def __init__(self, seed, tmp, small=False):
        super().__init__(seed, tmp, small)
        from repro.experiments.tournament import (
            DEFAULT_DURATION_NS, run_tournament)
        from repro.units import msec

        self.entry = run_tournament
        self.kwargs = {"duration_ns": DEFAULT_DURATION_NS + self.jitter}
        if small:
            self.kwargs = {
                "schemes": ("ecmp", "presto"), "topologies": (TINY_CLOS,),
                "workloads": ("websearch",), "seeds": (1,),
                "duration_ns": msec(1) + self.jitter,
            }

    def _timed(self):
        self.result = self.entry(jobs=1, store=self.store, **self.kwargs)

    def outputs(self):
        from repro.experiments.tournament import (
            TOURNAMENT_PATH, tournament_json)

        result = self.result
        text = tournament_json(result)
        checks = [("presto at or below ecmp in every trace cell",
                   result.checks_ok, "ordering checks failed")]
        if self.canonical:
            with open(os.path.join(ROOT, TOURNAMENT_PATH)) as fh:
                # the committed file was written by `python -m`, which
                # tags its dataclasses `__main__:`; same bytes otherwise
                committed = fh.read().replace(
                    '"__main__:', '"repro.experiments.tournament:')
            checks.append((f"{TOURNAMENT_PATH} reproduced byte for byte",
                           text == committed, "output drifted"))
        cells = len(result.cells) * len(result.seeds)
        return Outputs(
            sim=text, cells=cells, records=list(self.store.records()),
            sim_ms=cells * result.duration_ns / 1e6, checks=checks)


class FabricK8(Workload):
    name = "fabric_k8"
    why = ("two 128-host fat-tree:k=8 websearch cells: per-realloc cost "
           "at pipes x links scale, presto schedule_for + resolve_path")

    def __init__(self, seed, tmp, small=False):
        super().__init__(seed, tmp, small)
        from repro.experiments.fabric_sweep import run_fabric_sweep
        from repro.units import msec

        self.entry = run_fabric_sweep
        self.topology = "fat-tree:k=4" if small else "fat-tree:k=8"
        self.duration_ns = msec(1 if small else 2) + self.jitter

    def _timed(self):
        self.grid = self.entry(
            (self.topology,), ("websearch",), ("ecmp", "presto"), seeds=(1,),
            duration_ns=self.duration_ns, validate=True,
            jobs=1, store=self.store)

    def outputs(self):
        from repro.runner.serialize import canonical_json

        cells = [cell for per_seed in self.grid.values() for cell in per_seed]
        checks = [
            (f"{cell.scheme}: spanning trees validated, flows completed",
             cell.trees_validated and cell.flows_completed > 0,
             f"validated={cell.trees_validated} "
             f"completed={cell.flows_completed}")
            for cell in cells
        ]
        sim = canonical_json(
            [[list(key), per_seed] for key, per_seed in self.grid.items()])
        return Outputs(
            sim=sim, cells=len(cells), records=list(self.store.records()),
            sim_ms=len(cells) * self.duration_ns / 1e6, checks=checks)


class PacketSearch(Workload):
    name = "packet_search"
    why = ("a quarter-size cold `search paper`: 11 packet-fidelity cells, "
           "event heap, ports, queues, TSO/GRO and TCP; fluid unused")
    overhead_metric = "search.overhead_s"

    def __init__(self, seed, tmp, small=False):
        super().__init__(seed, tmp, small)
        from repro.search import PRESETS, run_search
        from repro.search.fitness import DEFAULT_MEASURE_NS
        from repro.units import msec

        self.entry = run_search
        self.settings = replace(
            PRESETS["paper"], population=6, generations=1, ga_seed=1,
            measure_ns=DEFAULT_MEASURE_NS + self.jitter)
        if small:
            self.settings = replace(
                self.settings, population=2, eval_seeds=(1,),
                warm_ns=msec(1), measure_ns=msec(1) + self.jitter)

    def _timed(self):
        self.result, self.stats = self.entry(
            self.settings, jobs=1, store=self.store)

    def outputs(self):
        from repro.search import search_json

        result, stats = self.result, self.stats
        cells = result.store["new_evals"]
        checks = [
            ("every new cell executed once, every repeat a store hit",
             stats.executed == cells
             and stats.cached == result.store["submitted"] - cells,
             f"executed={stats.executed} cached={stats.cached} "
             f"store={result.store}"),
            ("a full-seed frontier exists", bool(result.frontier),
             "no candidate reached every evaluation seed"),
        ]
        horizon_ms = (self.settings.warm_ns + self.settings.measure_ns) / 1e6
        return Outputs(
            sim=search_json(result), cells=cells,
            records=list(self.store.records()), sim_ms=cells * horizon_ms,
            checks=checks, cells_cached=stats.cached)


class PacketFaults(Workload):
    name = "packet_faults"
    why = ("36 chaos-soak cases: packet layers under link flaps, switch "
           "deaths, failover, RTO re-arming; invariants armed in every case")

    def __init__(self, seed, tmp, small=False):
        super().__init__(seed, tmp, small)
        from repro.faults.soak import DEFAULT_DEADLINE_NS, run_soak

        self.entry = run_soak
        self.n_cases = 2 if small else 36
        self.deadline_ns = DEFAULT_DEADLINE_NS + self.jitter

    def _timed(self):
        self.report = self.entry(
            n_cases=self.n_cases, base_seed=1, deadline_ns=self.deadline_ns,
            jobs=1, store=self.store)

    def outputs(self):
        from repro.runner.serialize import canonical_json

        report = self.report
        checks = []
        for i, (result, error) in enumerate(
                zip(report.results, report.errors)):
            detail = error or "; ".join(result.violations)
            checks.append((f"case {i}: whole-system invariants",
                           result is not None and result.ok, detail))
        return Outputs(
            sim=canonical_json(report.results),
            cells=self.n_cases, records=list(self.store.records()),
            sim_ms=sum(r.end_ns for r in report.results if r) / 1e6,
            checks=checks)


class SweepOverhead(Workload):
    name = "sweep_overhead"
    why = ("330 two-millisecond cells x 3 through serial, warm, 2-worker "
           "pool and HTTP service executors: runner and service dominate")

    WARM_PASSES = 10
    SUBMIT_CHUNK = 64
    PHASES = ("serial", "warm", "pool", "submit", "http")

    def __init__(self, seed, tmp, small=False):
        super().__init__(seed, tmp, small)
        from repro.experiments.tournament import tournament_specs
        from repro.units import msec

        self.reps = 1 if small else 3
        self.warm_passes = 2 if small else self.WARM_PASSES
        self.specs = tournament_specs(
            topologies=(TINY_CLOS,), seeds=range(1, 2 if small else 11),
            duration_ns=msec(1) + self.jitter)
        self.duration_ms = (msec(1) + self.jitter) / 1e6
        self.phase: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in self.PHASES}
        self.checks: List[Check] = []
        self.serial_stores = []
        self.other_stores = []
        self.requeues = 0
        self.essence = ""
        self._live = None
        self._start_coordinator(0)

    def _store(self, kind: str, rep: int):
        from repro.runner import ResultStore

        return ResultStore(os.path.join(self.tmp, f"{kind}{rep}"))

    def _start_coordinator(self, rep: int) -> None:
        from repro.service.coordinator import serve

        store = self._store("service", rep)
        coordinator, server = serve(store, port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            name="ledger-coordinator")
        thread.start()
        self._live = (store, coordinator, server, thread)

    def _stop_coordinator(self) -> None:
        if self._live is not None:
            _store, _coordinator, server, thread = self._live
            server.shutdown()
            server.server_close()
            thread.join()
            self._live = None

    def close(self):
        self._stop_coordinator()

    def run(self):
        for rep in range(self.reps):
            self._one_rep(rep)
        medians = [
            tuple(statistics.median(sample[i] for sample in samples)
                  for i in (0, 1))
            for samples in self.phase.values()
        ]
        return sum(m[0] for m in medians), sum(m[1] for m in medians)

    def _check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, ok, detail))

    def _one_rep(self, rep: int) -> None:
        from repro.runner import run_jobs
        from repro.runner.serialize import to_jsonable
        from repro.service.protocol import request_json
        from repro.service.worker import run_worker

        specs, n = self.specs, len(self.specs)
        serial, pool = self._store("serial", rep), self._store("pool", rep)
        self.serial_stores.append(serial)
        self.phase["serial"].append(measure(
            lambda: run_jobs(specs, jobs=1, store=serial)))

        warm_outcomes = []
        self.phase["warm"].append(measure(lambda: warm_outcomes.extend(
            outcome for _ in range(self.warm_passes)
            for outcome in run_jobs(specs, jobs=1, store=serial))))
        executed = sum(o.status != "cached" for o in warm_outcomes)
        self._check(f"rep {rep}: warm passes execute no job",
                    executed == 0, f"{executed} job(s) re-executed")

        self.phase["pool"].append(measure(
            lambda: run_jobs(specs, jobs=2, store=pool)))

        if self._live is None:
            self._start_coordinator(rep)
        service, coordinator, server, _thread = self._live
        url = f"http://127.0.0.1:{server.server_port}"

        def submit() -> None:
            payloads = [to_jsonable(spec) for spec in specs]
            for start in range(0, n, self.SUBMIT_CHUNK):
                status, body = request_json(url, "/submit", {
                    "specs": payloads[start:start + self.SUBMIT_CHUNK]})
                if status != 200:
                    raise RuntimeError(f"/submit answered {status}: {body}")
        self.phase["submit"].append(measure(submit))

        done: Dict[str, object] = {}

        def work_and_fetch() -> None:
            done["executed"] = run_worker(url, max_jobs=n, max_idle_s=5.0)
            _status, body = request_json(
                url, "/results", {"ids": [spec.hash for spec in specs]})
            done["jobs"] = (body or {}).get("jobs", {})
        self.phase["http"].append(measure(work_and_fetch))
        self.requeues += coordinator.counters["leases_expired"].value
        self._stop_coordinator()

        finished = sum(
            info.get("status") == "done" for info in done["jobs"].values())
        self._check(f"rep {rep}: the one worker ran every job over HTTP",
                    done["executed"] == n and finished == n,
                    f"worker ran {done['executed']}, /results shows "
                    f"{finished} done of {n}")
        self.other_stores += [pool, service]
        essences = [store_essence(s) for s in (serial, pool, service)]
        self._check(f"rep {rep}: serial, pool and service stores agree",
                    essences[0] == essences[1] == essences[2],
                    "records differ in hash/label/spec/result")
        self.essence = essences[0]

    def outputs(self):
        n = len(self.specs)
        per_phase = {
            name: statistics.median(wall for wall, _cpu in samples)
            for name, samples in self.phase.items()}
        serial = [r for store in self.serial_stores for r in store.records()]
        others = [r for store in self.other_stores for r in store.records()]
        checks = self.checks + [
            ("no lease expired or was released", self.requeues == 0,
             f"{self.requeues} requeue(s)")]
        return Outputs(
            sim=self.essence, cells=3 * n * self.reps,
            records=serial + others, tail_records=serial,
            sim_ms=3 * n * self.reps * self.duration_ms, checks=checks,
            cells_cached=n * self.warm_passes * self.reps,
            layer={
                "runner.serial_ms_per_job": per_phase["serial"] / n * 1e3,
                "runner.warm_us_per_job":
                    per_phase["warm"] / (n * self.warm_passes) * 1e6,
                "runner.pool_ms_per_job": per_phase["pool"] / n * 1e3,
                "service.http_ms_per_job": per_phase["http"] / n * 1e3,
                "service.submit_us_per_spec": per_phase["submit"] / n * 1e6,
                "service.requeues": self.requeues,
            })


def store_essence(store) -> str:
    """What three executors must agree on: every record's
    hash/label/spec/result, timestamps and timings left out."""
    return json.dumps([
        {key: record[key] for key in ("hash", "label", "spec", "result")}
        for record in store.records()], sort_keys=True)


WORKLOADS = {cls.name: cls for cls in (
    TournamentCold, FabricK8, PacketSearch, PacketFaults, SweepOverhead)}
