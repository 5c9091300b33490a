"""Direct timings: one small fixed-work loop per layer, untraced.

Each number is the median of :data:`ROUNDS` rounds of a loop that calls
one layer's public functions and nothing else, so a layer can be read
without a profiler's per-call tax distorting it.  The packet hot-path
loops are the ones ``repro.perf.suite`` already defines (reused, not
copied); the rest cover what that suite never reached: the fluid
allocator at two sizes (their ratio is its scaling exponent), testbed
construction, spec hashing, store I/O, lease bookkeeping and the
coordinator's submit→claim→complete cycle without HTTP.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import time
from typing import Callable, Dict, Tuple

ROUNDS = 5
#: specs / records / leases per round of the runner and service loops
N_ITEMS = 200


def _median(fn: Callable[[], float], rounds: int = ROUNDS) -> float:
    return statistics.median(fn() for _ in range(rounds))


def _per_unit(bench: Callable[[float], Tuple[float, int]],
              scale: float) -> Callable[[], float]:
    def once() -> float:
        wall, units = bench(scale)
        return wall / units
    return once


def synthetic_pipes(k: int, n: int, rng: random.Random):
    """``n`` seeded cross-pod pipes over the link names of a k-ary fat
    tree, as ``max_min_allocation`` input: up two hops, down two hops,
    each direction of a link its own resource."""
    from repro.net.fabrics import fabric_link_names

    names = set(fabric_link_names(f"fat-tree:k={k}")[0])
    half = k // 2
    pipes = []
    for _ in range(n):
        src_pod, dst_pod = rng.sample(range(1, k + 1), 2)
        agg, core = rng.randint(1, half), rng.randint(1, half)
        legs = (
            f"E{src_pod}.{rng.randint(1, half)}--A{src_pod}.{agg}",
            f"A{src_pod}.{agg}--C{agg}.{core}",
            f"A{dst_pod}.{agg}--C{agg}.{core}",
            f"E{dst_pod}.{rng.randint(1, half)}--A{dst_pod}.{agg}",
        )
        if not names.issuperset(legs):
            raise ValueError(f"not fat-tree:k={k} link names: {legs}")
        path = (legs[0] + ">", legs[1] + ">", legs[2] + "<", legs[3] + "<")
        pipes.append((path, rng.choice((1.0, 0.5, 0.25)), None))
    capacity = {name + way: 1.25e9 for name in names for way in "<>"}
    return pipes, capacity


def _alloc_ms(k: int, n: int, seed: int) -> float:
    from repro.fluid.allocator import max_min_allocation

    pipes, capacity = synthetic_pipes(k, n, random.Random(seed))

    def once() -> float:
        t0 = time.perf_counter()
        max_min_allocation(pipes, capacity)
        return (time.perf_counter() - t0) * 1e3
    return _median(once)


def _testbed_build_ms(topology: str, seed: int, rounds: int = ROUNDS) -> float:
    from repro.experiments.fabric_sweep import fabric_config
    from repro.experiments.harness import Testbed

    cfg = fabric_config(topology, "presto", seed)

    def once() -> float:
        t0 = time.perf_counter()
        Testbed(cfg)
        return (time.perf_counter() - t0) * 1e3
    return _median(once, rounds)


def _runner_and_service(seed: int, tmp: str) -> Dict[str, float]:
    from repro.experiments.tournament import tournament_specs
    from repro.runner import ResultStore
    from repro.runner.lease import LeaseQueue
    from repro.runner.serialize import to_jsonable
    from repro.service.coordinator import SweepCoordinator
    from repro.units import msec

    specs = tournament_specs(
        topologies=("clos:spines=2,leaves=2,hosts=2",),
        seeds=range(seed, seed + 7), duration_ns=msec(1))[:N_ITEMS]
    payloads = [to_jsonable(spec) for spec in specs]
    result = to_jsonable(specs[0].execute())
    rounds = itertools.count()

    def per_item_us(fn: Callable[[], None]) -> float:
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) / len(specs) * 1e6

    def hashing() -> float:
        return per_item_us(lambda: [spec.hash for spec in specs])

    def put_then_get() -> Tuple[float, float]:
        store = ResultStore(os.path.join(tmp, f"direct{next(rounds)}"))
        return (
            per_item_us(
                lambda: [store.save(spec, result, 0.0) for spec in specs]),
            per_item_us(
                lambda: [store.load_record(spec) for spec in specs]),
        )

    def lease_cycle() -> float:
        queue = LeaseQueue()

        def cycle() -> None:
            for i, spec in enumerate(specs):
                queue.add(i, spec)
                queue.complete(queue.claim().lease_id)
        return per_item_us(cycle)

    def coordinator_cycle() -> float:
        coordinator = SweepCoordinator(
            ResultStore(os.path.join(tmp, f"direct{next(rounds)}")))

        def cycle() -> None:
            for payload in payloads:
                coordinator.submit([payload])
                lease = coordinator.claim("direct")
                coordinator.complete(lease["lease"], "direct", True, result)
        return per_item_us(cycle)

    store_io = [put_then_get() for _ in range(ROUNDS)]
    return {
        "runner.spec_hash_us": _median(hashing),
        "runner.store_put_us": statistics.median(p for p, _g in store_io),
        "runner.store_get_us": statistics.median(g for _p, g in store_io),
        "runner.lease_cycle_us": _median(lease_cycle),
        "service.direct_cycle_us": _median(coordinator_cycle),
    }


def direct_timings(seed: int, tmp: str, scale: float = 1.0) -> Dict[str, float]:
    """Every direct-timing metric.  ``scale`` shrinks the packet loops
    (the ledger's own tests use it); the published numbers are 1.0."""
    from repro.perf import suite

    out = {
        "sim.churn_ns_per_op":
            _median(_per_unit(suite.bench_event_churn, scale)) * 1e9,
        "host.tso_ns_per_pkt":
            _median(_per_unit(suite.bench_tso_fanout, 0.25 * scale)) * 1e9,
        "host.gro_ns_per_pkt":
            _median(_per_unit(suite.bench_gro_merge, scale)) * 1e9,
        "net.pkt_events_per_s":
            1.0 / _median(_per_unit(suite.bench_scalability_8host,
                                    0.1 * scale)),
        "fluid.alloc_ms_n256": _alloc_ms(4, 256, seed),
        "fluid.alloc_ms_n2048": _alloc_ms(8, 2048, seed),
        "experiments.testbed_build_ms_k4":
            _testbed_build_ms("fat-tree:k=4", seed),
        "experiments.testbed_build_ms_k8":
            # ~1.5 s a build: three rounds keep a traced run affordable
            _testbed_build_ms("fat-tree:k=8", seed, rounds=3),
    }
    out.update(_runner_and_service(seed, tmp))
    return out
