"""Canonical tiny runs behind the determinism golden fixtures.

One small, fast configuration per scheme — the 2-path Fig 4a cell with
short warm/measure windows — serialized byte-for-byte into
``tests/golden/<scheme>.json``, plus the same cells at
``fidelity="flow"`` for the schemes in :data:`FLOW_GOLDENS`
(``tests/golden/flow_<scheme>.json``: one per transport, so how fluid
transfers are opened is pinned too).  The golden test re-runs the
config and compares bytes: any change to simulation behavior (event
ordering, float math, RNG draws) shows up as a diff, which is what lets
hot-path optimizations prove they are behavior-preserving.

Regenerate intentionally-changed goldens with ``python
tools/gen_golden.py`` and review the diff like any other code change.
"""

from __future__ import annotations

import json

from repro.experiments.common import run_elephant_workload
from repro.experiments.scalability import scalability_config
from repro.runner.serialize import to_jsonable
from repro.units import msec

GOLDEN_SEED = 1
GOLDEN_PATHS = 2
GOLDEN_WARM_NS = msec(2)
GOLDEN_MEASURE_NS = msec(3)

#: schemes added by the tournament zoo.  Their goldens pin a small
#: *tournament* cell (trace workload on a tiny Clos at packet
#: fidelity) instead of the scalability cell, so the fixture exercises
#: the behavior the zoo exists for — size-differentiated routing and
#: replication need a mixed mice/elephant workload, which the
#: elephant-only Fig 4a cell never triggers.  Keeping the dispatch
#: keyed on this explicit tuple guarantees the eight legacy fixtures
#: keep their historical bytes.
ZOO_SCHEMES = ("diffflow", "repflow", "elephant_iso")
ZOO_GOLDEN_TOPOLOGY = "clos:spines=2,leaves=2,hosts=2"
ZOO_GOLDEN_WORKLOAD = "websearch"
ZOO_GOLDEN_DURATION_NS = msec(3)
ZOO_GOLDEN_DRAIN_NS = msec(2)

#: flow-fidelity fixtures, named ``flow_<scheme>``: one scheme per
#: transport (tcp / mptcp / repflow), each the scheme's packet golden
#: cell with only ``fidelity`` changed
FLOW_GOLDENS = ("flow_presto", "flow_mptcp", "flow_repflow")


def golden_zoo_run(scheme: str, fidelity=None, telemetry=None):
    """The canonical tiny tournament cell for a zoo ``scheme``."""
    from repro.experiments.fabric_sweep import run_fabric_cell
    from repro.experiments.harness import TestbedConfig

    return run_fabric_cell(
        TestbedConfig(scheme=scheme, topology=ZOO_GOLDEN_TOPOLOGY,
                      seed=GOLDEN_SEED, fidelity=fidelity),
        workload=ZOO_GOLDEN_WORKLOAD,
        duration_ns=ZOO_GOLDEN_DURATION_NS,
        drain_ns=ZOO_GOLDEN_DRAIN_NS,
        telemetry=telemetry,
    )


def golden_run(name: str, telemetry=None):
    """The canonical tiny run for golden ``name``: a scheme, or
    ``flow_<scheme>`` for the same cell at flow fidelity;
    ``telemetry`` rides along for ``telemetry_snapshot.json``."""
    scheme = name.removeprefix("flow_")
    fidelity = "flow" if scheme != name else None
    if scheme in ZOO_SCHEMES:
        return golden_zoo_run(scheme, fidelity, telemetry)
    # (the Fig 4a cell, ``run_scalability_seed`` spelled out.)  Flow
    # cells add a 1 ms mice stream beside the probe so the periodic
    # spawner is pinned too; the packet cell has none, and its eleven
    # fixtures must keep their bytes.
    probe = [(0, GOLDEN_PATHS)]
    return run_elephant_workload(
        scalability_config(scheme, GOLDEN_PATHS, GOLDEN_SEED, fidelity),
        [(i, GOLDEN_PATHS + i) for i in range(GOLDEN_PATHS)],
        GOLDEN_WARM_NS,
        GOLDEN_MEASURE_NS,
        probe_pairs=probe,
        mice_pairs=probe if fidelity else (),
        mice_interval_ns=msec(1),
        telemetry=telemetry,
    )


def golden_bytes(name: str) -> str:
    """The run, serialized exactly as the fixture files store it."""
    return json.dumps(
        to_jsonable(golden_run(name)), indent=2, sort_keys=True
    ) + "\n"
