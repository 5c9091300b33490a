"""Ablations of Presto's design choices (DESIGN.md S5), one sweep.

* ``timeout`` — adaptive vs static 10 ms GRO hold timeout (S3.2: a
  fixed 10 ms timeout "hinders TCP when the gap is due to loss");
* ``cellsize`` — flowcell size (64 KB is tied to max TSO; smaller
  cells spray finer but reorder more, larger cells collide like
  flowlets);
* ``rr_vs_random`` — round-robin vs random label iteration (S2.1);
* ``loss_detection`` — flowcell-based loss/reorder discrimination on
  vs off (off: an intra-flowcell gap, which is real loss, is held like
  reordering and its SACK feedback is delayed).

A study is a row of data: the ``TestbedConfig`` fields each variant
overrides, the fabric, and who sends elephants, probes and mice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.experiments.common import (
    MEASURE,
    WARM,
    each_in,
    pct_ms,
    reduce_pooled,
    run_elephant_workload,
)
from repro.experiments.harness import TestbedConfig
from repro.runner.jobspec import JobSpec
from repro.runner.sweep import Param, Sweep, seeds_param
from repro.units import KB, msec
from repro.workloads.synthetic import stride_pairs

Pairs = Sequence[Tuple[int, int]]


@dataclass(frozen=True)
class Study:
    #: variant name -> the TestbedConfig fields it overrides
    variants: Mapping[str, Dict[str, Any]]
    pairs: Pairs
    probe_pairs: Pairs = ()
    mice_pairs: Pairs = ()
    #: TestbedConfig shape fields; empty = the paper's 16-host Clos
    fabric: Mapping[str, int] = field(default_factory=dict)


#: 2 spines x 2 leaves x 4 hosts, every host sending across: 2:1
#: oversubscribed, so there is real loss at flowcell boundaries
OVERSUB = dict(n_spines=2, n_leaves=2, hosts_per_leaf=4)
OVERSUB_PAIRS = [(i, 4 + i) for i in range(4)]
STRIDE = dict(pairs=stride_pairs(16, 8), probe_pairs=[(0, 8)])

STUDIES: Dict[str, Study] = {
    "timeout": Study(
        {"adaptive": {},
         "static10ms": dict(gro_adaptive=False, gro_initial_ewma_ns=msec(5),
                            gro_alpha=2.0)},
        OVERSUB_PAIRS, mice_pairs=[(0, 4), (2, 6)], fabric=OVERSUB),
    "cellsize": Study(
        {f"{kb}KB": dict(flowcell_bytes=kb * KB) for kb in (16, 64, 256)},
        **STRIDE),
    "rr_vs_random": Study(
        {mode: dict(presto_mode=mode) for mode in ("rr", "random")},
        **STRIDE),
    "loss_detection": Study(
        {"on": dict(gro_loss_detection=True),
         "off": dict(gro_loss_detection=False)},
        OVERSUB_PAIRS, mice_pairs=[(0, 4)], fabric=OVERSUB),
}


def _cell(study_variant: Tuple[str, str], seed: int,
          p: Dict[str, Any]) -> JobSpec:
    name, variant = study_variant
    study = STUDIES[name]
    return JobSpec.make(
        run_elephant_workload,
        cfg=TestbedConfig(scheme="presto", seed=seed, **study.fabric,
                          **study.variants[variant]),
        label=f"ablations/{name}/{variant}/seed{seed}",
        pairs=study.pairs,
        warm_ns=p["warm_ns"],
        measure_ns=p["measure_ns"],
        probe_pairs=study.probe_pairs,
        mice_pairs=study.mice_pairs,
        mice_interval_ns=msec(4),
    )


def _table(results):
    return (["study", "variant", "eleph Gbps", "jain", "loss", "rtt p99 ms",
             "mice p99 ms", "n mice"],
            [[name, variant, f"{res.mean_tput_bps / 1e9:.2f}",
              f"{res.fairness:.3f}", f"{res.loss_rate:.4%}",
              pct_ms(res.rtts_ns, 99), pct_ms(res.mice_fcts_ns, 99),
              len(res.mice_fcts_ns)]
             for (name, variant), res in results.items()])


#: grid order study > variant > seed; keyed (study, variant) -> Pooled
ABLATIONS = Sweep(
    name="ablations",
    description="DESIGN.md S5 ablations: GRO hold timeout, flowcell size, "
                "label order, loss/reorder discrimination",
    params=(
        Param("studies", tuple(STUDIES), "--studies", "strs",
              f"comma-separated study subset (default: {','.join(STUDIES)})",
              coerce=each_in(STUDIES, "study")),
        seeds_param((1, 2, 3)),
        WARM,
        MEASURE,
    ),
    axes=(lambda p: [(name, variant) for name in p["studies"]
                     for variant in STUDIES[name].variants],),
    cell=_cell,
    reduce=reduce_pooled,
    table=_table,
)
