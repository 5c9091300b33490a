#!/usr/bin/env python
"""Re-pin every pinned output: the goldens under tests/golden/ and the
committed artifacts.

Usage::

    python tools/gen_golden.py                  # every row of PINNED
    python tools/gen_golden.py tests/golden/presto.json TOURNAMENT.json

:data:`PINNED` is the one list of pinned files.  A row is named by its
file's path from the repo root and says how the file's bytes are made:
a golden by a function of this file or of ``repro.experiments.goldens``,
an artifact by one ``python -m repro.runner`` command line
(:class:`Run`), run in-process at the runner's default ``--jobs``.

For each named row (default: all) the tool makes the bytes; when they
differ from the committed file it prints ``moved <path>`` and, for a
JSON file, ``serialize.movement(old, new)`` under it — every moved
leaf, old -> new — then writes the file.  That report is what a
behaviour-changing PR quotes.  To check instead of re-pin, run the
tool and then ``git diff --exit-code`` on the same paths.

Scheme goldens pin the simulator's exact behavior (see
``repro.experiments.goldens``); ``sweep_specs.json`` pins every sweep's
ordered ``(label, fn, hash)`` job list — the result-store cache keys;
``fabric_tables.json`` pins the state the controller programs into a
fabric (L2 tables, ECMP groups, failover buckets, schedules);
``lb_sequences.json`` pins the label every scheme's vSwitch gives each
unit of one scripted stream; ``telemetry_snapshot.json`` pins the
metrics snapshot of one packet and one flow golden cell;
``figures.json`` pins the payload of each ported paper figure's sweep
(:data:`PORTED`).  Only re-pin a file when a change is *meant* to move
it, and review the diff.
"""

import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from typing import NamedTuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.goldens import FLOW_GOLDENS, golden_bytes  # noqa: E402
from repro.experiments.schemes import scheme_names  # noqa: E402
from repro.host.host import Host  # noqa: E402
from repro.net.addresses import (  # noqa: E402
    host_mac,
    mac_str,
    shadow_mac,
    tree_field,
)
from repro.net.packet import ACK, DATA, Segment  # noqa: E402
from repro.units import KB, MB, msec, usec  # noqa: E402

TINY_CLOS = "clos:spines=2,leaves=2,hosts=2"

#: `python -m repro.runner run <case>` command lines whose job lists are
#: pinned: every registered sweep at its defaults, then the parameter
#: paths that have moved hashes before (fidelity, telemetry, the
#: tournament's incast clamp on a small fabric, explicit windows).
#: The search has no static grid; its first rung (the only one that
#: does not depend on results) stands in, each job built by the
#: driver's own ``SearchSettings.job_spec``.
#:
#: Provenance: the rows of the first two blocks were generated by the
#: code *before* the sweep was ported onto `repro.runner.sweep` (PR 12
#: for the first, PR 14 for the soak / failure timeline, from the old
#: `run_soak` spec construction), so they prove the store's cache keys
#: survived the port.  The last block's rows were generated by the
#: current code and pin it from here on: those sweeps had no store
#: history (serial hand loops until PR 14), or their cells moved
#: module (`gro_reordering`, once an oracle).  The `claims` case is the
#: cells of the oracle rows; its fct/failover rows keep the hashes the
#: oracles' own cells had (`tests/test_sweeps.py` pins them).
SWEEP_CASES = (
    "scalability",
    "oversub",
    "synthetic",
    "fabric",
    "tournament",
    "scalability --points 2,4,8 --seeds 1,2 --measure-ms 25",
    "oversub --schemes presto,ecmp --points 2 --seeds 1 --warm-ms 2 "
    "--measure-ms 3",
    "synthetic --seeds 1,2 --measure-ms 25",
    "fabric --topology fat-tree:k=4 --seeds 1 --duration-ms 5 --validate",
    "scalability --schemes presto,ecmp --points 2 --seeds 1 --fidelity flow",
    "scalability --schemes presto --points 2 --seeds 1 --trace "
    "--results-dir golden",
    f"tournament --topology {TINY_CLOS} --seeds 1",
    "tournament --schemes ecmp,presto --workloads websearch --seeds 1 "
    "--duration-ms 2 --load-scale 2 --fidelity packet",
    "search --preset smoke (first rung)",
    "search --preset paper (first rung)",
    # -- parent-generated at PR 14 ------------------------------------
    "soak",
    "soak --cases 3 --seed 1 --topology fat-tree:k=4",
    "failure",
    # -- generated by the current code --------------------------------
    "gro_reordering",
    "gro_reordering --seeds 1 --scale 0.2",
    "claims --claims fct_ordering,fct_ordering_flow,failover,failover_flow,"
    "gro_reordering,tournament_ordering",
    "flowlet_sizes",
    "gro_micro",
    "cpu_overhead",
    "flowlet_cmp",
    "perhop_cmp",
    "trace",
    "northsouth",
    "failure --workloads bijection --seeds 1 --with-probes --fidelity flow",
    "compare",
    "ablations",
    "ablations --seeds 1 --measure-ms 25",
)


def _search_first_rung(params):
    """The jobs the search submits before it has seen any result."""
    from dataclasses import replace

    from repro.runner.serialize import content_hash
    from repro.search.driver import PRESETS
    from repro.search.ga import sample_population
    from repro.search.halving import halving_schedule

    settings = replace(PRESETS[params.pop("preset", "paper")], **params)
    population = sample_population(
        settings.space, settings.population, random.Random(settings.ga_seed))
    rung = next(iter(halving_schedule(
        len(population), len(settings.eval_seeds), settings.eta,
        settings.base_seeds)))
    cell_kwargs = settings.cell_kwargs()
    return [settings.job_spec(genome, seed, content_hash({
                "scheme": settings.scheme,
                "knobs": settings.space.decode(genome)}), **cell_kwargs)
            for genome in population
            for seed in settings.eval_seeds[:rung.cum_seeds]]


def sweep_case_specs(case):
    """One case's JobSpec list, built the way `runner run` builds it:
    the sweep's derived flag parser, then its ``specs()``."""
    from repro.runner.cli import run_parser, sweep_params
    from repro.runner.sweeps import SWEEPS

    name, *flags = shlex.split(case.replace(" (first rung)", ""))
    sweep = SWEEPS[name]
    params = sweep_params(sweep, run_parser(sweep).parse_args(flags))
    if name == "claims":
        from repro.validate.claims import CLAIMS

        rows = {claim.id: claim for claim in CLAIMS}
        return [spec for cid in params["claims"]
                for spec in SWEEPS[rows[cid].sweep].specs(**rows[cid].params)]
    if sweep.cell is None:
        return _search_first_rung(params)
    return sweep.specs(**params)


def sweep_specs_text():
    """tests/golden/sweep_specs.json: one row per job, one block per case."""
    blocks = []
    for case in SWEEP_CASES:
        rows = ",\n".join(
            "  " + json.dumps([spec.label, spec.fn, spec.hash])
            for spec in sweep_case_specs(case))
        blocks.append(f" {json.dumps(case)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


#: the fabrics whose programmed state ``fabric_tables.json`` pins:
#: the paper's testbed, the Fig 4a/4b extremes, the smallest Clos and
#: both fat trees the sweeps run.  Provenance: generated by the code
#: *before* PR 15 replaced the per-kind routing twins with the tier
#: walk, so the file proves that rewrite programmed identical state.
FABRIC_SHAPES = (
    "clos:spines=2,leaves=2,hosts=2",
    "clos:spines=4,leaves=4,hosts=4",
    "clos:spines=8,leaves=2,hosts=8",
    "clos:spines=2,leaves=2,hosts=8",
    "fat-tree:k=4",
    "fat-tree:k=8",
)


def fabric_tables(shape):
    """Everything the controller programs into ``shape``'s fabric, by
    section, read back from the built presto testbed: every switch's L2
    table, ECMP group and fast-failover buckets (with the tree a bucket
    relabels onto), and every host pair's label schedule before and
    after the first fabric link dies and the controller reacts.

    A switch keeps its L2 state factored (``below`` and ``climb``); the
    "l2" section expands it into the exact-match table it stands for:
    a real MAC per host below, and a label per (tree, host) that the
    switch forwards down or up."""
    from repro.experiments.harness import Testbed, TestbedConfig

    tb = Testbed(TestbedConfig(scheme="presto", topology=shape))
    switches = tb.topo.switches
    n = len(tb.hosts)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]

    def l2_table(sw):
        table = {host_mac(host): port for host, port in sw.below.items()}
        for tree in tb.controller.trees:
            climb = sw.climb.get(tree_field(tree.tree_id))
            for host in tb.topo.host_port:
                port = sw.below.get(host, climb)
                if port is not None:
                    table[shadow_mac(tree.tree_id, host)] = port
        return table

    def relabel(onto):
        """What the bucket's set-field action makes of tree 0's label."""
        return None if onto is None else mac_str(shadow_mac(onto, 0))

    out = {
        "l2": {name: {mac_str(mac): port.name
                      for mac, port in l2_table(sw).items()}
               for name, sw in switches.items()},
        "ecmp": {name: {"ports": [p.name for p in sw.ecmp_default.ports],
                        "salt": sw.ecmp_default.salt,
                        "mode": sw.ecmp_default.mode}
                 for name, sw in switches.items()
                 if sw.ecmp_default is not None},
        "schedules": [[mac_str(m) for m in tb.controller.schedule_for(s, d)]
                      for s, d in pairs],
    }
    tb.controller.enable_fast_failover(tb.cfg.failover_latency_ns)
    out["failover"] = {
        name: {"latency_ns": sw.failover.latency_ns,
               "backups": {primary.name: [backup.name, relabel(onto)]
                           for primary, (backup, onto)
                           in sw.failover._backup.items()}}
        for name, sw in switches.items() if sw.failover is not None}
    tb.topo.links[0].set_down()  # fabric links are wired before hosts
    tb.controller.push_all()
    out["schedules_after_link_down"] = [
        [mac_str(m) for m in tb.hosts[s].lb.labels_for(d)]
        for s, d in pairs]
    return out


def fabric_tables_digest(shape):
    """sha256 of each section's canonical JSON (a k=8 fabric programs
    166 528 L2 entries; the digests are what is committed), plus the
    entry count as a first hint when one moves."""
    from repro.runner.serialize import canonical_json

    tables = fabric_tables(shape)
    digest = {
        section: hashlib.sha256(canonical_json(data).encode()).hexdigest()
        for section, data in tables.items()}
    digest["l2_entries"] = sum(len(t) for t in tables["l2"].values())
    return digest


def fabric_tables_text():
    """tests/golden/fabric_tables.json: one block per shape."""
    return json.dumps({shape: fabric_tables_digest(shape)
                       for shape in FABRIC_SHAPES}, indent=1) + "\n"


# --- lb_sequences -----------------------------------------------------------
# Provenance: the committed file is the output of this script and this
# format run at the commit *before* the vSwitch/policy seam replaced
# the ``select(seg)`` / ``packet_labeler()`` classes, through that old
# API (the script that replayed it is in git history); this code
# regenerates it byte for byte through ``VSwitch``.

#: scheme variants whose label sequences are pinned: every registered
#: scheme at its defaults, plus the two Presto knobs
LB_VARIANTS = (
    *((name, {}) for name in scheme_names()),
    ("presto", {"presto_mode": "random"}),
    ("presto", {"flowcell_bytes": 16 * KB}),
)


def lb_script():
    """The scripted stream every variant labels, time-ordered:
    ``("sched", t, dst, labels)``, ``("pair", t, primary, replica)``
    and ``("seg", t, flow, dst, seq, nbytes)`` (``nbytes == 0`` is a
    pure ACK).  Flows 1 and 2 interleave toward host 3 over a weighted
    schedule; 10/11 are a RepFlow pair; 20 goes to a host with no
    schedule; 30 carries only ACKs."""
    events = [("sched", 0, 3, [shadow_mac(t, 3) for t in (0, 1, 0, 2, 3)]),
              ("pair", 0, 10, 11)]
    clock = [0]
    next_seq = {}

    def seg(flow, nbytes, gap_ns=usec(1), dst=3, seq=None):
        clock[0] += gap_ns
        if seq is None:
            seq = next_seq.get(flow, 0)
            next_seq[flow] = seq + nbytes
        events.append(("seg", clock[0], flow, dst, seq, nbytes))

    seg(1, 64 * KB)                  # fills cell 1 to the byte
    seg(2, 48 * KB)
    seg(1, 1)                        # one byte past the boundary
    seg(2, 48 * KB)                  # 96 KB > 64 KB: rotates
    seg(10, 10 * KB)
    seg(11, 10 * KB)                 # the replica's first segment
    seg(30, 0)                       # zero-payload ACK
    seg(1, 100 * KB - 64 * KB - 1)   # end_seq == 100 KB: still a mouse
    seg(1, 1448, seq=0)              # retransmission below the high water
    seg(20, 5 * KB, dst=5)           # no schedule toward 5: real MAC
    seg(1, 1)                        # 100 KB + 1: DiffFlow promotes
    # flow 1 alone, either side of the 100 us / 500 us flowlet gaps
    seg(1, 1448, usec(100))
    seg(1, 1448, usec(100) + 1)
    seg(1, 1448, usec(500))
    seg(1, 1448, usec(500) + 1)
    seg(2, 1448)                     # flow 2 was idle > 1 ms
    seg(30, 0)
    # ramp flow 1 to exactly 1 MB, flow 2 alongside
    for i in range(14):
        seg(1, 64 * KB)
        if i % 3 == 0:
            seg(2, 64 * KB)
            seg(11, 1448)
    seg(1, 1 * MB - next_seq[1])     # end_seq == 1 MB: not yet detected
    seg(1, 1)                        # 1 MB + 1: elephant_iso detects
    seg(1, 64 * KB)
    seg(2, 48 * KB)
    seg(1, 64 * KB)
    clock[0] += usec(1)
    events.append(("sched", clock[0], 3,
                   [shadow_mac(1, 3), shadow_mac(3, 3)]))  # fewer labels
    for _ in range(3):
        seg(1, 64 * KB)
        seg(2, 48 * KB)
    seg(1, 64 * KB, seq=0)           # retransmission after the re-schedule
    seg(10, 1448)
    seg(11, 1448)
    seg(30, 0)
    seg(2, 1448, usec(600))
    assert [e[1] for e in events] == sorted(e[1] for e in events)
    return events


class _CapturePort:
    """Egress stand-in: records what TSO hands the wire, synchronously."""

    def __init__(self):
        self.track_flows = False
        self.flow_bytes = {}
        self.on_dequeue = None
        self.sent = []

    def send(self, pkt):
        self.sent.append((pkt.dst_mac, pkt.flowcell_id))


def _run_length(pairs):
    """Wire-packet labels of one segment: runs of ``[label, cell,
    count]``, or — when every packet was labelled on its own (spraying)
    — the count, both ends and a digest of the rest."""
    runs = []
    for mac, cell in pairs:
        if runs and runs[-1][:2] == [mac_str(mac), cell]:
            runs[-1][2] += 1
        else:
            runs.append([mac_str(mac), cell, 1])
    if len(runs) <= 2:
        return runs
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]
    return {"pkts": len(pairs), "first": runs[0][:2], "last": runs[-1][:2],
            "sha256": digest}


def lb_host_sequence(vswitch, sim):
    """The script sent through a real ``Host.send_segment`` + TSO: per
    segment, the label the tx tap saw and the run-length-encoded labels
    of the wire packets."""
    host = Host(sim, 0, lb=vswitch, model_cpu=False)
    port = _CapturePort()
    host.attach(port, None)
    rows = []

    def tap(seg):
        rows.append([mac_str(seg.dst_mac), seg.flowcell_id])

    host.tx_tap = tap

    def send(flow, dst, seq, nbytes):
        host.send_segment(Segment(
            flow_id=flow, src_host=0, dst_host=dst, seq=seq,
            end_seq=seq + nbytes, kind=DATA if nbytes else ACK))
        rows[-1].append(_run_length(port.sent))
        port.sent.clear()

    for kind, at, *args in lb_script():
        fn = {"sched": vswitch.set_schedule, "pair": vswitch.pair,
              "seg": send}[kind]
        sim.schedule_at(at, fn, *args)
    sim.run()
    return rows


def lb_cell_sequence(vswitch):
    """The script through the fluid slicer's call pattern: one
    ``label`` per unit and, no packets below it, one ``spray`` step
    where the answer was SPRAY."""
    rows = []
    for kind, at, *args in lb_script():
        if kind == "seg":
            flow, dst, seq, nbytes = args
            mac, cell = vswitch.label(flow, dst, nbytes, seq + nbytes, at)
            if not cell:
                mac, cell = vswitch.spray(flow, dst)
            rows.append([mac_str(mac), cell])
        else:
            {"sched": vswitch.set_schedule, "pair": vswitch.pair}[kind](*args)
    return rows


def _lb_sequences(name, knobs):
    """(segment rows, cell rows) of one variant through ``VSwitch``."""
    from repro.experiments.harness import TestbedConfig
    from repro.experiments.schemes import get_scheme
    from repro.lb.base import VSwitch
    from repro.sim.engine import Simulator

    def make_vswitch():
        cfg = TestbedConfig(scheme=name, **knobs)
        return VSwitch(0, get_scheme(name).policy(cfg), random.Random(7))

    return (lb_host_sequence(make_vswitch(), Simulator()),
            lb_cell_sequence(make_vswitch()))


def lb_sequences_text():
    """tests/golden/lb_sequences.json: the script, then per variant the
    labels at segment granularity and at fluid-cell granularity."""
    variants = []
    for name, knobs in LB_VARIANTS:
        rows = ",\n".join(
            f'   "{mode}": [\n'
            + ",\n".join("    " + json.dumps(row) for row in seq)
            + "\n   ]"
            for mode, seq in zip(("segments", "cells"),
                                 _lb_sequences(name, knobs)))
        key = name + "".join(f" {k}={v}" for k, v in knobs.items())
        variants.append(f'  {json.dumps(key)}: {{\n{rows}\n  }}')
    script = ",\n".join("  " + json.dumps(
        [e[0], e[1], e[2], [mac_str(m) for m in e[3]]] if e[0] == "sched"
        else list(e)) for e in lb_script())
    return ('{\n "script": [\n' + script + '\n ],\n "variants": {\n'
            + ",\n".join(variants) + "\n }\n}\n")


#: golden cells whose ``TelemetryConfig(metrics=True)`` snapshot is
#: pinned.  Provenance: written by the code *before* the data planes
#: grew ``counters()`` (ISSUE 24), so it proves the samplers that now
#: mirror that read-out report what the per-component walks reported.
TELEMETRY_CELLS = ("presto", "flow_presto")


def telemetry_snapshot_text():
    """tests/golden/telemetry_snapshot.json: per cell, one row per
    metric of its snapshot."""
    from repro.experiments.goldens import golden_run
    from repro.telemetry.core import TelemetryConfig

    blocks = []
    for name in TELEMETRY_CELLS:
        metrics = golden_run(name, TelemetryConfig(metrics=True)).metrics
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(metrics[key])}"
                          for key in sorted(metrics))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


_TINY_NS = dict(warm_ns=msec(1), measure_ns=msec(3))
#: the paper figures whose payloads ``figures.json`` pins: figure ->
#: (sweep, its arguments).  Provenance: the arguments the figures' hand
#: loops were given when their numbers were first pinned, before the
#: loops were ported onto sweeps; the first generated file was checked
#: to carry those loops' numbers (CHANGES.md).
PORTED = {
    "flowlet_cmp": ("flowlet_cmp", dict(
        schemes=("flowlet500us", "presto"), seeds=(1,), **_TINY_NS)),
    "perhop_cmp": ("perhop_cmp", dict(
        schemes=("presto_ecmp",), seeds=(1, 2), **_TINY_NS)),
    "trace": ("trace", dict(
        schemes=("ecmp", "presto"), seeds=(1, 2), duration_ns=msec(4))),
    "northsouth": ("northsouth", dict(
        schemes=("ecmp", "optimal"), seeds=(1,), **_TINY_NS)),
    "gro_micro": ("gro_micro", dict(duration_ns=msec(3), seed=0)),
    "cpu_overhead": ("cpu_overhead", dict(
        duration_ns=msec(2), sample_ns=msec(1), seed=0)),
    "flowlet_sizes": ("flowlet_sizes", dict(
        max_competing=1, transfer_bytes=1 * MB, gap_ns=usec(500),
        duration_ns=msec(4))),
    "failure_fig17": ("failure", dict(
        workloads=("L1->L4",), seeds=(1, 2), **_TINY_NS)),
    "failure_fig18": ("failure", dict(
        workloads=("bijection",), seeds=(1,), with_probes=True, **_TINY_NS)),
    "compare": ("compare", dict(seeds=(1,), scale=0.1)),
}


def figure_payload(figure):
    """The payload of ``figure``'s sweep at its pinned arguments, run
    in-process with no store."""
    from repro.runner.sweeps import SWEEPS

    name, arguments = PORTED[figure]
    return SWEEPS[name].run(jobs=1, **arguments)


def figures_text():
    """tests/golden/figures.json: each figure's payload under its name."""
    from repro.runner.serialize import artifact_json

    return artifact_json({figure: figure_payload(figure)
                          for figure in PORTED})


class Run(NamedTuple):
    """A file made by one ``python -m repro.runner`` command line: the
    tool runs it with a fresh temporary ``--results-dir`` as its
    working directory and ``--quiet``, and takes ``output`` from that
    directory."""

    command: str
    output: str


#: one search run writes both of its files
SEARCH_RUN = "run search --markdown SEARCH.md"

#: every pinned output, by its path from the repo root, and how its
#: bytes are made
PINNED = {
    **{f"tests/golden/{name}.json": partial(golden_bytes, name)
       for name in (*scheme_names(), *FLOW_GOLDENS)},
    "tests/golden/sweep_specs.json": sweep_specs_text,
    "tests/golden/fabric_tables.json": fabric_tables_text,
    "tests/golden/lb_sequences.json": lb_sequences_text,
    "tests/golden/telemetry_snapshot.json": telemetry_snapshot_text,
    "tests/golden/figures.json": figures_text,
    "TOURNAMENT.json": Run("run tournament", "TOURNAMENT.json"),
    "SEARCH.json": Run(SEARCH_RUN, "SEARCH.json"),
    "SEARCH.md": Run(SEARCH_RUN, "SEARCH.md"),
    "FLUID_COMPARE.json": Run("run compare", "FLUID_COMPARE.json"),
    # the committed grid is the sweep's own summary file
    "FABRIC_SWEEP.json": Run("run fabric --duration-ms 5 --validate",
                             "runner_fabric.json"),
}

def run_output(run, scratch, ran):
    """The file ``run`` makes, running each command once per ``ran``
    (command -> its directory under ``scratch``)."""
    from repro.runner.cli import main as runner_main

    if run.command not in ran:
        out = ran[run.command] = tempfile.mkdtemp(dir=scratch)
        log = io.StringIO()
        here = os.getcwd()
        os.chdir(out)
        try:
            with redirect_stdout(log), redirect_stderr(log):
                status = runner_main(
                    [*shlex.split(run.command), "--results-dir", out,
                     "--quiet"])
        finally:
            os.chdir(here)
        if status:
            raise SystemExit(
                f"{run.command} exited {status}:\n{log.getvalue()}")
    with open(os.path.join(ran[run.command], run.output)) as fh:
        return fh.read()


def repin(path, new):
    """Write ``new`` over the pinned file ``path``, first printing
    whether it moved and, for JSON, each leaf that moved."""
    from repro.runner.serialize import movement

    full = os.path.join(ROOT, path)
    old = None
    if os.path.exists(full):
        with open(full) as fh:
            old = fh.read()
    if old == new:
        print(f"unchanged {path}")
        return
    print(f"{'new' if old is None else 'moved'} {path}")
    if old is not None and path.endswith(".json"):
        try:
            lines = movement(json.loads(old), json.loads(new))
        except ValueError as exc:
            lines = [f"the committed file is not JSON ({exc})"]
        for line in lines:
            print(f"  {line}")
    with open(full, "w") as fh:
        fh.write(new)


def main(argv):
    names = argv[1:] or list(PINNED)
    unknown = [name for name in names if name not in PINNED]
    if unknown:
        print(f"not a pinned path: {', '.join(unknown)}; the rows are "
              f"{', '.join(PINNED)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        ran = {}
        for name in names:
            make = PINNED[name]
            repin(name, run_output(make, scratch, ran)
                  if isinstance(make, Run) else make())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
