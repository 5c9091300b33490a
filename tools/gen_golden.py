#!/usr/bin/env python
"""Regenerate the determinism golden fixtures in tests/golden/.

Usage::

    python tools/gen_golden.py            # all schemes + flow cells + sweep specs
    python tools/gen_golden.py presto     # one scheme
    python tools/gen_golden.py flow_mptcp # one flow-fidelity cell
    python tools/gen_golden.py sweep_specs

Scheme goldens pin the simulator's exact behavior (see
``repro.experiments.goldens``); ``sweep_specs.json`` pins every sweep's
ordered ``(label, fn, hash)`` job list — the result-store cache keys.
Only regenerate either when a change is *meant* to move them, and
review the diff.
"""

import json
import os
import random
import shlex
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.goldens import FLOW_GOLDENS, golden_bytes  # noqa: E402
from repro.experiments.schemes import scheme_names  # noqa: E402

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tests", "golden")
SWEEP_SPECS = "sweep_specs"

TINY_CLOS = "clos:spines=2,leaves=2,hosts=2"

#: `python -m repro.runner run <case>` command lines whose job lists are
#: pinned: every registered sweep at its defaults, then the parameter
#: paths that have moved hashes before (fidelity, telemetry, the
#: tournament's incast clamp on a small fabric, explicit windows).
#: The search has no static grid; its first rung (the only one that
#: does not depend on results) stands in.
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
)


def _search_first_rung(params):
    """The jobs the search submits before it has seen any result."""
    from dataclasses import replace

    from repro.runner import JobSpec
    from repro.runner.serialize import content_hash
    from repro.search.driver import PRESETS
    from repro.search.fitness import run_search_cell
    from repro.search.ga import sample_population
    from repro.search.halving import halving_schedule

    preset = params.pop("preset", "paper")
    settings = replace(PRESETS[preset], **params)
    population = sample_population(
        settings.space, settings.population, random.Random(settings.ga_seed))
    rung = next(iter(halving_schedule(
        len(population), len(settings.eval_seeds), settings.eta,
        settings.base_seeds)))
    specs = []
    for genome in population:
        config_hash = content_hash({
            "scheme": settings.scheme,
            "knobs": settings.space.decode(genome)})
        for seed in settings.eval_seeds[:rung.cum_seeds]:
            specs.append(JobSpec.make(
                run_search_cell, cfg=settings.config(genome, seed),
                label=f"search/{preset}/{config_hash[:8]}/seed{seed}",
                **settings.cell_kwargs()))
    return specs


def sweep_case_specs(case):
    """One case's JobSpec list, built the way `runner run` builds it:
    the sweep's derived flag parser, then its ``specs()``."""
    from repro.runner.cli import run_parser, sweep_params
    from repro.runner.sweeps import SWEEPS

    name, *flags = shlex.split(case.replace(" (first rung)", ""))
    sweep = SWEEPS[name]
    params = sweep_params(sweep, run_parser(sweep).parse_args(flags))
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


def main(argv):
    names = argv[1:] or [*scheme_names(), *FLOW_GOLDENS, SWEEP_SPECS]
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        data = (sweep_specs_text() if name == SWEEP_SPECS
                else golden_bytes(name))
        with open(path, "w") as fh:
            fh.write(data)
        print(f"wrote {os.path.relpath(path)} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
