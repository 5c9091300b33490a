"""repro.search: property tests for the primitives, determinism pins
for the driver.

Three layers, matching the package:

* hypothesis properties — successive-halving rung arithmetic (budgets
  sum to the total, survivors monotone non-increasing, no (candidate,
  seed) pair evaluated twice), GA operators staying inside the
  ``ParamSpace``, encode/decode round-trips for every range kind;
* driver determinism — same GA seed => byte-identical ``SEARCH.json``
  (cold and warm store, serial and parallel), and a warm second run
  performing **zero** new evaluations (live ``RunStats``);
* CLI — run/--check wiring on the smoke preset.

Everything here uses the flow-fidelity smoke-sized settings so the
whole module stays tier-1 fast.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.runner import ResultStore
from repro.search.driver import (
    PRESETS,
    SearchSettings,
    run_search,
    search_json,
)
from repro.search.ga import (
    crossover,
    mutate,
    next_generation,
    sample_population,
)
from repro.search.halving import (
    halving_schedule,
    total_new_evals,
    total_submitted,
)
from repro.search.space import Param, ParamSpace
from repro.units import KB

# --- halving properties ------------------------------------------------------

halving_args = st.tuples(
    st.integers(min_value=1, max_value=60),   # n_candidates
    st.integers(min_value=1, max_value=16),   # n_seeds
    st.integers(min_value=2, max_value=4),    # eta
    st.integers(min_value=1, max_value=4),    # base_seeds
)


@given(halving_args)
@hsettings(max_examples=200, deadline=None)
def test_halving_schedule_invariants(args):
    n, seeds, eta, base = args
    rungs = halving_schedule(n, seeds, eta, base)
    # first rung evaluates everybody; last rung reaches the full seed set
    assert rungs[0].survivors == n
    assert rungs[-1].cum_seeds == seeds
    # survivors monotone non-increasing, cum seeds strictly increasing
    for prev, cur in zip(rungs, rungs[1:]):
        assert cur.survivors <= prev.survivors
        assert cur.cum_seeds > prev.cum_seeds
        assert cur.survivors >= 1
    # per-rung new seeds partition each survivor's cumulative budget
    for prev_cum, rung in zip([0] + [r.cum_seeds for r in rungs], rungs):
        assert rung.new_seeds == rung.cum_seeds - prev_cum
        assert rung.submitted == rung.survivors * rung.cum_seeds
        assert rung.new_evals == rung.survivors * rung.new_seeds


@given(halving_args)
@hsettings(max_examples=200, deadline=None)
def test_halving_budget_accounting(args):
    """Simulate the ladder candidate-by-candidate: the rung budget sums
    match an explicit (candidate, seed) ledger and no pair repeats."""
    n, seeds, eta, base = args
    rungs = halving_schedule(n, seeds, eta, base)
    evaluated = set()
    submitted = 0
    alive = list(range(n))
    for rung in rungs:
        alive = alive[:rung.survivors]
        for cand in alive:
            for seed in range(rung.cum_seeds):
                submitted += 1
                # a (candidate, seed) pair is *executed* at most once —
                # resubmissions on later rungs are store hits
                evaluated.add((cand, seed))
    assert submitted == total_submitted(rungs)
    assert len(evaluated) == total_new_evals(rungs)


def test_halving_schedule_rejects_nonsense():
    with pytest.raises(ValueError):
        halving_schedule(0, 3)
    with pytest.raises(ValueError):
        halving_schedule(4, 0)
    with pytest.raises(ValueError):
        halving_schedule(4, 3, eta=1)
    with pytest.raises(ValueError):
        halving_schedule(4, 3, base_seeds=0)


def test_halving_schedule_known_ladder():
    rungs = halving_schedule(12, 3, eta=2, base_seeds=1)
    assert [(r.survivors, r.cum_seeds) for r in rungs] == [
        (12, 1), (6, 2), (3, 3)]
    assert total_new_evals(rungs) == 12 + 6 + 3
    assert total_submitted(rungs) == 12 + 12 + 9


# --- ParamSpace properties ---------------------------------------------------


def _space() -> ParamSpace:
    return ParamSpace((
        Param("flowcell_bytes", "log", lo=16 * KB, hi=512 * KB,
              steps=6, integer=True),
        Param("gro_alpha", "log", lo=0.5, hi=8.0, steps=5),
        Param("gro_ewma_gain", "linear", lo=0.125, hi=1.0, steps=8),
        Param("presto_mode", "choice", choices=("rr", "random")),
    ))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@hsettings(max_examples=100, deadline=None)
def test_space_encode_decode_round_trip(seed):
    """decode -> encode is the identity for every range kind."""
    space = _space()
    rng = random.Random(seed)
    genome = space.sample(rng)
    values = space.decode(genome)
    assert space.encode(values) == genome
    for param in space.params:
        assert param.name in values


def test_space_lattices_are_exact():
    space = _space()
    lattices = space.lattices()
    assert lattices[0] == tuple((16 * KB) * 2**i for i in range(6))
    assert lattices[1] == (0.5, 1.0, 2.0, 4.0, 8.0)
    assert len(lattices[2]) == 8
    assert space.size() == 6 * 5 * 8 * 2


def test_space_apply_and_validate():
    from repro.experiments.harness import TestbedConfig

    space = _space()
    base = TestbedConfig(scheme="presto", seed=1)
    space.validate(base)  # all lattice extremes pass harness validation
    cfg = space.apply(base, (2, 1, 0, 0))
    assert cfg.flowcell_bytes == 64 * KB
    assert cfg.gro_alpha == 1.0
    assert cfg.gro_ewma_gain == 0.125
    assert cfg.presto_mode == "rr"
    # an invalid range is caught by the harness's own ValueError
    bad = ParamSpace((
        Param("gro_ewma_gain", "linear", lo=0.5, hi=2.0, steps=3),))
    with pytest.raises(ValueError, match="gro_ewma_gain"):
        bad.validate(base)


def test_space_rejects_bad_params():
    with pytest.raises(ValueError, match="not TestbedConfig fields"):
        ParamSpace((Param("no_such_knob", "choice", choices=(1,)),))
    with pytest.raises(ValueError, match="duplicate param names"):
        ParamSpace((Param("seed", "choice", choices=(1,)),
                    Param("seed", "choice", choices=(2,))))
    with pytest.raises(ValueError, match="kind"):
        Param("seed", "uniform", lo=0, hi=1, steps=2)
    with pytest.raises(ValueError, match="lo < hi"):
        Param("seed", "linear", lo=5, hi=1, steps=3)
    with pytest.raises(ValueError, match="collapsed"):
        Param("seed", "linear", lo=1, hi=2, steps=9, integer=True).values()


# --- GA properties -----------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=20))
@hsettings(max_examples=100, deadline=None)
def test_ga_population_distinct_and_in_bounds(seed, n):
    space = _space()
    rng = random.Random(seed)
    population = sample_population(space, n, rng)
    assert len(population) == min(n, space.size())
    assert len(set(population)) == len(population)
    for genome in population:
        assert space.contains(genome)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@hsettings(max_examples=100, deadline=None)
def test_ga_crossover_and_mutation_stay_in_bounds(seed):
    space = _space()
    rng = random.Random(seed)
    a, b = space.sample(rng), space.sample(rng)
    child = crossover(a, b, rng)
    assert space.contains(child)
    # uniform crossover: every gene comes from a parent
    for gene, ga, gb in zip(child, a, b):
        assert gene in (ga, gb)
    mutant = mutate(space, child, rng)
    assert space.contains(mutant)
    # exactly one gene changed, to a different lattice index
    diffs = [i for i, (x, y) in enumerate(zip(child, mutant)) if x != y]
    assert len(diffs) == 1


@given(st.integers(min_value=0, max_value=2**31 - 1))
@hsettings(max_examples=50, deadline=None)
def test_ga_next_generation_novel_and_in_bounds(seed):
    space = _space()
    rng = random.Random(seed)
    parents = sample_population(space, 6, rng)
    children = next_generation(space, parents, 6, rng, seen=parents)
    assert len(children) == 6
    assert len(set(children)) == 6
    for child in children:
        assert space.contains(child)
        assert child not in parents


def test_ga_exhausts_small_space_gracefully():
    space = ParamSpace((
        Param("presto_mode", "choice", choices=("rr", "random")),
        Param("gro_adaptive", "choice", choices=(True, False)),
    ))
    rng = random.Random(7)
    population = sample_population(space, 10, rng)
    assert len(population) == space.size() == 4
    # nothing novel left: breeding returns an empty generation, not a hang
    assert next_generation(space, population, 3, rng,
                           seen=population) == []


# --- driver determinism ------------------------------------------------------


def _smoke_settings() -> SearchSettings:
    return PRESETS["smoke"]


def test_search_same_seed_byte_identical(tmp_path):
    settings = _smoke_settings()
    a, _ = run_search(settings, store=ResultStore(tmp_path / "a"))
    b, _ = run_search(settings, store=ResultStore(tmp_path / "b"))
    assert search_json(a) == search_json(b)


def test_search_warm_store_zero_new_evaluations(tmp_path):
    settings = _smoke_settings()
    store = ResultStore(tmp_path / "store")
    cold, cold_stats = run_search(settings, store=store)
    warm, warm_stats = run_search(settings, store=store)
    # the committed bytes are identical cold vs warm...
    assert search_json(cold) == search_json(warm)
    # ...while the live stats show the store did all the work
    assert cold_stats.executed > 0
    assert warm_stats.executed == 0
    assert warm_stats.cached == warm_stats.submitted
    assert warm_stats.submitted == cold_stats.submitted


def test_search_serial_vs_parallel_identical(tmp_path):
    settings = _smoke_settings()
    serial, _ = run_search(settings, jobs=1,
                           store=ResultStore(tmp_path / "serial"))
    parallel, _ = run_search(settings, jobs=2,
                             store=ResultStore(tmp_path / "parallel"))
    assert search_json(serial) == search_json(parallel)


def test_search_different_ga_seed_diverges(tmp_path):
    from dataclasses import replace

    settings = _smoke_settings()
    store = ResultStore(tmp_path / "store")
    a, _ = run_search(settings, store=store)
    b, _ = run_search(replace(settings, ga_seed=99), store=store)
    assert json.loads(search_json(a))["fields"]["ga_seed"] != \
        json.loads(search_json(b))["fields"]["ga_seed"]


def test_search_result_shape(tmp_path):
    settings = _smoke_settings()
    result, stats = run_search(settings, store=ResultStore(tmp_path / "s"))
    # one generation, all novel: every proposed candidate evaluated once
    assert result.evaluated == settings.population
    assert result.store["submitted"] == stats.submitted
    # against a cold store, structural new == live executed
    assert result.store["new_evals"] == stats.executed
    # frontier carries full-seed fitness, best first
    fits = [r.fitness_ns for r in result.frontier]
    assert all(r.n_seeds == len(settings.eval_seeds)
               for r in result.frontier)
    present = [f for f in fits if f is not None]
    assert present == sorted(present)
    # the structural hit rate matches the halving ladder's arithmetic
    rungs = halving_schedule(settings.population,
                             len(settings.eval_seeds),
                             settings.eta, settings.base_seeds)
    assert result.store["submitted"] == total_submitted(rungs)
    assert result.store["new_evals"] == total_new_evals(rungs)


# --- CLI ---------------------------------------------------------------------


def test_cli_run_and_check(tmp_path, capsys):
    # the same cycle runs for every artifact sweep in
    # tests/test_sweeps.py; the preset echo and report heading are what
    # only the search promises
    from repro.runner.cli import main

    out = tmp_path / "SEARCH.json"
    md = tmp_path / "SEARCH.md"
    args = ["run", "search", "--preset", "smoke", "--quiet",
            "--results-dir", str(tmp_path / "store"),
            "--out", str(out), "--markdown", str(md)]
    assert main(args) == 0
    payload = out.read_text()
    assert payload.endswith("\n")
    assert json.loads(payload)["fields"]["preset"] == "smoke"
    assert "# Parameter search" in md.read_text()
    # --check against the file just written: byte-identical, exit 0 —
    # and from a warm store, which must not change the bytes
    assert main(args + ["--check"]) == 0
    # drift the committed file: --check must fail
    out.write_text(payload.replace('"smoke"', '"broke"', 1))
    assert main(args + ["--check"]) == 1


def test_cli_list(capsys):
    from repro.runner.cli import main

    assert main(["list"]) == 0
    captured = capsys.readouterr()
    for preset in PRESETS:
        assert preset in captured.out


def test_runner_sweep_registration(tmp_path):
    from repro.runner.sweeps import SWEEPS

    search = SWEEPS["search"]
    result = search.run(preset="smoke", jobs=1,
                        store=ResultStore(tmp_path / "store"))
    assert result.preset == "smoke"
    headers, rows = search.table(result)
    assert rows
    assert headers[0] == "rank"
    # an iterative search has no static grid to enumerate
    with pytest.raises(ValueError, match="no static grid"):
        search.specs(preset="smoke")


def test_runner_cli_search_validates_presets(tmp_path, capsys):
    # the search declares --preset itself (it used to borrow --schemes,
    # and a regression there rejected every preset name): an unknown
    # preset is an argparse choice error naming the vocabulary, and
    # --schemes is not a search flag at all
    from repro.runner.cli import main

    for bad in (["--preset", "nonsense"], ["--schemes", "smoke"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "search", *bad,
                  "--results-dir", str(tmp_path / "store")])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "preset" in err and "smoke" in err

    rc = main(["run", "search", "--preset", "smoke", "--jobs", "1",
               "--quiet", "--results-dir", str(tmp_path / "store"),
               "--out", str(tmp_path / "SEARCH.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank" in out and "flowcell_bytes" in out
