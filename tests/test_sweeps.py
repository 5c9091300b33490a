"""Contracts of the sweep pipeline, parametrized over the registry
instead of copied per sweep or per CLI:

* spec identity — every sweep's ordered (label, fn, hash) job list
  equals ``tests/golden/sweep_specs.json``, which was generated at the
  commit *before* each sweep was ported onto ``repro.runner.sweep``
  (``tools/gen_golden.py`` says which rows came from where);
* the ported paper figures compute what their hand loops computed
  (``tests/golden/figures.json``, also generated before the port);
* one CLI contract — ``runner run <sweep>`` prints its table, the
  shared execution flags are rejected with one message everywhere they
  appear, artifact sweeps write -> ``--check`` -> name their drift;
* verdicts and contained failures — a failed check or a crashed cell
  of a failure-finding sweep is a table row and exit 1, never a
  traceback; a plain sweep still raises;
* committed artifacts decode with ``from_jsonable``.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runner.cli import main as runner_main
from repro.runner.serialize import from_jsonable, ref_of, to_jsonable
from repro.runner.sweeps import SWEEPS
from repro.service.cli import main as service_main
from repro.units import MB, msec, usec

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen_golden = _load_tool("gen_golden")
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "sweep_specs.json").read_text())
FIGURES = json.loads((GOLDEN_DIR / "figures.json").read_text())


# --- spec identity -----------------------------------------------------------


def test_golden_cases_cover_every_sweep():
    assert list(GOLDEN) == list(gen_golden.SWEEP_CASES)
    assert {case.split()[0] for case in GOLDEN} == set(SWEEPS)
    # the bare name = the sweep at its declared defaults
    assert {name for name, sweep in SWEEPS.items()
            if sweep.cell is not None} <= set(GOLDEN)


@pytest.mark.parametrize("case", gen_golden.SWEEP_CASES)
def test_specs_match_parent_commit_golden(case):
    rows = [[spec.label, spec.fn, spec.hash]
            for spec in gen_golden.sweep_case_specs(case)]
    assert rows == GOLDEN[case]


def test_failure_cells_hash_explicit_packet_like_the_default():
    """``fidelity="packet"`` is the default: naming it must not move a
    failure-timeline cell's store key (it did — the extra ``cfg`` kwarg
    moved the hash even though the config inside normalized), and the
    ``failover`` claim runs the cells the failover oracle ran."""
    from repro.validate.claims import FAILURE_L1_L4

    failure = SWEEPS["failure"]
    default, packet, flow = (
        [spec.hash for spec in failure.specs(seeds=(1,), fidelity=fidelity)]
        for fidelity in (None, "packet", "flow"))
    assert default == packet != flow
    assert failure.specs(**FAILURE_L1_L4)[0].hash == "ee93b1095bf30ed6"


CLAIMS_CASE, = (case for case in GOLDEN if case.startswith("claims "))
#: the oracle sweeps' cells at the commit that replaced them with claim
#: rows, as tests/golden/sweep_specs.json pinned them then: the rows
#: must run exactly these cells, in this order, so their store records
#: stay warm
ORACLE_HASHES = (
    # fct_ordering
    "07b58ceebccd3118", "ad24d30d604ce62a", "7e1a73757b5b544c",
    "3f96d631bd15797b", "1b04c1e95bf8352e", "d7b898f250535eb8",
    "af3fe253c5a470de", "525d5ad4558e45e0", "0c1e8290d224c37c",
    # fct_ordering --fidelity flow
    "6264a7bb4ffd194c", "f9ab6ea04d780cbd", "c77251bcb1ac4057",
    "6a1c5757fe5c38e5", "f7c6f381df41ee6b", "29da65c1b0a03147",
    "0f5fad5519a95723", "fcc6dde3a8637976", "e3b7a351d4d2dbe2",
    # failover, then failover --fidelity flow
    "ee93b1095bf30ed6", "e02caeef39811428", "7164ce88f59b0652",
    "8c142aac2cb9e892", "168579180ca735a1", "bb804d790cc9db05",
)


def test_claim_rows_run_the_oracle_cells():
    assert CLAIMS_CASE.split()[2].startswith(
        "fct_ordering,fct_ordering_flow,failover,failover_flow,")
    hashes = tuple(row[2] for row in GOLDEN[CLAIMS_CASE])
    assert hashes[:len(ORACLE_HASHES)] == ORACLE_HASHES


def test_run_regroups_results_in_spec_order():
    """``run`` hands the reducer each grid point with exactly its own
    per-seed results — the one regroup loop every sweep relies on."""
    from repro.experiments.oversub import OVERSUB
    from repro.units import msec

    grid = OVERSUB.run(("presto", "ecmp"), (2, 4), (1, 2),
                       msec(1), msec(1), with_probes=False)
    assert list(grid) == ["presto", "ecmp"]
    assert [[pt.n_pairs for pt in pts] for pts in grid.values()] == [[2, 4]] * 2
    with pytest.raises(TypeError, match="no_such_knob"):
        OVERSUB.specs(no_such_knob=1)


# --- the ported figures compute what the hand loops computed ----------------


def _failure_bars(workloads):
    """``run_figure17/18``'s return shape, read off the timelines."""
    from repro.experiments.failure import STAGES, stage_rtts_ns, stage_tput_bps

    def view(grid):
        bars = {(stage, workload): dict(
                    stage=stage, workload=workload,
                    mean_tput_bps=stage_tput_bps(timelines, stage),
                    rtts_ns=stage_rtts_ns(timelines, stage))
                for workload, timelines in grid.items() for stage in STAGES}
        return bars if workloads else {stage: bar
                                       for (stage, _), bar in bars.items()}
    return view


def _fig5_curves(results):
    """Each two-path cell projected onto the seven fields the golden
    holds: ``run_fig5`` returned only those when it was generated."""
    fields = ("gro", "throughput_bps", "cpu_utilization", "ooo_counts",
              "segment_sizes", "retx_bytes", "fast_retransmits")
    return {gro: {name: getattr(cell, name) for name in fields}
            for gro, cell in results.items()}


_TINY_NS = dict(warm_ns=msec(1), measure_ns=msec(3))
#: figures.json key -> (sweep, the arguments the parent's hand loop was
#: given when the golden was generated, new payload -> the loop's return
#: shape where the port changed it)
PORTED = {
    "flowlet_cmp": ("flowlet_cmp", dict(
        schemes=("flowlet500us", "presto"), seeds=(1,), **_TINY_NS), None),
    "perhop_cmp": ("perhop_cmp", dict(
        schemes=("presto_ecmp",), seeds=(1, 2), **_TINY_NS), None),
    "trace": ("trace", dict(
        schemes=("ecmp", "presto"), seeds=(1, 2), duration_ns=msec(4)), None),
    "northsouth": ("northsouth", dict(
        schemes=("ecmp", "optimal"), seeds=(1,), **_TINY_NS), None),
    "gro_micro": ("gro_micro", dict(duration_ns=msec(3), seed=0),
                  _fig5_curves),
    "cpu_overhead": ("cpu_overhead", dict(
        duration_ns=msec(2), sample_ns=msec(1), seed=0), None),
    "flowlet_sizes": ("flowlet_sizes", dict(
        max_competing=1, transfer_bytes=1 * MB, gap_ns=usec(500),
        duration_ns=msec(4)), None),
    "failure_fig17": ("failure", dict(
        workloads=("L1->L4",), seeds=(1, 2), **_TINY_NS),
        _failure_bars(workloads=True)),
    "failure_fig18": ("failure", dict(
        workloads=("bijection",), seeds=(1,), with_probes=True, **_TINY_NS),
        _failure_bars(workloads=False)),
    "compare": ("compare", dict(seeds=(1,), scale=0.1), None),
}


def _untag(encoded):
    """``to_jsonable`` output minus the dataclass names: two result
    classes that merged still compare field for field."""
    if isinstance(encoded, list):
        return [_untag(v) for v in encoded]
    if isinstance(encoded, dict):
        inner = encoded["fields"] if "__dataclass__" in encoded else encoded
        return {k: _untag(v) for k, v in inner.items()}
    return encoded


def test_every_parent_generated_figure_is_checked():
    assert set(PORTED) == set(FIGURES)


@pytest.mark.parametrize("figure", list(PORTED))
def test_ported_figure_computes_what_the_hand_loop_computed(figure):
    name, arguments, view = PORTED[figure]
    payload = SWEEPS[name].run(jobs=1, **arguments)
    if view is not None:
        payload = view(payload)
    assert _untag(to_jsonable(payload)) == _untag(FIGURES[figure])


# --- one CLI contract --------------------------------------------------------

TINY_CLOS = "clos:spines=2,leaves=2,hosts=2"
_TINY_WINDOWS = ["--seeds", "1", "--warm-ms", "1", "--measure-ms", "2"]
_TINY_FABRIC = ["--topology", TINY_CLOS, "--schemes", "ecmp,presto",
                "--workloads", "websearch", "--seeds", "1",
                "--duration-ms", "1"]
#: the smallest run of each sweep
TINY = {
    "scalability": ["--schemes", "presto", "--points", "2", *_TINY_WINDOWS],
    "oversub": ["--schemes", "presto", "--points", "2", *_TINY_WINDOWS],
    "synthetic": ["--schemes", "presto", *_TINY_WINDOWS],
    "fabric": _TINY_FABRIC,
    "tournament": _TINY_FABRIC,
    "search": ["--preset", "smoke"],
    "flowlet_sizes": ["--max-competing", "1", "--transfer-bytes", "262144",
                      "--duration-ms", "2"],
    "gro_micro": ["--duration-ms", "1"],
    "cpu_overhead": ["--duration-ms", "1", "--sample-ms", "0.5"],
    "flowlet_cmp": ["--schemes", "presto", *_TINY_WINDOWS],
    "perhop_cmp": ["--schemes", "presto_ecmp", *_TINY_WINDOWS],
    "trace": ["--schemes", "presto", "--seeds", "1", "--duration-ms", "2"],
    "northsouth": ["--schemes", "presto", *_TINY_WINDOWS],
    "failure": ["--workloads", "L1->L4", "--seeds", "1", "--warm-ms", "1",
                "--measure-ms", "3"],
    "gro_reordering": ["--seeds", "1", "--scale", "0.1"],
    # the cheapest row: three flow-fidelity failure timelines
    "claims": ["--claims", "failover_flow"],
    "soak": ["--cases", "1", "--seed", "1"],
    "compare": ["--experiments", "scalability", "--schemes", "presto",
                "--seeds", "1", "--scale", "0.05"],
    "ablations": ["--studies", "timeout", *_TINY_WINDOWS],
}
ARTIFACT_SWEEPS = [name for name, sweep in SWEEPS.items() if sweep.artifact]


def _run_argv(name, tmp_path):
    argv = ["run", name, *TINY[name], "--jobs", "1", "--quiet",
            "--results-dir", str(tmp_path / "results")]
    if SWEEPS[name].artifact:
        argv += ["--out", str(tmp_path / "ARTIFACT.json")]
    return argv


def test_tiny_parameters_cover_every_sweep():
    assert set(TINY) == set(SWEEPS)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_run_prints_its_table(name, tmp_path, capsys):
    status = runner_main(_run_argv(name, tmp_path))
    out = capsys.readouterr().out
    header, rule, *rows = out.rstrip("\n").split("\n")
    assert set(rule) <= set("-+") and rows
    saved = tmp_path / "results" / f"runner_{name}.txt"
    assert saved.read_text() == out
    payload = json.loads(
        (tmp_path / "results" / f"runner_{name}.json").read_text())
    assert payload["name"] == name and payload["table"] + "\n" == out
    # every payload decodes, and the exit status is its own verdict
    verdict = SWEEPS[name].ok(from_jsonable(payload["data"]))
    assert status == (0 if verdict else 1)


DEAD_URL = "http://127.0.0.1:1"
#: every job-executing command, with arguments that would run it (the
#: sweep is the last one): `runner run` of every registered sweep, and
#: `service submit`.  Validation and the soak had CLIs of their own
#: until PR 14; their commands keep those names.
COMMANDS = {
    "validate run": (runner_main, ["run", "claims"]),
    "faults soak": (runner_main, ["run", "soak"]),
    "service submit": (service_main, ["submit", DEAD_URL, "scalability"]),
    **{f"runner run {name}": (runner_main, ["run", name]) for name in SWEEPS
       if name not in ("claims", "soak")},
}
#: the number each command's first rejected flag had in its test id
#: when ids were positional; the command's later flags count on from
#: it, so adding or deleting a sweep moves no other command's ids
FIRST_ID = {
    "runner run scalability": 0, "runner run oversub": 4,
    "runner run synthetic": 8, "runner run fabric": 12,
    "runner run tournament": 16, "runner run search": 20,
    "validate run": 24, "faults soak": 28, "service submit": 31,
    "runner run flowlet_sizes": 35, "runner run gro_micro": 38,
    "runner run cpu_overhead": 41, "runner run flowlet_cmp": 44,
    "runner run perhop_cmp": 48, "runner run trace": 52,
    "runner run northsouth": 56, "runner run failure": 60,
    "runner run gro_reordering": 68, "runner run compare": 76,
    "runner run ablations": 80,
}
REJECTED = [
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--timeout", "0"], "--timeout must be positive, got 0.0"),
    (["--retries", "-1"], "--retries must be >= 0, got -1"),
    (["--seeds", "x"], "bad --seeds: must be comma-separated integers"),
]


#: `service submit` declares no execution flag but --force (none of the
#: others could act on a coordinator): argparse refuses them by name
SUBMIT_REJECTED = [
    (["--jobs", "0"], "--jobs 0"),
    (["--timeout", "0"], "--timeout 0"),
    (["--retries", "-1"], "--retries -1"),
    REJECTED[3],
]


def _rejections():
    for command, (_, argv) in COMMANDS.items():
        cases = [
            (flags, message) for flags, message in (
                SUBMIT_REJECTED if command == "service submit" else REJECTED)
            # a sweep with no seeds axis has no --seeds (the soak derives
            # its per-case seeds from one --seed; Figs 1/5/6 take one
            # seed; a claim row fixes its own)
            if any(p.flag == flags[0] for p in SWEEPS[argv[-1]].params)
            or flags[0] != "--seeds"]
        for n, (flags, message) in enumerate(cases, FIRST_ID[command]):
            yield pytest.param(command, flags, message,
                               id=f"{command}-flags{n}-{message}")


@pytest.mark.parametrize("command, flags, message", list(_rejections()))
def test_bad_flag_values_exit_2_with_the_shared_message(
        command, flags, message, capsys):
    main, argv = COMMANDS[command]
    try:
        status = main(argv + flags)
    except SystemExit as exc:  # argparse's own exit, for an unknown flag
        status = exc.code
    assert status == 2
    assert message in capsys.readouterr().err


def test_every_sweep_rejects_bad_flag_values():
    assert {argv[-1] for main, argv in COMMANDS.values()
            if main is runner_main} == set(SWEEPS)
    assert set(FIRST_ID) == set(COMMANDS)


def _reverse_standings(text):
    payload = json.loads(text)
    payload["fields"]["standings"].reverse()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _perturb_divergence(text):
    payload = json.loads(text)
    cell = payload["experiments"]["scalability"]["cells"]["presto/seed1"]
    cell["divergence"]["agg_rel"] = 9.0
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: how to tamper with each artifact, and the drift `--check` must name
TAMPER = {
    "compare": (_perturb_divergence, "scalability/presto/seed1 agg_rel "
                                     "drifted: committed 9.0 != new "),
    "tournament": (_reverse_standings, "ranking drifted: committed ["),
    "search": (lambda text: text.replace('"smoke"', '"broke"', 1),
               "preset drifted: committed 'broke' != new 'smoke'"),
}


def test_every_artifact_sweep_has_a_tamper_case():
    assert set(TAMPER) == set(ARTIFACT_SWEEPS)


@pytest.mark.parametrize("name", ARTIFACT_SWEEPS)
def test_artifact_write_check_tamper(name, tmp_path, capsys):
    artifact = SWEEPS[name].artifact
    out, md = tmp_path / "ARTIFACT.json", tmp_path / "REPORT.md"
    argv = _run_argv(name, tmp_path) + ["--markdown", str(md)]
    assert runner_main(argv) == 0
    written = out.read_text()
    assert written.endswith("\n")
    # the bytes decode back to the result they came from
    assert artifact.to_json(from_jsonable(json.loads(written))) == written
    assert md.read_text().startswith("# ")

    capsys.readouterr()
    assert runner_main(argv + ["--check"]) == 0
    assert "reproduced byte-for-byte" in capsys.readouterr().err
    assert out.read_text() == written  # --check never writes

    tamper, drift = TAMPER[name]
    out.write_text(tamper(written))
    assert runner_main(argv + ["--check"]) == 1
    err = capsys.readouterr().err
    assert drift in err and "drifted from this run" in err

    out.unlink()
    assert runner_main(argv + ["--check"]) == 1
    assert "cannot read" in capsys.readouterr().err


# --- verdicts and contained failures -----------------------------------------


def job_crashes(cfg=None, **kwargs):
    raise RuntimeError("cell exploded")


def _crashing_at(sweep, *bad):
    """``sweep`` with the cell at grid point ``bad`` swapped for one
    that raises."""
    def cell(*args):
        spec = sweep.cell(*args)
        return (replace(spec, fn=ref_of(job_crashes))
                if args[:len(bad)] == bad else spec)

    return replace(sweep, cell=cell)


def test_soak_contains_a_crashed_case(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(SWEEPS, "soak", _crashing_at(SWEEPS["soak"], 1))
    report = SWEEPS["soak"].run(n_cases=3, base_seed=1)
    assert [r is None for r in report.results] == [False, True, False]
    assert "cell exploded" in report.errors[1]
    assert report.errors[0] is report.errors[2] is None
    assert not report.ok

    assert runner_main(["run", "soak", "--cases", "3", "--seed", "1",
                        "--jobs", "1", "--quiet", "--no-store",
                        "--results-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    verdicts = [row.split(" | ")[2].strip()
                for row in captured.out.rstrip("\n").split("\n")[2:]]
    assert verdicts == ["ok", "JOB-FAILED", "ok"]
    assert "Traceback" not in captured.err
    assert "own checks FAILED" in captured.err
    assert (tmp_path / "runner_soak.json").exists()
    assert not (tmp_path / "store").exists()  # --no-store


def _tiny_claims(monkeypatch, check):
    """Two cheap claim rows over gro_reordering in place of the table,
    both checked by ``check``: ``crashes`` (its perpacket cell raises)
    and ``judged``."""
    from repro.validate import claims

    tiny = dict(seeds=(1,), scale=0.05)
    monkeypatch.setattr(claims, "CLAIMS", tuple(
        claims.Claim(cid, "Fig 0", sweep, tiny, check)
        for cid, sweep in (("crashes", "crashing"),
                           ("judged", "gro_reordering"))))
    monkeypatch.setitem(SWEEPS, "crashing", _crashing_at(
        SWEEPS["gro_reordering"], "perpacket"))


def test_oracle_contains_a_crashed_cell_as_a_failed_check(monkeypatch):
    """A claim row whose sweep raises is one failed ``jobs_completed``
    check carrying the error; the rows after it are still judged."""
    _tiny_claims(monkeypatch, lambda stats, v: v.require("ran", True))
    crashed, judged = SWEEPS["claims"].run(claims=("crashes", "judged"))
    assert [c.name for c in crashed.checks] == ["jobs_completed"]
    check, = crashed.failures()
    assert "gro_reordering/perpacket/seed1: " in check.observed["error"]
    assert "cell exploded" in check.observed["error"]
    assert [c.name for c in judged.checks] == ["ran"] and judged.passed
    assert not SWEEPS["claims"].ok([crashed, judged])


def test_plain_sweep_still_raises_on_a_crashed_cell():
    sweep = _crashing_at(SWEEPS["scalability"], "presto", 2)
    with pytest.raises(RuntimeError, match=r"1 job\(s\) failed: "
                       "scalability/presto/paths2/seed1: .*cell exploded"):
        sweep.run(("presto", "ecmp"), (2,), (1,), msec(1), msec(1))


def test_failed_verdict_prints_table_writes_json_and_exits_1(
        monkeypatch, tmp_path, capsys):
    """A failing check is a result, not an error: the table and
    ``runner_<sweep>.json`` carry the evidence, the exit status the
    verdict."""
    _tiny_claims(monkeypatch,
                 lambda stats, v: v.require("impossible", False, needed=1.0))
    assert runner_main(["run", "claims", "--claims", "judged",
                        "--jobs", "1", "--quiet",
                        "--results-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "impossible" in out and "FAIL" in out and "needed=1" in out
    saved, = from_jsonable(json.loads(
        (tmp_path / "runner_claims.json").read_text())["data"])
    assert [c.name for c in saved.failures()] == ["impossible"]


def test_runner_list_names_every_sweep_and_search_preset(capsys):
    from repro.search.driver import PRESETS

    assert runner_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in list(SWEEPS) + list(PRESETS):
        assert name in out


# --- committed artifacts -----------------------------------------------------


def test_committed_artifacts_carry_importable_dataclass_tags():
    """An artifact written by a ``python -m <module>`` entry point tags
    its dataclasses ``__main__:``, which ``from_jsonable`` cannot
    resolve; sweeps run only through ``repro.runner`` now."""
    artifacts = sorted(ROOT.glob("*.json"))
    assert ROOT / "TOURNAMENT.json" in artifacts
    for path in artifacts:
        assert '"__main__:' not in path.read_text(), path.name


@pytest.mark.parametrize("name", ARTIFACT_SWEEPS)
def test_committed_artifact_round_trips(name):
    artifact = SWEEPS[name].artifact
    text = (ROOT / artifact.path).read_text()
    assert artifact.to_json(from_jsonable(json.loads(text))) == text
