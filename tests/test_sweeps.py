"""Contracts of the sweep pipeline, parametrized over the registry
instead of copied per sweep or per CLI:

* spec identity — every sweep's ordered (label, fn, hash) job list
  equals ``tests/golden/sweep_specs.json``, which was generated at the
  commit *before* each sweep was ported onto ``repro.runner.sweep``
  (``tools/gen_golden.py`` says which rows came from where);
* each ported paper figure's sweep still makes its entry of
  ``tests/golden/figures.json``, a row of the one ``PINNED`` table;
* one CLI contract — ``runner run <sweep>`` prints its table, the
  shared execution flags are rejected with one message everywhere they
  appear, artifact sweeps write -> ``--check`` -> print what moved;
* verdicts and contained failures — a failed check or a crashed cell
  of a failure-finding sweep is a table row and exit 1, never a
  traceback; a plain sweep still raises;
* committed artifacts decode with ``from_jsonable``, and ``movement``
  names each leaf that moved between two artifacts.
"""

import json
from dataclasses import replace

import pytest

from repro.runner.cli import main as runner_main
from repro.runner.jobspec import cell
from repro.runner.serialize import (MOVEMENT_LINES, artifact_json,
                                    from_jsonable, movement, ref_of,
                                    to_jsonable)
from repro.runner.sweeps import SWEEPS
from repro.service.cli import main as service_main
from repro.units import msec
from tests.gen_golden_tool import ROOT, gen_golden

GOLDEN = json.loads((ROOT / "tests/golden/sweep_specs.json").read_text())


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


def test_search_first_rung_rows_are_what_run_search_submits(monkeypatch):
    """The ``search (first rung)`` rows pin the driver: ``run_search``
    itself, stopped at its first ``outcomes`` call, submits them."""
    from repro.runner.sweep import SweepOptions
    from repro.search.driver import PRESETS, run_search

    class FirstRung(Exception):
        pass

    def record(options, specs):
        submitted.extend([spec.label, spec.fn, spec.hash] for spec in specs)
        raise FirstRung

    monkeypatch.setattr(SweepOptions, "outcomes", record)
    for preset in ("paper", "smoke"):
        submitted = []
        with pytest.raises(FirstRung):
            run_search(PRESETS[preset])
        assert submitted == GOLDEN[f"search --preset {preset} (first rung)"]


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
    assert list(grid) == [
        ("presto", 2), ("presto", 4), ("ecmp", 2), ("ecmp", 4)]
    with pytest.raises(TypeError, match="no_such_knob"):
        OVERSUB.specs(no_such_knob=1)


# --- the ported figures: one pinned row --------------------------------------

FIGURES_ROW = "tests/golden/figures.json"


@pytest.mark.parametrize("figure", list(gen_golden.PORTED))
def test_ported_figure_computes_what_the_hand_loop_computed(figure):
    """The figure's sweep, run by the generator of its ``PINNED`` row,
    still makes its entry of ``figures.json``.  When the row was first
    generated, its entries were checked to hold what the figures' hand
    loops computed before they were ported onto sweeps."""
    pinned = json.loads((ROOT / FIGURES_ROW).read_text())[figure]
    new = to_jsonable(gen_golden.figure_payload(figure))
    assert new == pinned, "\n".join([
        f"paper figure {figure!r} moved; if intentional, re-pin with "
        f"python tools/gen_golden.py {FIGURES_ROW} and review the diff",
        *movement(pinned, new)])


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


#: how to tamper with each artifact, and the start of the movement
#: line `--check` must print for the leaf that moved
TAMPER = {
    "compare": (_perturb_divergence, "experiments.scalability.cells."
                                     "presto/seed1.divergence.agg_rel: "
                                     "9.0 -> "),
    "tournament": (_reverse_standings, "standings[0].scheme: '"),
    "search": (lambda text: text.replace('"smoke"', '"broke"', 1),
               "preset: 'broke' -> 'smoke'"),
}


def test_every_artifact_sweep_has_a_tamper_case():
    assert set(TAMPER) == set(ARTIFACT_SWEEPS)


@pytest.mark.parametrize("name", ARTIFACT_SWEEPS)
def test_artifact_write_check_tamper(name, tmp_path, capsys):
    out, md = tmp_path / "ARTIFACT.json", tmp_path / "REPORT.md"
    argv = _run_argv(name, tmp_path) + ["--markdown", str(md)]
    assert runner_main(argv) == 0
    written = out.read_text()
    assert written.endswith("\n")
    # the bytes decode back to the result they came from
    assert artifact_json(from_jsonable(json.loads(written))) == written
    assert md.read_text().startswith("# ")

    capsys.readouterr()
    assert runner_main(argv + ["--check"]) == 0
    assert "reproduced byte-for-byte" in capsys.readouterr().err
    assert out.read_text() == written  # --check never writes

    tamper, leaf = TAMPER[name]
    out.write_text(tamper(written))
    assert runner_main(argv + ["--check"]) == 1
    err = capsys.readouterr().err
    moved = movement(json.loads(tamper(written)), json.loads(written))
    assert any(line.startswith(leaf) for line in moved), moved
    for line in moved:
        assert f"--check: {line}\n" in err
    assert "drifted from this run" in err

    out.unlink()
    assert runner_main(argv + ["--check"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_check_against_a_file_that_is_not_json_says_so(tmp_path, capsys):
    argv = _run_argv("tournament", tmp_path) + ["--check"]
    out = tmp_path / "ARTIFACT.json"
    out.write_text("not json\n")
    assert runner_main(argv) == 1
    err = capsys.readouterr().err
    assert f"--check: {out} is not JSON (Expecting value" in err
    assert out.read_text() == "not json\n"


# --- verdicts and contained failures -----------------------------------------


@cell
def job_crashes(cfg=None, **kwargs):
    raise RuntimeError("cell exploded")


def _crashing_at(sweep, *bad):
    """``sweep`` with the cell at grid point ``bad`` swapped for one
    that raises."""
    def crashing(*args):
        spec = sweep.cell(*args)
        return (replace(spec, fn=ref_of(job_crashes))
                if args[:len(bad)] == bad else spec)

    return replace(sweep, cell=crashing)


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
    text = (ROOT / SWEEPS[name].artifact.path).read_text()
    assert artifact_json(from_jsonable(json.loads(text))) == text


def _row(tag="repro.x:Row", **fields):
    """A dataclass as ``to_jsonable`` encodes it."""
    return {"__dataclass__": tag, "fields": fields}


def test_movement_names_each_leaf_non_numbers_first_then_by_size():
    old = {"preset": "paper", "ok": True, "gone": 1,
           "seeds": {"__tuple__": [1, 2]},
           "rates": {"__dict__": [[7, 5.0], [9, 4.0]]},
           "standings": [_row(scheme="presto", fct=100.0, wins=0)]}
    new = {"preset": "smoke", "ok": False, "fresh": None,
           "seeds": {"__tuple__": [1, 3]},
           "rates": {"__dict__": [[7, 5.0], [9, 2.0]]},
           "standings": [_row(scheme="ecmp", fct=90.0, wins=2),
                         _row("repro.y:Row", scheme="mptcp")]}
    assert movement(old, new) == [
        "fresh: added",
        "gone: removed",
        "ok: True -> False",
        "preset: 'paper' -> 'smoke'",
        "standings: length 1 -> 2",
        "standings[0].scheme: 'presto' -> 'ecmp'",
        "standings[0].wins: 0 -> 2 (+inf%)",
        # -50 % and +50 % tie on size: path order decides
        "rates.9: 4.0 -> 2.0 (-50.00%)",
        "seeds[1]: 2 -> 3 (+50.00%)",
        "standings[0].fct: 100.0 -> 90.0 (-10.00%)",
    ]
    # the class tag is a leaf of its own; equal documents say nothing
    assert movement(_row(a=1), _row("repro.y:Row", a=1)) == [
        "__dataclass__: 'repro.x:Row' -> 'repro.y:Row'"]
    assert movement(old, old) == []


def test_movement_caps_its_lines_keeping_the_largest():
    old = {f"k{i:02d}": 100 for i in range(25)}
    new = {f"k{i:02d}": 100 + i + 1 for i in range(25)}
    lines = movement(old, new)
    assert len(lines) == MOVEMENT_LINES + 1
    assert lines[0] == "k24: 100 -> 125 (+25.00%)"
    assert lines[MOVEMENT_LINES - 1] == "k05: 100 -> 106 (+6.00%)"
    assert lines[-1] == "… and 5 more"
