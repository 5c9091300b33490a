"""Contracts of the sweep pipeline, parametrized over the registry
instead of copied per sweep or per CLI:

* spec identity — every sweep's ordered (label, fn, hash) job list
  equals ``tests/golden/sweep_specs.json``, which was generated at the
  commit *before* the sweeps were ported onto ``repro.runner.sweep``;
* one CLI contract — ``runner run <sweep>`` prints its table, the
  shared execution flags are rejected with one message everywhere they
  appear, artifact sweeps write -> ``--check`` -> name their drift;
* committed artifacts decode with ``from_jsonable``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.faults.cli import main as faults_main
from repro.runner.cli import main as runner_main
from repro.runner.serialize import from_jsonable
from repro.runner.sweeps import SWEEPS
from repro.service.cli import main as service_main
from repro.validate.cli import main as validate_main

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen_golden = _load_tool("gen_golden")
GOLDEN = json.loads((ROOT / "tests" / "golden" / "sweep_specs.json").read_text())


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
    assert runner_main(_run_argv(name, tmp_path)) == 0
    out = capsys.readouterr().out
    header, rule, *rows = out.rstrip("\n").split("\n")
    assert set(rule) <= set("-+") and rows
    saved = tmp_path / "results" / f"runner_{name}.txt"
    assert saved.read_text() == out
    payload = json.loads(
        (tmp_path / "results" / f"runner_{name}.json").read_text())
    assert payload["name"] == name and payload["table"] + "\n" == out
    from_jsonable(payload["data"])  # every payload decodes


DEAD_URL = "http://127.0.0.1:1"
#: every job-executing command, with arguments that would run it
COMMANDS = {
    **{f"runner run {name}": (runner_main, ["run", name]) for name in SWEEPS},
    "validate run": (validate_main, ["run", "--all"]),
    "faults soak": (faults_main, ["soak"]),
    "service submit": (service_main, ["submit", DEAD_URL, "scalability"]),
}
REJECTED = [
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--timeout", "0"], "--timeout must be positive, got 0.0"),
    (["--retries", "-1"], "--retries must be >= 0, got -1"),
    (["--seeds", "x"], "bad --seeds: must be comma-separated integers"),
]


@pytest.mark.parametrize("command, flags, message", [
    (command, flags, message)
    for command in COMMANDS for flags, message in REJECTED
    # the soak derives its per-case seeds from one --seed
    if not (command == "faults soak" and flags[0] == "--seeds")
])
def test_bad_flag_values_exit_2_with_the_shared_message(
        command, flags, message, capsys):
    main, argv = COMMANDS[command]
    assert main(argv + flags) == 2
    assert message in capsys.readouterr().err


def _reverse_standings(text):
    payload = json.loads(text)
    payload["fields"]["standings"].reverse()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: how to tamper with each artifact, and the drift `--check` must name
TAMPER = {
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


def test_runner_list_names_every_sweep_and_search_preset(capsys):
    from repro.search import PRESETS

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
