"""CLI surfaces of the fidelity knob and the cross-fidelity compare
sweep.

Every sweep that takes ``--fidelity`` must reject an unknown value as
an argparse error (SystemExit 2) rather than deep inside a worker
process; the packet-only gro_reordering, and claims, whose rows fix
their own fidelity, have no ``--fidelity`` to set.  ``runner run
compare`` validates its inputs the same way and writes a
byte-deterministic report.
"""

import json

import pytest

from repro.runner.cli import main as runner_main


# --- satellite 6: unknown fidelity is an argparse error ----------------------


@pytest.mark.parametrize("argv", [
    ["run", "scalability", "--fidelity", "quantum"],
    ["run", "synthetic", "--fidelity", ""],
])
def test_runner_cli_rejects_unknown_fidelity(argv):
    with pytest.raises(SystemExit) as exc:
        runner_main(argv)
    assert exc.value.code == 2


def test_validate_cli_rejects_unknown_fidelity(capsys):
    # a claim row fixes its fidelity (fct_ordering_flow, failover_flow)
    with pytest.raises(SystemExit) as exc:
        runner_main(["run", "claims", "--fidelity", "quantum"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fidelity" in capsys.readouterr().err


def test_faults_cli_rejects_unknown_fidelity():
    with pytest.raises(SystemExit) as exc:
        runner_main(["run", "failure", "--fidelity", "quantum"])
    assert exc.value.code == 2


def test_validate_cli_refuses_packet_only_oracle_at_flow(capsys):
    # gro_reordering taps per-segment GRO delivery, which the fluid
    # engine does not model: there is no --fidelity to ask for flow
    with pytest.raises(SystemExit) as exc:
        runner_main(["run", "gro_reordering", "--fidelity", "flow",
                     "--no-store"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fidelity" in capsys.readouterr().err


def test_reorder_specs_refuse_flow_fidelity():
    from repro.experiments.gro_micro import GRO_REORDERING

    with pytest.raises(TypeError, match="takes seeds, scale"):
        GRO_REORDERING.specs([1], 1.0, "flow")


def test_run_oracles_default_set_skips_packet_only_at_flow():
    from repro.experiments.gro_micro import GRO_REORDERING
    from repro.validate.claims import CLAIMS

    # the flow-fidelity claims are rows of their own, and only the rows
    # whose sweep the fluid engine models have one
    assert {c.id for c in CLAIMS if c.params.get("fidelity") == "flow"} == {
        "fct_ordering_flow", "failover_flow"}
    with pytest.raises(TypeError):
        GRO_REORDERING.run(seeds=(1,), scale=0.1, fidelity="flow")


# --- runner run compare ------------------------------------------------------


def test_compare_cli_rejects_unknown_experiment(capsys):
    assert runner_main(["run", "compare", "--experiments", "warp"]) == 2
    assert "unknown experiment(s) warp" in capsys.readouterr().err


def test_compare_cli_rejects_bad_seeds(capsys):
    assert runner_main(["run", "compare", "--seeds", "one,two"]) == 2
    assert "bad --seeds" in capsys.readouterr().err


def test_compare_report_deterministic(tmp_path):
    """Two identical compare runs write byte-identical JSON: the
    divergence report carries no wall-clock, no dict-order noise."""
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    for out in (pa, pb):
        assert runner_main([
            "run", "compare", "--experiments", "scalability", "--seeds", "1",
            "--scale", "0.1", "--schemes", "presto", "--jobs", "1",
            "--no-store", "--quiet", "--results-dir", str(tmp_path),
            "--out", str(out)]) == 0
    assert pa.read_bytes() == pb.read_bytes()

    payload = json.loads(pa.read_text())
    assert payload["schema"] == "repro.fluid.compare/1"
    cell = payload["experiments"]["scalability"]["cells"]["presto/seed1"]
    for side in ("packet", "flow"):
        assert "fct_percentiles_ms" in cell[side]
        assert cell[side]["link_utilization"]
    div = cell["divergence"]
    assert "fct_p50_rel" in div
    assert "link_util_max_abs" in div
