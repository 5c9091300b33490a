"""Tests for the paper-fidelity validation subsystem (repro.validate).

Tier 1: invariant/probe units against fabricated evidence, the
``TestbedConfig(validate=True)`` opt-in on a plain (non-soak) run, the
report shape, and the oracles' argument validation through ``runner
run``.  Tier 2 (nightly): a real oracle subset end-to-end through the
CLI, ``runner_<oracle>.json`` and back.  (Verdict -> exit status and
contained cell crashes are pinned in ``tests/test_sweeps.py``.)
"""

import json

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.runner.cli import main as runner_main
from repro.runner.serialize import from_jsonable
from repro.units import msec
from repro.validate.invariants import (
    InvariantReport,
    InvariantViolation,
    ValidationProbe,
    bounded_transfers,
    byte_ledger,
)
from repro.validate.report import OracleReport

ORACLES = ("fct_ordering", "tournament_ordering", "gro_reordering", "failover")


# --- fabricated-evidence fixtures for the online probe ----------------------

class _FakeNic:
    def __init__(self):
        self.tx_segment = lambda seg: None
        self.on_segment = lambda seg: None


class _FakeGro:
    def __init__(self):
        self.merged_pkts = 0
        self._held = 0

    def held_packet_count(self):
        return self._held


class _FakeHost:
    def __init__(self, host_id):
        self.host_id = host_id
        self.nic = _FakeNic()
        self.gro = _FakeGro()


class _FakeTb:
    def __init__(self, n_hosts=2):
        self.hosts = [_FakeHost(i) for i in range(n_hosts)]


class _Seg:
    def __init__(self, flow_id, seq, end_seq, flowcell_id, pkt_count=1):
        self.flow_id = flow_id
        self.seq = seq
        self.end_seq = end_seq
        self.flowcell_id = flowcell_id
        self.pkt_count = pkt_count


# --- probe: flowcell monotonicity -------------------------------------------

def test_probe_accepts_monotone_flowcell_ids():
    tb = _FakeTb()
    probe = ValidationProbe(tb)
    tx = tb.hosts[0].nic.tx_segment
    for cell in (1, 1, 2, 2, 3):
        tx(_Seg(flow_id=9, seq=0, end_seq=100, flowcell_id=cell))
    assert probe.violations == []
    assert probe.segments_labelled == 5


def test_probe_flags_backwards_and_skipped_ids():
    tb = _FakeTb()
    probe = ValidationProbe(tb)
    tx = tb.hosts[0].nic.tx_segment
    tx(_Seg(flow_id=9, seq=0, end_seq=100, flowcell_id=1))
    tx(_Seg(flow_id=9, seq=0, end_seq=100, flowcell_id=2))
    tx(_Seg(flow_id=9, seq=0, end_seq=100, flowcell_id=1))  # backwards
    tx(_Seg(flow_id=9, seq=0, end_seq=100, flowcell_id=4))  # skips 1->4
    assert len(probe.violations) == 2
    assert "backwards" in probe.violations[0]
    assert "skipped" in probe.violations[1]


def test_probe_ignores_acks_and_tracks_flows_independently():
    tb = _FakeTb()
    probe = ValidationProbe(tb)
    tx = tb.hosts[0].nic.tx_segment
    tx(_Seg(flow_id=9, seq=100, end_seq=100, flowcell_id=999))  # ACK
    tx(_Seg(flow_id=1, seq=0, end_seq=100, flowcell_id=1))
    tx(_Seg(flow_id=2, seq=0, end_seq=100, flowcell_id=1))
    assert probe.violations == []
    assert probe.segments_labelled == 2


def test_probe_caps_recorded_violations():
    tb = _FakeTb()
    probe = ValidationProbe(tb)
    tx = tb.hosts[0].nic.tx_segment
    for i in range(ValidationProbe.MAX_RECORDED + 7):
        tx(_Seg(flow_id=9, seq=0, end_seq=100, flowcell_id=5 * (i + 1)))
    report = InvariantReport()
    probe.check(tb, report, require_drained=False)
    assert len(probe.violations) == ValidationProbe.MAX_RECORDED
    assert any("more flowcell violations" in v for v in report.violations)
    assert report.stats["flowcell_violations"] == ValidationProbe.MAX_RECORDED + 7


# --- probe: GRO packet conservation -----------------------------------------

def test_probe_gro_conservation_balanced():
    tb = _FakeTb()
    probe = ValidationProbe(tb)
    host = tb.hosts[1]
    host.gro.merged_pkts = 10
    host.nic.on_segment(_Seg(flow_id=1, seq=0, end_seq=100, flowcell_id=1,
                             pkt_count=7))
    host.gro._held = 3
    report = InvariantReport()
    probe.check(tb, report, require_drained=False)
    assert report.ok
    assert report.stats["gro_pkts_merged"] == 10
    assert report.stats["gro_pkts_pushed"] == 7
    assert report.stats["gro_pkts_held"] == 3


def test_probe_gro_conservation_violations():
    tb = _FakeTb()
    probe = ValidationProbe(tb)
    host = tb.hosts[1]
    host.gro.merged_pkts = 10
    host.nic.on_segment(_Seg(flow_id=1, seq=0, end_seq=100, flowcell_id=1,
                             pkt_count=5))
    host.gro._held = 2  # 5 + 2 != 10: packets vanished inside GRO
    report = InvariantReport()
    probe.check(tb, report, require_drained=True)
    assert not report.ok
    assert any("conservation violated" in v for v in report.violations)
    assert any("still holding" in v for v in report.violations)


# --- bounded-transfer detection ---------------------------------------------

def test_bounded_transfers_filters_unbounded_and_mice():
    class Bounded:
        size_bytes = 1000
        fct_ns = None

    class Unbounded:
        size_bytes = None
        fct_ns = None

    class MiceLike:  # periodic app: sized flows but no single fct_ns
        size_bytes = 1000

    bounded = Bounded()
    assert bounded_transfers([bounded, Unbounded(), MiceLike()]) == [bounded]


# --- TestbedConfig(validate=True) on a plain run ----------------------------

def _armed_testbed():
    tb = Testbed(TestbedConfig(scheme="presto", seed=1, validate=True))
    assert tb.validation is not None
    return tb


def test_validate_true_plain_run_passes_invariants():
    tb = _armed_testbed()
    tb.add_elephant(0, 2, size_bytes=256 * 1024)
    tb.run(msec(40))
    report = tb.last_invariant_report
    assert report is not None and report.ok
    assert report.stats["quiesced"] == 1
    assert report.stats["flows_stuck"] == 0
    assert report.stats["segments_labelled"] > 0
    assert report.stats["flowcell_violations"] == 0
    ledger = byte_ledger(tb)
    assert ledger["nic_tx"] == ledger["accounted"] > 0


def test_validate_true_mid_run_checkpoints_tolerate_in_flight():
    tb = _armed_testbed()
    tb.add_elephant(0, 2)  # unbounded: still sending at every horizon
    tb.run(msec(2))
    assert tb.last_invariant_report.ok
    assert tb.last_invariant_report.stats["in_flight"] >= 0
    tb.run(msec(4))
    assert tb.last_invariant_report.ok


def test_validate_true_raises_on_violation():
    tb = _armed_testbed()
    tb.add_elephant(0, 2, size_bytes=64 * 1024)
    tb.run(msec(20))
    assert tb.last_invariant_report.ok
    # fake a datapath accounting bug: bytes received that were never sent
    tb.hosts[0].nic.tx_bytes -= 1_000_000
    with pytest.raises(InvariantViolation, match="invariant violation"):
        tb.run(msec(21))
    assert not tb.last_invariant_report.ok


def test_validate_defaults_off_and_config_hash_unchanged():
    from repro.runner.serialize import to_jsonable

    tb = Testbed(TestbedConfig(scheme="presto", seed=1))
    assert tb.validation is None
    # armed-off configs must keep hashing like historic ones, or every
    # store entry ever written would go cold
    encoded = to_jsonable(TestbedConfig(scheme="presto", seed=1))
    assert "validate" not in encoded["fields"]


# --- report shapes -----------------------------------------------------------

def test_oracle_report_require_and_failures():
    report = OracleReport(oracle="demo", figure="fig0", seeds=(1, 2))
    report.require("good", True, detail="fine", x=1.5)
    report.require("bad", 0, detail="nope", y=2.0)
    assert not report.passed
    assert [c.name for c in report.failures()] == ["bad"]
    assert report.checks[1].passed is False  # coerced to bool
    assert report.checks[0].observed == {"x": 1.5}


# --- CLI argument validation --------------------------------------------------

def test_cli_list_names_all_oracles(capsys):
    assert runner_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ORACLES:
        assert name in out


@pytest.mark.parametrize("argv, fragment", [
    (["run"], "a sweep name is required"),
    (["run", "failover", "--scale", "x"], "bad --scale"),
    (["run", "bogus_oracle"], "unknown sweep"),
    (["run", "failover", "--jobs", "0"], "--jobs"),
    (["run", "failover", "--jobs", "-2"], "--jobs"),
    (["run", "failover", "--timeout", "0"], "--timeout"),
    (["run", "failover", "--timeout", "-1"], "--timeout"),
    (["run", "failover", "--scale", "0"], "--scale"),
    (["run", "failover", "--scale", "-0.5"], "--scale"),
    (["run", "failover", "--seeds", ""], "at least one seed"),
    (["run", "failover", "--seeds", "1,x"], "integers"),
])
def test_cli_run_rejects_bad_arguments(argv, fragment, capsys):
    assert runner_main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_run_oracles_validates_inputs():
    from repro.validate.oracles import FAILOVER

    with pytest.raises(ValueError, match="seed"):
        FAILOVER.run(seeds=())
    with pytest.raises(ValueError, match="scale"):
        FAILOVER.run(seeds=(1,), scale=0)
    with pytest.raises(TypeError, match="names"):
        FAILOVER.run(names=("failover",))


# --- tier 2: real oracles end-to-end -----------------------------------------

@pytest.mark.tier2
def test_cli_run_end_to_end_writes_validation_json(tmp_path):
    for oracle in ("gro_reordering", "failover"):
        rc = runner_main([
            "run", oracle,
            "--seeds", "1,2", "--scale", "0.3", "--jobs", "2",
            "--results-dir", str(tmp_path), "--quiet",
        ])
        assert rc == 0
        report = from_jsonable(json.loads(
            (tmp_path / f"runner_{oracle}.json").read_text())["data"])
        assert report.oracle == oracle and report.passed
        assert report.seeds == (1, 2)
        assert report.checks


@pytest.mark.tier2
def test_oracle_rerun_resumes_from_store(tmp_path, capsys):
    argv = [
        "run", "failover", "--seeds", "1", "--scale", "0.2", "--jobs", "1",
        "--results-dir", str(tmp_path),
    ]
    assert runner_main(argv) == 0
    first = capsys.readouterr().err
    assert "ok " in first
    assert runner_main(argv) == 0
    second = capsys.readouterr().err
    assert "cached" in second
