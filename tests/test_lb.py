"""Unit tests for the vSwitch and the per-scheme policies."""

import random
from pathlib import Path

import pytest

from repro.lb.base import VSwitch
from repro.lb.ecmp import Ecmp
from repro.lb.flowlet import Flowlet
from repro.lb.perpacket import PerPacket
from repro.lb.presto_ecmp import PrestoEcmp
from repro.net.addresses import host_mac
from repro.presto.flowcell import Presto
from repro.units import KB, usec

LABELS = [1001, 1002, 1003, 1004]


def vswitch(policy=None, seed=1):
    vs = VSwitch(0, policy, random.Random(seed))
    vs.set_schedule(3, LABELS)
    return vs


def label(vs, flow=1, size=10 * KB, dst=3, now=0):
    """One fresh segment of ``size`` bytes: (dst_mac, flowcell_id)."""
    return vs.label(flow, dst, size, size, now)


def test_base_defaults_to_real_mac():
    vs = VSwitch(0)
    assert label(vs, dst=5) == (host_mac(5), 1)


def test_base_schedule_validation():
    vs = VSwitch(0)
    with pytest.raises(ValueError):
        vs.set_schedule(3, [])


def test_schedule_observers_fire_after_every_install():
    vs = VSwitch(0)
    seen = []
    vs.on_schedule_change.append(lambda: seen.append(vs.labels_for(3)))
    vs.set_schedule(3, LABELS)
    vs.set_schedule(3, LABELS[:2])
    assert seen == [LABELS, LABELS[:2]]  # called with the new one in place


class TestEcmp:
    def test_sticky_per_flow(self):
        vs = vswitch(Ecmp())
        assert len({label(vs, flow=7)[0] for _ in range(20)}) == 1

    def test_different_flows_spread(self):
        vs = vswitch(Ecmp())
        assert {label(vs, flow=f)[0] for f in range(100)} == set(LABELS)


class TestFlowlet:
    def test_no_gap_no_switch(self):
        vs = vswitch(Flowlet(gap_ns=usec(500)))
        assert len({label(vs, now=usec(i))[0] for i in range(10)}) == 1

    def test_gap_switches_path_and_bumps_id(self):
        vs = vswitch(Flowlet(gap_ns=usec(500)))
        mac1, cell1 = label(vs, now=0)
        mac2, cell2 = label(vs, now=usec(600))
        assert mac2 != mac1
        assert cell2 == cell1 + 1

    def test_bad_gap_rejected(self):
        with pytest.raises(ValueError):
            Flowlet(gap_ns=0)


class TestPerPacket:
    def test_labeler_rotates_every_packet(self):
        vs = vswitch(PerPacket())
        assert label(vs) == (LABELS[0], 0)  # SPRAY: a placeholder, cell 0
        macs = [vs.spray(1, 3)[0] for _ in range(8)]
        # consecutive packets never repeat a path
        assert all(a != b for a, b in zip(macs, macs[1:]))

    def test_only_spraying_policies_arm_the_nic_hook(self):
        from repro.host.host import Host
        from repro.sim.engine import Simulator

        sim = Simulator()
        sprayer = Host(sim, 0, lb=vswitch(PerPacket()), model_cpu=False)
        assert sprayer.nic.packet_label == sprayer.lb.spray
        assert Host(sim, 1, lb=vswitch(Ecmp())).nic.packet_label is None


class TestPrestoEcmp:
    def test_keeps_real_mac_but_stamps_cells(self):
        vs = vswitch(PrestoEcmp())
        mac1, cell1 = label(vs, size=64 * KB)
        mac2, cell2 = label(vs, size=64 * KB)
        assert mac1 == mac2 == host_mac(3)
        assert cell2 == cell1 + 1


class TestPrestoModes:
    def test_rr_walks_schedule_in_order(self):
        vs = vswitch(Presto())
        macs = [label(vs, size=64 * KB)[0] for _ in range(8)]
        # strict rotation: every window of 4 covers all labels
        assert set(macs[:4]) == set(LABELS)
        assert macs[:4] == macs[4:8]

    def test_random_mode_stable_within_cell(self):
        vs = vswitch(Presto(mode="random"))
        first, second = label(vs), label(vs)
        assert first[1] == second[1]
        assert first[0] == second[0]  # same cell -> same label

    def test_random_mode_stable_within_cell_whatever_other_flows_do(self):
        """The draw for a flow's current cell lives on that flow's
        state record.  (It used to sit in a shared (flow, cell) memo
        that was *cleared* past 65 536 entries, re-drawing every other
        flow's current cell mid-cell; this drives past that bound.)"""
        vs = vswitch(Presto(threshold=100, mode="random"), seed=3)
        first = vs.label(1, 3, 10, 10, 0)
        for i in range(1, 65_600):  # flow 2: one 100-byte cell per call
            vs.label(2, 3, 100, 100 * i, 0)
        assert vs.flow(2).cell >= 65_599
        for seq in range(20, 101, 10):  # the rest of flow 1's first cell
            assert vs.label(1, 3, 10, seq, 0) == first

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Presto(mode="zigzag")

    def test_weighted_schedule_respected(self):
        """Duplicated labels get proportionally more flowcells."""
        from collections import Counter

        vs = VSwitch(0, Presto(), random.Random(1))
        vs.set_schedule(3, [1001, 1002, 1001, 1003])  # 1001 weighted 2x
        counts = Counter(label(vs, size=64 * KB)[0] for _ in range(40))
        assert counts[1001] == 2 * counts[1002] == 2 * counts[1003]


def test_label_sequences_match_the_parent_generated_golden():
    """tests/golden/lb_sequences.json was written by the nine
    ``select(seg)`` classes this seam replaced; every scheme's vSwitch
    must label the scripted stream identically, through a real
    ``Host.send_segment`` + TSO and through the fluid slicer's call."""
    import importlib.util

    root = Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "gen_golden", root / "tools" / "gen_golden.py")
    gen_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_golden)
    golden = (root / "tests" / "golden" / "lb_sequences.json").read_text()
    assert gen_golden.lb_sequences_text() == golden


class TestSchemeRegistry:
    def test_duplicate_name_error_names_first_registrant(self):
        """A collision must say which module owns the name, so the
        loser of the race knows what to rename."""
        from repro.experiments.schemes import Scheme, register

        with pytest.raises(ValueError) as exc:
            register(Scheme(name="diffflow", policy=lambda cfg: None))
        msg = str(exc.value)
        assert "diffflow" in msg
        assert "repro.experiments.schemes" in msg
        assert "pick another name" in msg

    def test_zoo_schemes_registered(self):
        from repro.experiments.schemes import scheme_names

        names = scheme_names()
        for scheme in ("diffflow", "repflow", "elephant_iso"):
            assert scheme in names

    def test_unknown_transport_rejected(self):
        from repro.experiments.schemes import Scheme, register

        with pytest.raises(ValueError, match="transport"):
            register(Scheme(name="zoo-test-bogus", policy=lambda cfg: None,
                            transport="udp"))
