#!/usr/bin/env python
"""Using the library below the experiment harness: hand-built topology,
custom spanning trees, and a from-scratch Presto deployment.

This is the "library user" path rather than the "reproduce the paper"
path: write any fabric down as tiers of switches plus the links between
them, let the controller carve spanning trees and push label schedules,
then attach your own traffic.

Run:  python examples/custom_topology.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.host.app import BulkApp, FlowIdAllocator
from repro.host.gro import PrestoGro
from repro.host.host import Host
from repro.host.tcp import TcpConfig
from repro.lb.base import VSwitch
from repro.net.fabrics import Wiring, build_fabric
from repro.net.routing import tree_root
from repro.presto.controller import PrestoController
from repro.presto.flowcell import Presto
from repro.sim.engine import Simulator
from repro.units import gbps, msec, usec


def main() -> None:
    print(__doc__)
    sim = Simulator()

    # The wiring plan: 2 leaves under 3 spines, every leaf linked to
    # every spine, 25 Gbps links.  ("clos:spines=3,leaves=2" builds the
    # same fabric; any stack of tiers works — see tests/test_fabrics.py.)
    leaves, spines = ("L1", "L2"), ("S1", "S2", "S3")
    plan = Wiring(tiers=(leaves, spines),
                  links=tuple((leaf, spine)
                              for leaf in leaves for spine in spines))
    topo = build_fabric(sim, plan, rate_bps=gbps(25))

    tcp = TcpConfig(min_rto_ns=msec(20), initial_rto_ns=msec(20))
    hosts = []
    for host_id in range(6):
        host = Host(
            sim, host_id,
            lb=VSwitch(host_id, Presto()),  # the vSwitch + what it decides
            gro=PrestoGro(),
            tcp_cfg=tcp,
        )
        leaf = topo.tiers[0][host_id // 3]
        topo.attach_host(host, leaf, rate_bps=gbps(25))
        hosts.append(host)

    # The controller: spanning trees (one per spine), shadow-MAC routes,
    # and per-destination label schedules pushed to every vSwitch.
    controller = PrestoController(topo)
    for host in hosts:
        controller.register_vswitch(host.lb)
    topo.install_underlay()

    print("spanning trees (up-port index per tier -> root): "
          f"{[(t.up, tree_root(topo, t).name) for t in controller.trees]}")
    print(f"host 0 -> host 3 schedule: "
          f"{[hex(l) for l in hosts[0].lb.labels_for(3)]}\n")

    # Three cross-fabric elephants.
    flow_ids = FlowIdAllocator()
    apps = [
        BulkApp(sim, hosts[i], hosts[3 + i], flow_ids.next(),
                start_ns=i * usec(100))
        for i in range(3)
    ]
    duration = msec(25)
    sim.run(until=duration)

    for i, app in enumerate(apps):
        rate = app.delivered_bytes() * 8 / (duration / 1e9) / 1e9
        print(f"elephant h{i} -> h{3 + i}: {rate:5.2f} Gbps")
    drops = sum(port.dropped_pkts
                for sw in topo.switches.values() for port in sw.ports)
    print(f"switch queue drops: {drops}")

    # Fail a link and let the controller reweight, live.
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.set_down()
    controller.push_all()
    print(f"\nafter S1-L1 failure, h0 -> h3 schedule: "
          f"{[hex(l) for l in hosts[0].lb.labels_for(3)]}")
    sim.run(until=duration + msec(15))
    for i, app in enumerate(apps):
        rate = app.delivered_bytes() * 8 / ((duration + msec(15)) / 1e9) / 1e9
        print(f"elephant h{i} -> h{3 + i}: {rate:5.2f} Gbps (incl. failure period)")


if __name__ == "__main__":
    main()
