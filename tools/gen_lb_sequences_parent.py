#!/usr/bin/env python
"""Where tests/golden/lb_sequences.json came from: the script and
format of ``tools/gen_golden.py lb_sequences``, driven through the
``select(seg)`` / ``packet_labeler()`` / ``_Probe`` API that the
vSwitch/policy seam replaced.  It imports only against the last commit
that had that API (0758d1e), so it takes that checkout's ``src``::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q 0758d1e
    python tools/gen_lb_sequences_parent.py /tmp/parent/src \\
        | cmp - tests/golden/lb_sequences.json
"""

import os
import random
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.abspath(sys.argv[1]))
import repro  # noqa: E402,F401  (the parent's: bound before gen_golden's path edit)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen_golden  # noqa: E402

from repro.experiments.harness import TestbedConfig  # noqa: E402
from repro.experiments.schemes import get_scheme  # noqa: E402
from repro.fluid.engine import _Probe  # noqa: E402
from repro.net.addresses import mac_str  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402


def make_lb(name, knobs, sim):
    lb = get_scheme(name).make_lb(
        TestbedConfig(scheme=name, **knobs), 0, random.Random(7), sim)
    if not hasattr(lb, "pair"):
        lb.pair = lambda primary, replica: None
    return lb


def cell_sequence(lb, clock):
    """The fluid slicer's old call pattern: one reused ``_Probe`` per
    flow, ``select()`` then the per-packet labeler."""
    labeler = lb.packet_labeler()
    probes = {}
    rows = []
    for kind, at, *args in gen_golden.lb_script():
        clock.now = at
        if kind == "seg":
            flow, dst, seq, nbytes = args
            probe = probes.get(flow)
            if probe is None:
                probe = probes[flow] = _Probe(flow, 0, dst, nbytes)
            probe.payload_len = nbytes
            probe.seq = seq
            probe.end_seq = seq + nbytes
            lb.select(probe)
            if labeler is not None:
                labeler(probe)
            rows.append([mac_str(probe.dst_mac), probe.flowcell_id])
        else:
            {"sched": lb.set_schedule, "pair": lb.pair}[kind](*args)
    return rows


def sequences(name, knobs):
    sim, clock = Simulator(), SimpleNamespace(now=0)
    return (gen_golden.lb_host_sequence(make_lb(name, knobs, sim), sim),
            cell_sequence(make_lb(name, knobs, clock), clock))


if __name__ == "__main__":
    sys.stdout.write(gen_golden.lb_sequences_text(sequences))
