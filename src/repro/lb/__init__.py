"""Edge load balancing: the host vSwitch and one policy per scheme.

:class:`repro.lb.base.VSwitch` is the datapath of every host; a scheme
is a :class:`repro.lb.base.Policy` — given a flow's state record and
the values of an outgoing segment, pick a label index and a flowcell
ID.  Presto's own policy (Algorithm 1) lives in
:mod:`repro.presto.flowcell`.
"""

from repro.lb.base import DIRECT, SPRAY, FlowState, Policy, VSwitch

__all__ = ["VSwitch", "Policy", "FlowState", "SPRAY", "DIRECT"]
