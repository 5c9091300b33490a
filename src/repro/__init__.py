"""repro — a reproduction of *Presto: Edge-based Load Balancing for
Fast Datacenter Networks* (SIGCOMM 2015) on a packet-level
discrete-event simulator.

Quickstart::

    from repro import Testbed, TestbedConfig
    from repro.units import msec, gbps

    tb = Testbed(TestbedConfig(scheme="presto"))
    app = tb.add_elephant(src=0, dst=8)      # host 0 -> host 8 elephant
    tb.run(msec(20))
    print(app.delivered_bytes() * 8 / 20e-3 / 1e9, "Gbps")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""

from repro.experiments.harness import SCHEMES, Testbed, TestbedConfig, format_table
from repro.host.gro import OfficialGro, PrestoGro
from repro.host.tcp import TcpConfig
from repro.lb.base import VSwitch
from repro.presto.controller import PrestoController
from repro.presto.flowcell import FLOWCELL_BYTES, Presto
from repro.sim.engine import Simulator

__version__ = "1.0.0"

__all__ = [
    "Testbed",
    "TestbedConfig",
    "SCHEMES",
    "format_table",
    "Simulator",
    "TcpConfig",
    "OfficialGro",
    "PrestoGro",
    "PrestoController",
    "VSwitch",
    "Presto",
    "FLOWCELL_BYTES",
    "__version__",
]
