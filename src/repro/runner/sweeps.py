"""The sweeps ``runner run`` and ``service submit`` know by name —
every experiment in the repo: the paper's figures, tables and
ablations, the scale-out grids, the figure oracles, the chaos soak and
the cross-fidelity compare.

Each entry is the :class:`~repro.runner.sweep.Sweep` declared next to
its cell function; a new experiment plugs in by declaring one and
listing it here (EXPERIMENTS.md "Adding a sweep").  Importing this
module imports every experiment, so only the CLIs do.
"""

from repro.experiments.ablations import ABLATIONS
from repro.experiments.fabric_sweep import FABRIC
from repro.experiments.failure import FAILURE
from repro.experiments.flowlet_cmp import FLOWLET_CMP, PERHOP_CMP
from repro.experiments.flowlet_sizes import FLOWLET_SIZES
from repro.experiments.gro_micro import CPU_OVERHEAD, GRO_MICRO
from repro.experiments.northsouth import NORTHSOUTH
from repro.experiments.oversub import OVERSUB
from repro.experiments.scalability import SCALABILITY
from repro.experiments.synthetic import SYNTHETIC
from repro.experiments.tournament import TOURNAMENT
from repro.experiments.trace import TRACE
from repro.faults.soak import SOAK
from repro.fluid.compare import COMPARE
from repro.search.driver import SEARCH
from repro.validate.oracles import (
    FAILOVER,
    FCT_ORDERING,
    GRO_REORDERING,
    TOURNAMENT_ORDERING,
)

SWEEPS = {sweep.name: sweep for sweep in (
    SCALABILITY, OVERSUB, SYNTHETIC, FABRIC, TOURNAMENT, SEARCH,
    FLOWLET_SIZES, GRO_MICRO, CPU_OVERHEAD, FLOWLET_CMP, PERHOP_CMP,
    TRACE, NORTHSOUTH, FAILURE,
    FCT_ORDERING, TOURNAMENT_ORDERING, GRO_REORDERING, FAILOVER,
    SOAK, COMPARE, ABLATIONS)}
