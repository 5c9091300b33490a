"""The sweeps ``runner run`` and ``service submit`` know by name —
every experiment in the repo: the paper's figures, tables and
ablations, the scale-out grids, the chaos soak, the cross-fidelity
compare, and ``claims``, which runs the others to judge the paper's
claims (:mod:`repro.validate.claims`).

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
from repro.experiments.gro_micro import CPU_OVERHEAD, GRO_MICRO, GRO_REORDERING
from repro.experiments.northsouth import NORTHSOUTH
from repro.experiments.oversub import OVERSUB
from repro.experiments.scalability import SCALABILITY
from repro.experiments.synthetic import SYNTHETIC
from repro.experiments.tournament import TOURNAMENT
from repro.experiments.trace import TRACE
from repro.faults.soak import SOAK
from repro.fluid.compare import COMPARE
from repro.search.driver import SEARCH
from repro.validate.claims import CLAIMS_SWEEP

SWEEPS = {sweep.name: sweep for sweep in (
    SCALABILITY, OVERSUB, SYNTHETIC, FABRIC, TOURNAMENT, SEARCH,
    FLOWLET_SIZES, GRO_MICRO, CPU_OVERHEAD, FLOWLET_CMP, PERHOP_CMP,
    TRACE, NORTHSOUTH, FAILURE, GRO_REORDERING,
    SOAK, COMPARE, ABLATIONS, CLAIMS_SWEEP)}
