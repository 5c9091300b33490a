"""The sweeps ``runner run`` and ``service submit`` know by name.

Each entry is the :class:`~repro.runner.sweep.Sweep` declared next to
its cell function; a new experiment plugs in by declaring one and
listing it here (EXPERIMENTS.md "Adding a sweep").  Importing this
module imports every experiment, so only the CLIs do.
"""

from repro.experiments.fabric_sweep import FABRIC
from repro.experiments.oversub import OVERSUB
from repro.experiments.scalability import SCALABILITY
from repro.experiments.synthetic import SYNTHETIC
from repro.experiments.tournament import TOURNAMENT
from repro.search.driver import SEARCH

SWEEPS = {sweep.name: sweep for sweep in (
    SCALABILITY, OVERSUB, SYNTHETIC, FABRIC, TOURNAMENT, SEARCH)}
