"""repro.search — closed-loop parameter search over the Presto design
space (ROADMAP item 5).

The paper hand-sets its constants: 64 KB flowcells, GRO alpha/EWMA
timeouts, controller detection/reaction delays, failover latency, the
zoo's mice/elephant size thresholds.  This package asks the simulator
what the paper could not: a seeded genetic algorithm refines candidate
configurations while successive halving prunes them rung by rung, and
every fitness evaluation is an ordinary multi-seed sweep of
:class:`repro.runner.JobSpec` cells — hash-cached in the
``ResultStore``, fanned over ``--jobs`` processes or a ``--service``
coordinator, byte-reproducible end to end.

Layers (each importable on its own):

``space``    declarative :class:`ParamSpace`: named knobs mapped onto
             ``TestbedConfig`` fields with log/linear/choice lattices.
``halving``  pure successive-halving rung arithmetic.
``ga``       seeded sample/crossover/mutate/selection operators.
``fitness``  the picklable per-(config, seed) fitness cell.
``driver``   the search loop, the committed ``SEARCH.json`` artifact and
             the ``SEARCH`` sweep declaration (``runner run search``).
"""

from repro.search.driver import (
    PRESETS,
    RunStats,
    SearchResult,
    SearchSettings,
    run_search,
    search_json,
)
from repro.search.ga import crossover, mutate, next_generation, sample_population
from repro.search.halving import Rung, halving_schedule
from repro.search.space import Param, ParamSpace

__all__ = [
    "Param",
    "ParamSpace",
    "Rung",
    "halving_schedule",
    "sample_population",
    "crossover",
    "mutate",
    "next_generation",
    "SearchSettings",
    "SearchResult",
    "RunStats",
    "PRESETS",
    "run_search",
    "search_json",
]
