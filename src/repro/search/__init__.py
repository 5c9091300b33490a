"""repro.search — closed-loop parameter search over the Presto design
space.

The paper hand-sets its constants: 64 KB flowcells, GRO alpha/EWMA
timeouts, controller detection/reaction delays, failover latency, the
zoo's mice/elephant size thresholds.  This package asks the simulator
what the paper could not: a seeded genetic algorithm refines candidate
configurations while successive halving prunes them rung by rung, and
every fitness evaluation is an ordinary multi-seed sweep of
:class:`repro.runner.jobspec.JobSpec` cells — hash-cached in the
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

# benchmarks/ledger/ imports these three from the package; nothing else may.
from repro.search.driver import PRESETS, run_search, search_json
