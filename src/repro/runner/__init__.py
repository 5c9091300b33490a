"""repro.runner — a parallel sweep runner with a persistent result store.

Every paper figure is a sweep over (scheme x seed x sweep-point), and
the simulator is fully deterministic, so sweep cells are embarrassingly
parallel and cacheable.  This package provides the three layers:

``JobSpec`` (:mod:`repro.runner.jobspec`)
    One unit of work: a picklable (experiment fn, TestbedConfig,
    kwargs) triple with a stable content hash.

``run_jobs`` (:mod:`repro.runner.pool`)
    One lease loop over the forked worker processes it owns, with
    per-job wall-clock timeouts and bounded retry: a crashed or hung
    worker is charged to the one job it held.  ``jobs=1`` (or no fork)
    is the same loop running each lease in-process.

``ResultStore`` (:mod:`repro.runner.store`)
    Persists each job's structured result as JSON under
    ``benchmarks/results/store/`` keyed by spec hash, so re-running a
    sweep skips completed jobs (resume) and ``--force`` invalidates.

The CLI entrypoint is ``python -m repro.runner`` (see
:mod:`repro.runner.cli`); a sweep submits through :func:`run_jobs`
directly (``SCALABILITY.run(..., jobs=4)``).
"""

# benchmarks/ledger/ imports these two from the package; nothing else may.
from repro.runner.pool import run_jobs
from repro.runner.store import ResultStore
