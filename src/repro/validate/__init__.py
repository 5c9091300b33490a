"""repro.validate — paper-fidelity validation.

Two layers, one promise: a regression in the reproduced physics
cannot pass silently.

* **Always-on invariants** (:mod:`repro.validate.invariants`) —
  conservation laws any ``Testbed`` run can arm via
  ``TestbedConfig(validate=True)``: quiesce, byte conservation,
  schedule consistency, flowcell-ID monotonicity, GRO no-data-loss.
* **Figure oracles** (:mod:`repro.validate.oracles`) — seed-robust
  qualitative assertions per headline paper result (FCT ordering, GRO
  reordering bounds, failover/rebalance convergence).  Each is a sweep
  whose reducer returns a verdict: ``python -m repro.runner run
  fct_ordering`` prints the checks, writes ``runner_fct_ordering.json``
  and exits 1 when one fails.

This package's top level stays import-light (invariants + report
shapes only): the experiment-heavy oracle modules load lazily so
``repro.experiments.harness`` can import the probe without cycles.
"""

from repro.validate.invariants import (
    InvariantReport,
    InvariantViolation,
    ValidationProbe,
    byte_ledger,
    check_invariants,
    runtime_check,
)
from repro.validate.report import OracleCheck, OracleReport

__all__ = [
    "InvariantReport",
    "InvariantViolation",
    "ValidationProbe",
    "byte_ledger",
    "check_invariants",
    "runtime_check",
    "OracleCheck",
    "OracleReport",
]
