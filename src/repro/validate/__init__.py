"""repro.validate — paper-fidelity validation.

Two layers, one promise: a regression in the reproduced physics
cannot pass silently.

* **Always-on invariants** (:mod:`repro.validate.invariants`) —
  conservation laws any ``Testbed`` run can arm via
  ``TestbedConfig(validate=True)``: quiesce, byte conservation,
  schedule consistency, flowcell-ID monotonicity, GRO no-data-loss.
* **The paper's claims** (:mod:`repro.validate.claims`) — one table
  row per figure, table or ablation claim, judged by the ``claims``
  sweep (``python -m repro.runner run claims``).
"""
