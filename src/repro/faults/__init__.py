"""Dynamic fault injection: schedules, control plane, convergence, soak.

The robustness layer for the paper's S3.3 story and everything built on
it: declare *when* links die, flap, degrade or come back
(:mod:`repro.faults.schedule`), let the modeled controller notice and
react in simulated time (:mod:`repro.faults.controlplane`), measure how
fast throughput converges (:mod:`repro.faults.metrics`), and soak the
whole stack under random schedules with conservation-law checking
(:mod:`repro.faults.soak`, ``python -m repro.runner run soak``).
"""
