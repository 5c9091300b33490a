"""Dynamic fault injection: schedules, control plane, convergence, soak.

The robustness layer for the paper's S3.3 story and everything built on
it: declare *when* links die, flap, degrade or come back
(:mod:`repro.faults.schedule`), let the modeled controller notice and
react in simulated time (:mod:`repro.faults.controlplane`), measure how
fast throughput converges (:mod:`repro.faults.metrics`), and soak the
whole stack under random schedules with conservation-law checking
(:mod:`repro.faults.soak`, ``python -m repro.runner run soak``).
"""

from repro.faults.controlplane import ControlPlane, LinkChange, Reaction
from repro.faults.metrics import (
    ConvergenceReport,
    ThroughputTimeline,
    convergence_report,
)
from repro.faults.schedule import (
    ArmedFaults,
    FaultSchedule,
    LinkDegrade,
    LinkDown,
    LinkFlap,
    LinkUp,
    SwitchDown,
    SwitchUp,
    classic_failure_schedule,
    random_schedule,
)
from repro.faults.soak import (
    SoakCase,
    SoakReport,
    SoakResult,
    random_case,
    run_soak,
    run_soak_case,
)

__all__ = [
    "ArmedFaults",
    "ControlPlane",
    "ConvergenceReport",
    "FaultSchedule",
    "LinkChange",
    "LinkDegrade",
    "LinkDown",
    "LinkFlap",
    "LinkUp",
    "Reaction",
    "SoakCase",
    "SoakReport",
    "SoakResult",
    "SwitchDown",
    "SwitchUp",
    "ThroughputTimeline",
    "classic_failure_schedule",
    "convergence_report",
    "random_case",
    "random_schedule",
    "run_soak",
    "run_soak_case",
]
