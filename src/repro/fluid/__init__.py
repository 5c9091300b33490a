"""Flow-level (fluid) fast-fidelity engine.

The packet engine reproduces Presto faithfully but tops out around
16-host Clos runs; this package trades per-packet queueing for
progressive-filling max-min bandwidth sharing (the RepFlow/psim
methodology) so the same experiments run orders of magnitude faster.

Selection is one knob — ``TestbedConfig(fidelity="flow")`` — and the
fluid testbed speaks the repo's existing contracts: real
:class:`~repro.net.topology.Topology` and switch tables, real
``repro.lb`` schemes slicing flows into 64 KB flowcells, the unified
``Transfer`` protocol toward every collector, ``repro.faults``
schedules and the modeled control plane, and per-link utilization
telemetry when armed.

``python -m repro.runner run compare`` runs the same experiment grid
at both fidelities and writes a per-metric divergence report
(:mod:`repro.fluid.compare`).
"""
