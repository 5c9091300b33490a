"""Simulation telemetry: metrics registry, event tracer, Testbed probes.

Off by default.  Enable per run with a
:class:`~repro.telemetry.core.TelemetryConfig`::

    tb = Testbed(cfg, telemetry=TelemetryConfig(trace=True, trace_dir="out"))
    ...
    snapshot = tb.telemetry.snapshot()       # sorted metrics dict
    tb.telemetry.export_trace()              # Perfetto-loadable JSON

or from the runner CLI with ``--trace`` / ``--metrics-out``.
"""
