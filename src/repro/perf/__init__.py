"""What is left of the old perf suite: the four timed loops the perf
ledger imports (see :mod:`repro.perf.suite`)."""
