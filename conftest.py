"""Ensure `repro` is importable from a source checkout even when the
editable install step was skipped (offline environments), and wire the
tiered test pyramid:

* ``tier1`` — fast tests gating every push.  Any test not explicitly
  marked ``tier2`` is tier 1, and a plain ``pytest`` run selects only
  these (the default ``-m`` expression below), so push CI wall-clock
  never silently grows a nightly-sized test.
* ``tier2`` — nightly paper-fidelity runs: the paper's claims over
  real seed sweeps, soak slices, verdict determinism.  Select with
  ``pytest -m tier2``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "tier1: fast push-gating tests (default selection)")
    config.addinivalue_line(
        "markers",
        "tier2: nightly paper-fidelity tests (the paper's claims, soak slices)")
    if not config.option.markexpr:
        config.option.markexpr = "not tier2"


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.get_closest_marker("tier2") is None:
            item.add_marker(pytest.mark.tier1)
