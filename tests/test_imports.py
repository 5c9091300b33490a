"""A package is a namespace: importing one module loads only what that
module needs, and a name has one import path — the module defining it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules a worker, the CLI or a unit test imports on their own; none
#: of them may drag in the experiment harness or the fluid engine
LEAN = ("repro", "repro.sim.engine", "repro.faults.schedule",
        "repro.validate.invariants", "repro.telemetry.core",
        "repro.runner.pool", "repro.service.worker", "repro.runner.cli",
        "repro.net.fabrics")

#: what benchmarks/ledger/ still imports through a package
LEDGER_NAMES = {
    "repro.runner": {"ResultStore", "run_jobs"},
    "repro.search": {"PRESETS", "run_search", "search_json"},
}


@pytest.mark.parametrize("module", LEAN)
def test_import_loads_no_experiment_or_fluid_module(module):
    code = (f"import sys, {module}\n"
            "print(' '.join(m for m in sys.modules "
            "if m.startswith(('repro.experiments', 'repro.fluid'))))")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split() == []


@pytest.mark.parametrize(
    "init", sorted(SRC.glob("repro/**/__init__.py")),
    ids=lambda path: str(path.parent.relative_to(SRC)))
def test_package_init_is_its_docstring(init):
    package = ".".join(init.parent.relative_to(SRC).parts)
    body = ast.parse(init.read_text()).body
    assert body and isinstance(body[0], ast.Expr), "no docstring"
    extra = []
    for node in body[1:]:
        names = ({a.name for a in node.names}
                 if isinstance(node, ast.ImportFrom) else {type(node).__name__})
        extra += sorted(names - LEDGER_NAMES.get(package, set()))
    assert not extra
