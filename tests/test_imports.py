"""A package is a namespace: importing one module loads only what that
module needs, and a name has one import path — the module defining it.
A run loads only what its cells execute: one data plane, its scheme's
policy, and no fork machinery at ``jobs=1``."""

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


#: one tiny cell through the runner at ``jobs=1``, then every module
#: the process holds
CELL = """
import sys
from repro.experiments.common import run_elephant_workload
from repro.experiments.harness import TestbedConfig
from repro.runner.jobspec import JobSpec
from repro.runner.pool import run_jobs
from repro.units import msec

cfg = TestbedConfig(scheme={scheme!r}, fidelity={fidelity!r}, n_spines=2,
                    n_leaves=2, hosts_per_leaf=2)
spec = JobSpec.make(run_elephant_workload, cfg=cfg, pairs=[(0, 2)],
                    warm_ns=msec(1), measure_ns=msec(1), mice_pairs=[(1, 3)],
                    mice_interval_ns=msec(1))
(outcome,) = run_jobs([spec], jobs=1)
assert outcome.ok, outcome.error
print(" ".join(sys.modules))
"""

#: every ``repro.lb`` module that holds a scheme's policy
LB_POLICIES = {f"repro.lb.{path.stem}"
               for path in (SRC / "repro" / "lb").glob("*.py")} - {
    "repro.lb.__init__", "repro.lb.base"}


def loaded_by(code):
    """The modules a fresh interpreter holds after running ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120).stdout
    return set(out.split())


def under(modules, *prefixes):
    return sorted(m for m in modules
                  if m in prefixes or m.startswith(tuple(
                      p + "." for p in prefixes)))


@pytest.mark.parametrize("module", LEAN)
def test_import_loads_no_experiment_or_fluid_module(module):
    modules = loaded_by(f"import sys, {module}\n"
                        "print(' '.join(sys.modules))")
    assert under(modules, "repro.experiments", "repro.fluid") == []
    if module == "repro.runner.pool":
        assert under(modules, "multiprocessing") == []


@pytest.mark.parametrize("scheme,policy", [
    ("presto", None), ("diffflow", "repro.lb.diffflow")])
def test_packet_cell_loads_one_plane_and_its_own_policy(scheme, policy):
    """No fluid engine, MPTCP, telemetry probes, invariants (not
    armed), fault schedule (none armed), fork pool, or another
    scheme's policy."""
    modules = loaded_by(CELL.format(scheme=scheme, fidelity="packet"))
    assert "repro.host.tcp" in modules  # the cell did run
    assert under(modules, "repro.fluid", "repro.mptcp", "repro.validate",
                 "repro.telemetry.instrument", "repro.telemetry.metrics",
                 "repro.telemetry.trace", "repro.faults.schedule",
                 "multiprocessing") == []
    assert sorted(modules & LB_POLICIES) == ([policy] if policy else [])


def test_flow_cell_loads_no_packet_host_stack():
    """The MPTCP scheme at flow fidelity: fluid subflows, so neither
    the packet host stack nor the MPTCP connection is loaded."""
    modules = loaded_by(CELL.format(scheme="mptcp", fidelity="flow"))
    assert "repro.fluid.engine" in modules  # the cell did run
    assert under(modules, "repro.host.host", "repro.host.nic",
                 "repro.host.gro", "repro.host.cc", "repro.host.ranges",
                 "repro.mptcp", "multiprocessing") == []


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
