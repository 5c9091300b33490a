"""The docs name only what exists: every ``runner run <sweep>`` is a
registered sweep, every ``--claims`` id a row of the claims table,
every ``runner <subcommand>`` one the parser knows, every
``benchmarks/``, ``tools/`` or ``tests/`` script path a file, and every
``from repro… import …`` in a code block or an example resolves."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from repro.runner.cli import build_parser
from repro.runner.sweeps import SWEEPS
from repro.validate.claims import CLAIMS

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "PERFORMANCE.md",
        ".claude/skills/verify/SKILL.md")
#: `python -m repro.runner X` in a command, or `runner X` opening a code span
SUBCOMMAND = re.compile(r"(?:repro\.runner|`runner) (\w+)")
SWEEP = re.compile(r"\brunner run (\w+)")
CLAIM_IDS = re.compile(r"--claims ([\w,]+)")
SCRIPT = re.compile(r"\b((?:benchmarks|tools|tests)/[\w./-]*\.py)\b")
FENCE = re.compile(r"^\s*```[^\n]*\n(.*?)^\s*```", re.M | re.S)
FROM_IMPORT = re.compile(r"^[ \t]*from repro[\w.]* import (?:\([^)]*\)|.*)$",
                         re.M)
CODE = ("README.md", "EXPERIMENTS.md", "DESIGN.md",
        *sorted(f"examples/{p.name}" for p in (ROOT / "examples").glob("*.py")))


@pytest.mark.parametrize("doc", DOCS)
def test_doc_names_only_what_exists(doc):
    text = (ROOT / doc).read_text()
    subcommands = set(re.search(
        r"\{([\w,]+)\}", build_parser().format_usage()).group(1).split(","))
    assert set(SUBCOMMAND.findall(text)) <= subcommands
    # SWEEP stands for the name in usage lines
    assert set(SWEEP.findall(text)) - {"SWEEP"} <= set(SWEEPS)
    assert {cid for ids in CLAIM_IDS.findall(text)
            for cid in ids.split(",")} <= {claim.id for claim in CLAIMS}
    missing = [path for path in set(SCRIPT.findall(text))
               if not (ROOT / path).exists()]
    assert not missing


@pytest.mark.parametrize("source", CODE)
def test_code_imports_resolve(source):
    text = (ROOT / source).read_text()
    if source.endswith(".md"):
        text = "\n".join(FENCE.findall(text))
    unresolved = []
    for line in FROM_IMPORT.findall(text):
        node = ast.parse(line.strip()).body[0]
        module = importlib.import_module(node.module)
        unresolved += [
            f"{node.module}.{alias.name}" for alias in node.names
            if not hasattr(module, alias.name) and importlib.util.find_spec(
                f"{node.module}.{alias.name}") is None]
    assert not unresolved
