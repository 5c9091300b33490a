"""The docs name only what exists: every ``runner run <sweep>`` is a
registered sweep, every ``runner <subcommand>`` one the parser knows,
every ``benchmarks/``, ``tools/`` or ``tests/`` script path a file."""

import re
from pathlib import Path

import pytest

from repro.runner.cli import build_parser
from repro.runner.sweeps import SWEEPS

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "PERFORMANCE.md",
        ".claude/skills/verify/SKILL.md")
#: `python -m repro.runner X` in a command, or `runner X` opening a code span
SUBCOMMAND = re.compile(r"(?:repro\.runner|`runner) (\w+)")
SWEEP = re.compile(r"\brunner run (\w+)")
SCRIPT = re.compile(r"\b((?:benchmarks|tools|tests)/[\w./-]*\.py)\b")


@pytest.mark.parametrize("doc", DOCS)
def test_doc_names_only_what_exists(doc):
    text = (ROOT / doc).read_text()
    subcommands = set(re.search(
        r"\{([\w,]+)\}", build_parser().format_usage()).group(1).split(","))
    assert set(SUBCOMMAND.findall(text)) <= subcommands
    # SWEEP stands for the name in usage lines
    assert set(SWEEP.findall(text)) - {"SWEEP"} <= set(SWEEPS)
    missing = [path for path in set(SCRIPT.findall(text))
               if not (ROOT / path).exists()]
    assert not missing
