"""``tools/ledger_pairs``: the two exported trees and the pairs-won
count a perf gain claim is decided by."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ledger_pairs", ROOT / "tools" / "ledger_pairs.py")
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)
pair_wins = ledger_pairs.pair_wins
export_tree = ledger_pairs.export_tree
export_working_tree = ledger_pairs.export_working_tree

WALL = {"name": "wall_s", "better": "lower"}
RATE = {"name": "cells_per_s", "better": "higher"}


def _runs(metric, *values, workload="packet_search"):
    """One ``run.py --out`` record per value, as the tool reads them."""
    return [{"results": {workload: {metric: value}}} for value in values]


def test_ith_run_of_one_side_pairs_with_ith_of_the_other():
    # i-th with i-th: 0.5 < 10 wins, 9 < 1 loses.  Pairing by rank
    # (sorted sides) or in reverse order would count two wins.
    parent = _runs("wall_s", 10.0, 1.0)
    change = _runs("wall_s", 0.5, 9.0)
    assert pair_wins(parent, change, [WALL]) == {
        ("packet_search", "wall_s"): [1, 0, 2]}


def test_ties_count_for_neither_side():
    parent = _runs("wall_s", 5.0, 5.0, 3.0)
    change = _runs("wall_s", 5.0, 4.0, 3.0)
    won, ties, pairs = pair_wins(parent, change, [WALL])[
        "packet_search", "wall_s"]
    assert (won, ties, pairs) == (1, 2, 3)
    # and a tie is no loss either: swapping the sides gives no wins
    assert pair_wins(change, parent, [WALL])[
        "packet_search", "wall_s"] == [0, 2, 3]


def test_higher_is_better_metrics_are_inverted():
    parent = _runs("cells_per_s", 100.0, 100.0, 100.0)
    change = _runs("cells_per_s", 120.0, 130.0, 80.0)
    assert pair_wins(parent, change, [RATE]) == {
        ("packet_search", "cells_per_s"): [2, 0, 3]}
    as_lower = dict(RATE, better="lower")
    assert pair_wins(parent, change, [as_lower]) == {
        ("packet_search", "cells_per_s"): [1, 0, 3]}


def test_every_workload_and_metric_is_counted_separately():
    parent = [{"results": {"a": {"wall_s": 2.0, "cells_per_s": 1.0},
                           "b": {"wall_s": 2.0, "cells_per_s": 1.0}}}]
    change = [{"results": {"a": {"wall_s": 1.0, "cells_per_s": 1.0},
                           "b": {"wall_s": 3.0, "cells_per_s": 2.0}}}]
    assert pair_wins(parent, change, [WALL, RATE]) == {
        ("a", "wall_s"): [1, 0, 1], ("a", "cells_per_s"): [0, 1, 1],
        ("b", "wall_s"): [0, 0, 1], ("b", "cells_per_s"): [1, 0, 1]}


@pytest.mark.skipif(not (ROOT / ".git").exists(),
                    reason="exports a commit: needs a git checkout")
def test_export_tree_writes_the_committed_ledger(tmp_path):
    dest = tmp_path / "parent"
    export_tree("HEAD", str(dest))
    assert (dest / "benchmarks" / "ledger" / "run.py").is_file()
    assert not (dest / ".git").exists()  # files only, no worktree


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True, text=True).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_export_working_tree_takes_edits_and_new_files_not_the_index(
        tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "run.py").write_text("committed\n")
    (repo / "staged.py").write_text("staged\n")
    _git(repo, "add", ".gitignore", "run.py")
    _git(repo, "commit", "-q", "-m", "seed")
    _git(repo, "add", "staged.py")
    (repo / "run.py").write_text("edited, not staged\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "out.log").write_text("ignored\n")
    index = (repo / ".git" / "index").read_bytes()
    status = _git(repo, "status", "--porcelain")

    dest = tmp_path / "change"
    export_working_tree(str(dest), repo=str(repo))
    assert (dest / "run.py").read_text() == "edited, not staged\n"
    assert (dest / "new.py").read_text() == "untracked\n"
    assert (dest / "staged.py").read_text() == "staged\n"
    assert not (dest / "out.log").exists()
    assert not (dest / ".git").exists()
    # the repo's own index and status are as they were
    assert (repo / ".git" / "index").read_bytes() == index
    assert _git(repo, "status", "--porcelain") == status
