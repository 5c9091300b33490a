"""``tools/ledger_pairs.pair_wins``: the pairs-won count a perf gain
claim is decided by."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ledger_pairs", ROOT / "tools" / "ledger_pairs.py")
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)
pair_wins = ledger_pairs.pair_wins

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
