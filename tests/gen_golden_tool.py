"""``tools/gen_golden.py`` — the ``PINNED`` table and the generators
its rows call — loaded once for every test that reads it."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "gen_golden", ROOT / "tools" / "gen_golden.py")
gen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden)
