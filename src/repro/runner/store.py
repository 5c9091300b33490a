"""Persistent, resumable result store keyed by job-spec hash.

Each completed job becomes one JSON file
``benchmarks/results/store/<hash>.json`` holding the spec, the encoded
result and execution metadata: the one copy of a finished job, which
``run_jobs`` and the sweep coordinator both ask for through
:meth:`ResultStore.hit`.  Re-running a sweep loads matching hashes
instead of re-simulating (resume); ``--force`` invalidates.
Writes are atomic (tempfile + ``os.replace``) so a killed sweep never
leaves a half-written record that would poison a resume.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.runner.jobspec import BadSpec, JobSpec, cell_of
from repro.runner.serialize import UNDECODABLE, from_jsonable, to_jsonable

#: env var overriding the default results root (useful for tests/CI)
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"
DEFAULT_RESULTS_DIR = os.path.join("benchmarks", "results")


class ResultStore:
    """Content-addressed JSON store under ``<root>/store/``."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = os.environ.get(RESULTS_DIR_ENV) or DEFAULT_RESULTS_DIR
        self.root = root
        self.store_dir = os.path.join(root, "store")

    def path_for(self, spec: JobSpec) -> str:
        return os.path.join(self.store_dir, f"{spec.hash}.json")

    def _names(self) -> List[str]:
        """The store's file names, sorted (= by hash)."""
        if not os.path.isdir(self.store_dir):
            return []
        return sorted(os.listdir(self.store_dir))

    @staticmethod
    def _read(path: str) -> Optional[Dict[str, Any]]:
        """The record at ``path``; None unless it parses to a dict that
        kept its ``result`` (the one corruption check every read path
        applies: a truncated write or hand-edit reads as absent)."""
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if isinstance(record, dict) and "result" in record:
            return record
        return None

    def load_record(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """The stored record for ``spec``; None on a miss, a corrupt
        record (the job re-runs and overwrites it) or a spec that names
        no registered cell."""
        try:
            cell_of(spec.fn)
        except BadSpec:
            return None
        return self._read(self.path_for(spec))

    def hit(self, spec: JobSpec,
            force: bool = False) -> Optional[Tuple[Dict[str, Any], Any]]:
        """``(record, decoded result)`` when ``spec`` is done, else None:
        a miss, a forced run (its record is invalidated first) or a
        record whose result no longer decodes (a stale result type —
        the job re-runs and overwrites it)."""
        if force:
            self.invalidate(spec)
            return None
        record = self.load_record(spec)
        if record is None:
            return None
        try:
            return record, from_jsonable(record["result"])
        except UNDECODABLE:
            return None

    def save(
        self,
        spec: JobSpec,
        result_jsonable: Any,
        elapsed_s: float,
        attempts: int = 1,
    ) -> str:
        """Atomically persist one job's encoded result; returns the path."""
        os.makedirs(self.store_dir, exist_ok=True)
        record = {
            "hash": spec.hash,
            "label": spec.display,
            "spec": to_jsonable(spec),
            "result": result_jsonable,
            "elapsed_s": round(elapsed_s, 6),
            "attempts": attempts,
            "created_unix": time.time(),
        }
        path = self.path_for(spec)
        fd, tmp = tempfile.mkstemp(dir=self.store_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def invalidate(self, spec: JobSpec) -> bool:
        """Drop the cached record for ``spec``; True if one existed."""
        try:
            os.unlink(self.path_for(spec))
            return True
        except FileNotFoundError:
            return False

    def records(self) -> Iterator[Dict[str, Any]]:
        """All readable records, ordered by filename (= hash); a
        corrupt one is skipped, not yielded half-formed."""
        for name in self._names():
            if name.endswith(".json"):
                record = self._read(os.path.join(self.store_dir, name))
                if record is not None:
                    yield record

    def gc(self) -> Dict[str, int]:
        """Remove debris a SIGKILLed or buggy writer can leave behind.

        Deletes orphaned ``*.tmp`` files (a writer died between
        ``mkstemp`` and ``os.replace``) and ``*.json`` records that are
        unparsable or structurally corrupt (they are cache misses
        anyway — dropping them just makes that visible).  Returns
        ``{"tmp_removed": n, "corrupt_removed": n, "kept": n}``.
        """
        stats = {"tmp_removed": 0, "corrupt_removed": 0, "kept": 0}
        for name in self._names():
            path = os.path.join(self.store_dir, name)
            if name.endswith(".tmp"):
                os.unlink(path)
                stats["tmp_removed"] += 1
            elif name.endswith(".json"):
                if self._read(path) is not None:
                    stats["kept"] += 1
                else:
                    os.unlink(path)
                    stats["corrupt_removed"] += 1
        return stats

    def __len__(self) -> int:
        """Record-file count — O(directory), no parsing.  May include
        structurally-corrupt files :meth:`records` would skip; run
        :meth:`gc` to reconcile."""
        return sum(name.endswith(".json") for name in self._names())
