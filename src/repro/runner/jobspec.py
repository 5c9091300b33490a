"""The unit of work a sweep submits: one experiment-function call.

A :class:`JobSpec` is deliberately dumb — a function reference, an
optional ``TestbedConfig`` and extra keyword arguments — so it pickles
across process boundaries and hashes to a stable cache key.  The
function is stored as a ``"module:QualName"`` string (not a code
object), which keeps specs serializable under any multiprocessing
start method and makes the hash independent of the interpreter run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Optional

from repro.runner.serialize import content_hash, ref_of, resolve_ref


@dataclass(frozen=True)
class JobSpec:
    """One picklable (experiment fn, config, kwargs) triple."""

    #: ``"module:QualName"`` of a module-level callable
    fn: str
    #: first positional argument, typically a ``TestbedConfig`` (or None)
    cfg: Optional[Any] = None
    #: extra keyword arguments for ``fn``
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: display-only name; excluded from the content hash
    label: str = ""

    @classmethod
    def make(
        cls,
        fn: Callable | str,
        cfg: Optional[Any] = None,
        label: str = "",
        **kwargs: Any,
    ) -> "JobSpec":
        ref = fn if isinstance(fn, str) else ref_of(fn)
        return cls(fn=ref, cfg=cfg, kwargs=kwargs, label=label)

    @cached_property
    def hash(self) -> str:
        """Stable content hash over (fn, cfg, kwargs) — the cache key.
        Computed once per spec: the dataclass is frozen and nothing
        mutates ``kwargs`` in place."""
        return content_hash({"fn": self.fn, "cfg": self.cfg, "kwargs": self.kwargs})

    @property
    def display(self) -> str:
        """Human-readable name for progress lines and store records."""
        if self.label:
            return self.label
        _, _, qualname = self.fn.partition(":")
        return f"{qualname}:{self.hash[:8]}"

    def execute(self) -> Any:
        """Resolve and call the experiment function (in this process)."""
        fn = resolve_ref(self.fn)
        if self.cfg is not None:
            return fn(self.cfg, **self.kwargs)
        return fn(**self.kwargs)
