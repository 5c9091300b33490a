"""The unit of work a sweep submits: one experiment-function call.

A :class:`JobSpec` is deliberately dumb — a function reference, an
optional ``TestbedConfig`` and extra keyword arguments — so it pickles
across process boundaries and hashes to a stable cache key.  The
function is stored as a ``"module:QualName"`` string (not a code
object), which keeps specs serializable under any multiprocessing
start method and makes the hash independent of the interpreter run.

A spec arrives from outside (a ``/submit`` body, a lease's payload), so
the reference is not resolved by import: it must name a function
registered with :func:`cell` where it is defined.  Anything else is
:class:`BadSpec`, and nothing it names is called.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Optional

from repro.runner.serialize import content_hash, in_repro, ref_of

#: ``"module:QualName"`` -> function, for every function a spec may name
CELLS: Dict[str, Callable[..., Any]] = {}


class BadSpec(ValueError):
    """A payload that does not decode to a :class:`JobSpec`, or a spec
    whose ``fn`` names no registered cell."""


def cell(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register ``fn`` as a cell: a function a :class:`JobSpec` may
    name.  Decorates it where it is defined; ``fn`` is unchanged."""
    CELLS[ref_of(fn)] = fn
    return fn


def cell_of(ref: str) -> Callable[..., Any]:
    """The cell ``ref`` names, or :class:`BadSpec`.  A module registers
    its cells when imported, so a ref into ``repro`` imports its module
    first; no other module is imported for a ref."""
    fn = CELLS.get(ref)
    if fn is None and in_repro(ref):
        try:
            importlib.import_module(ref.partition(":")[0])
        except ImportError as exc:
            raise BadSpec(f"{ref!r}: {exc}") from exc
        fn = CELLS.get(ref)
    if fn is None:
        raise BadSpec(f"{ref!r} is not a registered cell")
    return fn


@dataclass(frozen=True)
class JobSpec:
    """One picklable (experiment fn, config, kwargs) triple."""

    #: ``"module:QualName"`` of a registered cell
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
        """Call the registered cell (in this process)."""
        fn = cell_of(self.fn)
        if self.cfg is not None:
            return fn(self.cfg, **self.kwargs)
        return fn(**self.kwargs)
