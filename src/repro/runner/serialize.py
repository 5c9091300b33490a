"""JSON-safe serialization for experiment configs and results.

Experiment inputs (``TestbedConfig``) and outputs (``RunResult``,
``ScalabilityPoint``, ...) are plain dataclasses of stdlib values, so a
small structural encoding covers all of them without per-type code:

* dataclass       -> ``{"__dataclass__": "module:QualName", "fields": {...}}``
* tuple           -> ``{"__tuple__": [...]}``
* non-str-keyed dict -> ``{"__dict__": [[key, value], ...]}``

Round-tripping is exact: ints stay ints, floats survive via the
shortest-repr JSON encoding, tuples stay tuples, and dict keys keep
their types (flow-rate maps are keyed by int flow id).  That exactness
is what lets the result store promise "parallel == serial, byte for
byte" and lets content hashes double as cache keys.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, Callable

#: marker keys — a plain str-keyed dict may not use these as keys
_MARKERS = ("__dataclass__", "__tuple__", "__dict__")


def ref_of(obj: Callable | type) -> str:
    """A stable, importable ``"module:QualName"`` reference."""
    return f"{obj.__module__}:{obj.__qualname__}"


def resolve_ref(ref: str) -> Any:
    """Import the object a :func:`ref_of` string points to."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed reference {ref!r}; expected 'module:QualName'")
    target: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def to_jsonable(obj: Any) -> Any:
    """Encode ``obj`` into JSON-compatible types, reversibly."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": ref_of(type(obj)),
            "fields": {
                f.name: to_jsonable(getattr(obj, f.name))
                for f in fields(obj)
                if not (f.metadata.get("omit_if_none")
                        and getattr(obj, f.name) is None)
            },
        }
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and not any(k in _MARKERS for k in obj):
            return {k: to_jsonable(v) for k, v in obj.items()}
        return {"__dict__": [[to_jsonable(k), to_jsonable(v)] for k, v in obj.items()]}
    if isinstance(obj, tuple):
        return {"__tuple__": [to_jsonable(v) for v in obj]}
    if isinstance(obj, list):
        return [to_jsonable(v) for v in obj]
    raise TypeError(
        f"cannot serialize {type(obj).__name__!r}; "
        "use dataclasses / dicts / lists / tuples / scalars"
    )


def _dataclass_of(ref: str) -> type:
    """The class a ``__dataclass__`` tag names.  Tags arrive in
    ``/submit`` bodies and store records, and decoding calls the class,
    so only dataclasses defined under ``repro`` qualify; anything else
    is a ValueError before a module outside ``repro`` is imported."""
    module = ref.partition(":")[0]
    if module == "repro" or module.startswith("repro."):
        cls = resolve_ref(ref)
        if isinstance(cls, type) and is_dataclass(cls):
            return cls
    raise ValueError(f"refusing to decode {ref!r}: not a repro dataclass")


def from_jsonable(obj: Any) -> Any:
    """Invert :func:`to_jsonable`."""
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        if "__dataclass__" in obj:
            cls = _dataclass_of(obj["__dataclass__"])
            return cls(**{k: from_jsonable(v) for k, v in obj["fields"].items()})
        if "__tuple__" in obj:
            return tuple(from_jsonable(v) for v in obj["__tuple__"])
        if "__dict__" in obj:
            return {from_jsonable(k): from_jsonable(v) for k, v in obj["__dict__"]}
        return {k: from_jsonable(v) for k, v in obj.items()}
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of ``obj`` — the hashing/equality form."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any, length: int = 16) -> str:
    """Stable hex digest of ``obj``'s canonical JSON."""
    digest = hashlib.sha256(canonical_json(obj).encode()).hexdigest()
    return digest[:length]
