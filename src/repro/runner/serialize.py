"""JSON-safe serialization for experiment configs and results.

Experiment inputs (``TestbedConfig``) and outputs (``RunResult``,
``Pooled``, ...) are plain dataclasses of stdlib values, so a
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
from typing import Any, Callable, List, Tuple

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


def in_repro(ref: str) -> bool:
    """True when ``ref`` names something defined under ``repro``."""
    module = ref.partition(":")[0]
    return module == "repro" or module.startswith("repro.")


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
    — a module outside ``repro``, never imported, or a class that no
    longer exists — is a ValueError."""
    if in_repro(ref):
        try:
            cls = resolve_ref(ref)
        except (ImportError, AttributeError):
            cls = None
        if isinstance(cls, type) and is_dataclass(cls):
            return cls
    raise ValueError(f"refusing to decode {ref!r}: not a repro dataclass")


#: what :func:`from_jsonable` raises on a stale or malformed encoding
UNDECODABLE = (ValueError, TypeError, KeyError, AttributeError)


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


def artifact_json(obj: Any) -> str:
    """The bytes of a committed artifact or golden: indented, sorted
    keys, no timestamps, trailing newline — byte-reproducible."""
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n"


#: lines :func:`movement` reports before summing up the rest
MOVEMENT_LINES = 20


def _bare(value: Any) -> Any:
    """An encoded dataclass as its fields plus its class tag, a tuple
    as its items, a keyed map by its keys: none adds a path step."""
    if not isinstance(value, dict):
        return value
    if "__dataclass__" in value:
        return dict(value["fields"], __dataclass__=value["__dataclass__"])
    if "__dict__" in value:
        return {json.dumps(k): v for k, v in value["__dict__"]}
    return value.get("__tuple__", value)


def movement(old: Any, new: Any) -> List[str]:
    """Each leaf that moved between two decoded JSON documents, by its
    path of keys and indices (``standings[0].scheme``): non-numbers
    (strings, bools, None, keys added or removed, list lengths) first,
    then numbers ``old -> new (+x.xx%)``, largest relative change
    first, ties by path; at most :data:`MOVEMENT_LINES` lines."""
    other: List[str] = []
    numbers: List[Tuple[float, str, str]] = []

    def walk(path: str, a: Any, b: Any) -> None:
        a, b = _bare(a), _bare(b)
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                step = f"{path}.{key}" if path else key
                if key in a and key in b:
                    walk(step, a[key], b[key])
                else:
                    other.append(f"{step}: {'added' if key in b else 'removed'}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                other.append(f"{path}: length {len(a)} -> {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        elif type(a) in (int, float) and type(b) in (int, float):
            if a != b:  # a number off zero moves by an infinite share
                rel = (b - a) / abs(a) if a else (b - a) * float("inf")
                numbers.append((-abs(rel), path,
                                f"{path}: {a!r} -> {b!r} ({rel:+.2%})"))
        elif a != b or type(a) is not type(b):
            brief = [type(v).__name__ if isinstance(v, (dict, list))
                     else repr(v) for v in (a, b)]
            other.append(f"{path}: {brief[0]} -> {brief[1]}")

    walk("", old, new)
    lines = other + [line for _, _, line in sorted(numbers)]
    if len(lines) > MOVEMENT_LINES:
        rest = len(lines) - MOVEMENT_LINES
        lines = lines[:MOVEMENT_LINES] + [f"… and {rest} more"]
    return lines


def content_hash(obj: Any) -> str:
    """Stable hex digest of ``obj``'s canonical JSON: the first 16 hex
    digits of its SHA-256."""
    digest = hashlib.sha256(canonical_json(obj).encode()).hexdigest()
    return digest[:16]
