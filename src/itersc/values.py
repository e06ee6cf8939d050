"""Canonical value handling: freezing, ordering, JSON encoding.

Every value inside a state is immutable and hashable, so that states can be
compared and hashed structurally.  Input from outside the program is frozen
on entry; automata build everything else from immutable values and keep
their locals as frozen records.  Bottom is represented by ``None`` throughout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any


def frozen_record(cls):
    """Give a frozen slotted dataclass an ``__init__`` of the same signature that stores
    each field through its slot descriptor, about twice as fast as ``object.__setattr__``."""
    fields, params = dataclasses.fields(cls), cls.__dataclass_params__
    if (not (fields and params.frozen and "__slots__" in vars(cls)) or hasattr(cls, "__post_init__")
            or any(not f.init or f.kw_only or f.default_factory is not dataclasses.MISSING
                   for f in fields)):
        raise TypeError(f"{cls.__name__} is not a plain frozen slotted dataclass")
    ns = {f"_set_{f.name}": vars(cls)[f.name].__set__ for f in fields}
    exec(f"def __init__(self, {', '.join(f.name for f in fields)}):"
         + "".join(f"\n    _set_{f.name}(self, {f.name})" for f in fields), ns)
    cls.__init__ = ns["__init__"]
    cls.__init__.__defaults__ = tuple(f.default for f in fields if f.default is not dataclasses.MISSING)
    return cls


def freeze(value: Any) -> Any:
    """Return a hashable, canonical version of ``value``.

    dicts become sorted key/value tuples tagged with ``'#map'`` so they
    cannot collide with plain tuples; sets become sorted tuples tagged
    with ``'#set'``; lists and tuples become tuples.
    """
    if value is None or isinstance(value, (int, float, str, bool, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("#set", tuple(sorted((freeze(v) for v in value), key=_sort_key)))
    if isinstance(value, dict):
        items = sorted(((k, freeze(v)) for k, v in value.items()), key=lambda kv: _sort_key(kv[0]))
        return ("#map", tuple(items))
    raise TypeError(f"cannot freeze value of type {type(value).__name__}")


def _sort_key(value: Any) -> tuple:
    # total order across the mixed types that appear in states
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, str(int(value)))
    if isinstance(value, (int, float)):
        return (2, f"{float(value):030.10f}")
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (3, value.decode("latin1"))
    if isinstance(value, tuple):
        return (4, "|".join(str(_sort_key(v)) for v in value))
    if isinstance(value, frozenset):
        return (5, "|".join(str(_sort_key(v)) for v in sorted(value, key=_sort_key)))
    return (9, repr(value))


def sorted_values(values) -> list:
    return sorted(values, key=_sort_key)


def jsonable(value: Any) -> Any:
    """Convert a frozen value into plain JSON data (bottom -> null); a
    dataclass without ``to_jsonable`` (a locals record) gives its fields."""
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if hasattr(value, "to_jsonable"):
        return jsonable(value.to_jsonable())
    if dataclasses.is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, bytes):
        return value.decode("latin1")
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == "#set":
            return {"set": [jsonable(v) for v in value[1]]}
        if len(value) == 2 and value[0] == "#map":
            return {str(k): jsonable(v) for k, v in value[1]}
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"set": [jsonable(v) for v in sorted_values(value)]}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, list):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(value: Any) -> str:
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """Short stable digest used in traces and path exports."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:12]
