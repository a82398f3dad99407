"""Canonical serialization: the content-addressing substrate.

A cache key must be a pure function of *what was asked for* -- not of
dict insertion order, tuple-vs-list spelling, or float printing.  This
module renders a task spec into canonical bytes with explicit type
tags, then hashes them:

- floats are encoded via :meth:`float.hex` (bit-exact, locale-free);
- dicts are sorted by the canonical encoding of their keys;
- tuples and lists encode identically (a spec is a value, not a type);
- dataclasses encode as their qualified name plus each field in
  declaration order, so adding a field (new behavior) changes every key;
- :class:`numpy.ndarray` encodes dtype, shape, and C-order payload
  bytes; numpy scalars encode as their Python equivalents;
- :class:`numpy.random.SeedSequence` encodes entropy, spawn key, and
  pool size -- the full identity of a spawned child stream.

Anything else is rejected with :class:`ConfigurationError` rather than
falling back to ``repr``/``pickle``: a silent unstable encoding would
poison the cache with keys that never hit again (or worse, collide).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import List

import numpy as np

from repro.core.errors import ConfigurationError


def _encode(obj: object, out: List[bytes]) -> None:
    if obj is None:
        out.append(b"n;")
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        out.append(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        out.append(b"i%d;" % obj)
    elif isinstance(obj, float):
        # float.hex() round-trips every finite double exactly and spells
        # nan/inf unambiguously.
        out.append(b"f" + obj.hex().encode("ascii") + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(b"s%d:" % len(raw) + raw + b";")
    elif isinstance(obj, bytes):
        out.append(b"y%d:" % len(obj) + obj + b";")
    elif isinstance(obj, np.generic):
        _encode(obj.item(), out)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out.append(
            b"a" + arr.dtype.str.encode("ascii")
            + repr(arr.shape).encode("ascii") + b":"
        )
        out.append(arr.tobytes())
        out.append(b";")
    elif isinstance(obj, (tuple, list)):
        out.append(b"l(")
        for item in obj:
            _encode(item, out)
        out.append(b")")
    elif isinstance(obj, dict):
        pairs = []
        for key, value in obj.items():
            key_out: List[bytes] = []
            _encode(key, key_out)
            pairs.append((b"".join(key_out), value))
        pairs.sort(key=lambda kv: kv[0])
        out.append(b"d(")
        for key_bytes, value in pairs:
            out.append(key_bytes)
            _encode(value, out)
        out.append(b")")
    elif isinstance(obj, enum.Enum):
        tag = f"{type(obj).__module__}.{type(obj).__qualname__}.{obj.name}"
        out.append(b"e" + tag.encode("utf-8") + b";")
    elif isinstance(obj, np.random.SeedSequence):
        out.append(b"S(")
        _encode(obj.entropy, out)
        _encode(tuple(obj.spawn_key), out)
        _encode(int(obj.pool_size), out)
        out.append(b")")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        tag = f"{type(obj).__module__}.{type(obj).__qualname__}"
        out.append(b"D" + tag.encode("utf-8") + b"(")
        for field in dataclasses.fields(obj):
            _encode(field.name, out)
            _encode(getattr(obj, field.name), out)
        out.append(b")")
    else:
        raise ConfigurationError(
            f"cannot canonicalize {type(obj).__qualname__!r} for a cache key; "
            "use primitives, containers, dataclasses, numpy arrays, or "
            "SeedSequence"
        )


def canonical_bytes(obj: object) -> bytes:
    """Deterministic, type-tagged byte encoding of a task spec."""
    out: List[bytes] = []
    _encode(obj, out)
    return b"".join(out)


def spec_digest(obj: object) -> str:
    """SHA-256 hex digest of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def fn_identity(fn: object) -> str:
    """The stable name a callable contributes to cache keys."""
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", type(fn).__qualname__
    )
    return f"{module}.{qualname}"
