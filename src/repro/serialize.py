"""Canonical JSON serialization and content hashing.

Every configuration and result object in the run pipeline round-trips
through plain JSON-able dicts (``to_dict`` / ``from_dict``).  This module
provides the shared machinery:

:func:`to_jsonable`
    Recursively convert a value to JSON-able primitives, preferring an
    object's own ``to_dict``.  Raises :class:`~repro.errors.ConfigError`
    for values that cannot be represented (the clear failure the sweep
    cache needs instead of a bare ``TypeError`` deep inside ``json``).
:func:`dataclass_to_dict`
    The shared ``to_dict`` body of the flat config dataclasses: field
    names resolved once per class, primitives passed through, anything
    else through :func:`to_jsonable`.
:func:`canonical_json`
    Deterministic JSON text (sorted keys, no whitespace) — the hashing
    pre-image.
:func:`content_hash` / :func:`json_digest`
    Stable hex digest of the canonical JSON; used as the memo key and the
    on-disk cache filename.  :func:`json_digest` skips the
    :func:`to_jsonable` pass for data that is already JSON primitives
    (every ``to_dict`` result in the spec tree).
:func:`dataclass_from_dict`
    Strict flat-dataclass reconstruction (unknown keys are a
    :class:`~repro.errors.ConfigError`, so stale cache entries fail
    loudly enough to be recomputed rather than mis-parsed).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json

from repro.errors import ConfigError

#: Length of the truncated sha256 hex digest used as a content key.  64
#: bits of collision resistance is ample for sweep-cache populations.
HASH_LEN = 16


def to_jsonable(value):
    """Convert *value* to JSON-able primitives (dict/list/str/num/bool/None).

    Objects exposing ``to_dict`` serialize themselves; enums serialize to
    their ``value``; other dataclasses are converted field-by-field.
    Anything else raises :class:`ConfigError`.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "to_dict"):
        return to_jsonable(value.to_dict())
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():
            if not isinstance(key, str):
                raise ConfigError(
                    f"cannot serialize dict key {key!r}: keys must be strings"
                )
            out[key] = to_jsonable(v)
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    raise ConfigError(
        f"value {value!r} of type {type(value).__name__} is not "
        "JSON-serializable; config overrides must be primitives, enums, "
        "or dataclasses with to_dict()"
    )


#: Exact types :func:`dataclass_to_dict` passes through unconverted.
#: Exact, not ``isinstance``: an ``IntEnum`` or ``str`` subclass still
#: takes the :func:`to_jsonable` path.
_PRIMITIVES = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def dataclass_to_dict(obj) -> dict:
    """Field-by-field JSON-able view of dataclass instance *obj*.

    Equivalent to ``{f.name: to_jsonable(getattr(obj, f.name)) for f in
    fields(obj)}``, but resolves the field names once per class and
    skips the conversion call for primitive values.  A value that
    cannot be represented still raises :class:`ConfigError`.
    """
    out = {}
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        out[name] = value if type(value) in _PRIMITIVES else to_jsonable(value)
    return out


def canonical_json(value) -> str:
    """Deterministic JSON text for *value* (the content-hash pre-image)."""
    return json.dumps(
        to_jsonable(value), sort_keys=True, separators=(",", ":")
    )


def json_digest(data) -> str:
    """Content hash of *data*, which must already be JSON primitives.

    Byte-identical to :func:`content_hash` on such data, without the
    :func:`to_jsonable` walk.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:HASH_LEN]


def content_hash(value) -> str:
    """Stable content hash of *value*'s canonical JSON form."""
    return json_digest(to_jsonable(value))


def dataclass_from_dict(cls, data: dict):
    """Reconstruct a flat dataclass from *data*, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__}: expected a dict, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(
            f"{cls.__name__}: unknown field(s) {sorted(unknown)}"
        )
    return cls(**data)
