"""Uniform snapshot protocol for the per-component ``*Stats`` dataclasses.

Every statistics container in the simulator (``BankStats``,
``ControllerStats``, ``RefreshStats``, ``TaskStats``, ``VmStats``)
mixes in :class:`StatsBase`, which derives the whole protocol from the
dataclass field list:

``snapshot()``
    Raw field values as a dict in **declaration order** — the form the
    :class:`~repro.telemetry.registry.MetricsRegistry` flattens into
    dotted metric names.
``to_dict()``
    JSON-able form of the snapshot (nested dict keys stringified), the
    canonical serialization used for export.
``from_dict()``
    Inverse of ``to_dict`` (numeric dict keys are restored), so stats
    round-trip losslessly through JSON.

Analysis rule RPR009 asserts that every ``*Stats`` dataclass in the
simulator packages opts into this protocol.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


def _jsonable_value(value):
    """JSON-able view of one field value (dict keys become strings)."""
    if isinstance(value, dict):
        return {str(k): _jsonable_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_value(v) for v in value]
    return value


def _restore_value(value):
    """Inverse of :func:`_jsonable_value`: numeric-string dict keys back
    to ints (stats dicts are keyed by bank/task indices)."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            try:
                key = int(k)
            except (TypeError, ValueError):
                key = k
            out[key] = _restore_value(v)
        return out
    if isinstance(value, list):
        return [_restore_value(v) for v in value]
    return value


class StatsBase:
    """Mixin giving a stats dataclass the uniform telemetry protocol."""

    def snapshot(self) -> dict:
        """Field values in declaration order (raw, not JSON-normalized)."""
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    def to_dict(self) -> dict:
        """JSON-able snapshot: declaration-ordered, stringified dict keys."""
        return {k: _jsonable_value(v) for k, v in self.snapshot().items()}

    @classmethod
    def from_dict(cls, data: dict):
        """Reconstruct from :meth:`to_dict` output; unknown keys fail
        loudly so stale payloads are recomputed rather than mis-parsed."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"{cls.__name__}: expected a dict, got {type(data).__name__}"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ConfigError(f"{cls.__name__}: unknown field(s) {unknown}")
        return cls(**{k: _restore_value(v) for k, v in data.items()})
