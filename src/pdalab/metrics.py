"""Line-delimited metrics records, one per epoch, and the document codec.

Each line is a self-contained JSON object carrying the schema version;
readers reject unknown major versions.  Floats are written with
round-trip precision (Python repr), so a parse -> serialize cycle is
lossless.  Wall-clock timing is deliberately not serialized: metrics
files must be byte-identical across reruns of the same (config, seed).

:func:`to_plain` and :func:`from_plain` are the one serializer and the
one reader of every document pdalab reads or writes (run config,
metrics records, dataset metadata); :func:`unique_keys` rejects a
repeated key in every JSON document read; :func:`atomic_write` is the
one way an output file is written.
"""

from __future__ import annotations

import json
import math
import os
import types
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

from .bound import BoundReport
from .losses import LossBreakdown

SCHEMA_VERSION = "1.0"


class MetricsSchemaError(ValueError):
    """A metrics file uses an unsupported schema version."""


class DuplicateKeyError(ValueError):
    """A JSON object gives one key twice."""


def unique_keys(pairs) -> dict:
    """The ``object_pairs_hook`` of every JSON document pdalab reads: the
    object as a dict, or DuplicateKeyError at its first repeated key, where
    ``json`` alone keeps the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DuplicateKeyError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def to_plain(value):
    """JSON/YAML-ready form: dataclasses become dicts of their fields and
    tuples become lists, recursively."""
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    return value


def _error(where: str, message: str) -> ValueError:
    return ValueError(f"{where}: {message}" if where else message)


def _value(value, hint, where: str, strict: bool):
    """``value`` checked against the annotation ``hint``.

    An int widens to a float, a bool is never a number, and a float must
    be finite.  ``list[X]`` and ``tuple[X, ...]`` check each element as
    ``where[i]``; ``X | None`` checks against X; a dataclass annotation
    reads a nested section.
    """
    if is_dataclass(hint):
        return from_plain(hint, value, where, strict=strict)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        (hint,) = [a for a in args if a is not type(None)]
        return _value(value, hint, where, strict)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise _error(where, f"expected list, got {type(value).__name__}")
        return origin(_value(v, args[0], f"{where}[{i}]", strict)
                      for i, v in enumerate(value))
    if hint is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # beyond the float range: reported as non-finite
            value = math.inf if value > 0 else -math.inf
    if not isinstance(value, hint) or (isinstance(value, bool) and hint is not bool):
        raise _error(where, f"expected {hint.__name__}, got {type(value).__name__}")
    if hint is float and not math.isfinite(value):
        raise _error(where, f"expected a finite float, got {value!r}")
    return value


def from_plain(cls, raw, where: str = "", *, strict: bool = True, **dispatch):
    """A ``cls`` instance back from its :func:`to_plain` form.

    The fields are the keys and their annotations the types (see
    :func:`_value`).  A missing or null key takes the field's default,
    else None if the annotation allows it.  Unknown keys, in nested
    sections too, are rejected if ``strict`` and ignored if not.  Errors
    are ValueErrors naming the key path; ``where`` is the section's path
    ("" at the root).  ``dispatch`` maps a field to its own reader,
    called as ``reader(value, path)``.
    """
    if not isinstance(raw, dict):
        raise _error(where, f"expected a mapping, got {type(raw).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(raw) - allowed
    if strict and unknown:
        raise _error(where, f"unknown keys {sorted(unknown, key=str)}; "
                            f"allowed: {sorted(allowed)}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        value = raw.get(f.name)
        if value is not None:
            values[f.name] = (dispatch[f.name](value, path) if f.name in dispatch
                              else _value(value, hints[f.name], path, strict))
        elif f.default is MISSING and f.default_factory is MISSING:
            if type(None) not in get_args(hints[f.name]):
                raise _error(path, "a value is required")
            values[f.name] = None
    try:
        return cls(**values)
    except ValueError as exc:
        raise _error(where, str(exc)) from None


def same_major(version, supported: str) -> bool:
    """Whether the ``schema`` string ``version`` has the major of ``supported``."""
    return str(version).split(".")[0] == supported.split(".")[0]


@contextmanager
def atomic_write(path):
    """A text handle (UTF-8, LF) whose contents replace ``path`` on success.

    The data goes to a temporary file in the same directory, renamed over
    ``path`` once the block completes; if the block fails, the temporary
    file is removed and ``path`` keeps its earlier contents, if any.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class MetricsRecord:
    epoch: int
    target_accuracy: float | None
    class_weights: list[float]
    losses: LossBreakdown | None
    bound: BoundReport | None

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, **to_plain(self)}

    @staticmethod
    def from_dict(d) -> "MetricsRecord":
        """Read one record; keys this reader does not know are ignored."""
        if isinstance(d, dict) and not same_major(d.get("schema"), SCHEMA_VERSION):
            raise MetricsSchemaError(f"unsupported metrics schema {d.get('schema')!r}")
        return from_plain(MetricsRecord, d, strict=False)


def to_json_line(record: MetricsRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


def write_metrics(path, records: list[MetricsRecord]) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(to_json_line(rec))
            fh.write("\n")


def read_metrics(path) -> list[MetricsRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(MetricsRecord.from_dict(
                    json.loads(line, object_pairs_hook=unique_keys)))
            except MetricsSchemaError as exc:
                raise MetricsSchemaError(f"{path}:{lineno}: {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad metrics record: {exc}") from None
    return records
