"""Line-delimited metrics records, one per epoch, and the document codec.

Each line is a self-contained JSON object carrying the schema version;
readers reject unknown major versions.  Floats are written with
round-trip precision (Python repr), so a parse -> serialize cycle is
lossless.  Wall-clock timing is deliberately not serialized: metrics
files must be byte-identical across reruns of the same (config, seed).

:func:`to_plain` and :func:`from_plain` are the one serializer and the
one reader of every document pdalab reads or writes; :func:`read_text`
reads every input file, and :func:`load_json` a JSON one, where
:func:`unique_keys` rejects a repeated key;
:func:`write_files` writes every command's output files as one set and
:func:`csv_text` serializes every CSV table.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import types
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


def read_text(path) -> str:
    """The text of an input file; a file it cannot read, or bytes that are
    not UTF-8, is a ValueError naming it.  Line endings are kept as they are."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def load_json(path, what: str):
    """The JSON document in ``path``; a file :func:`read_text` rejects, a
    repeated key, nesting too deep to parse, or text that is not JSON
    (``not a JSON <what>``) is a ValueError naming it."""
    text = read_text(path)
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except DuplicateKeyError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: nesting too deep") from None
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON {what} ({exc})") from None


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


def write_files(files: dict) -> None:
    """Commit ``files``, a dict from path to text, as one set; a None text
    removes its path.

    A path that is a directory is a ValueError, raised before anything is
    written; missing parent directories are created.  Each text (UTF-8, LF)
    is staged as a temporary file beside its path, under a short name that
    does not grow with the path's, and only when all are staged are they
    renamed into place and the None paths removed.  An OSError is a ValueError
    naming the path.  If it comes before the first rename, the temporaries and
    then the directories made are removed, and every path keeps its earlier
    contents, if any.  POSIX renames one file at a time: a failed rename can
    mix the set.
    """
    files = {Path(p): text for p, text in files.items()}
    staged, made = {}, []
    try:
        for path in files:
            if path.is_dir():
                raise ValueError(f"{path}: is a directory")
        for path, text in files.items():
            if text is not None:
                for d in reversed((path.parent, *path.parent.parents)):  # outermost first
                    if not d.is_dir():
                        d.mkdir()
                        made.append(d)
                staged[path] = path.parent / f".{os.getpid()}.{len(staged)}.tmp"
                with open(staged[path], "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
        for path, text in files.items():
            if text is None:
                path.unlink(missing_ok=True)
            else:
                os.replace(staged[path], path)
    except BaseException as exc:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        for directory in reversed(made):
            with contextlib.suppress(OSError):  # one that a rename filled stays
                directory.rmdir()
        if isinstance(exc, OSError):
            raise ValueError(f"{path}: {exc.strerror}") from None
        raise


def csv_text(header, rows) -> str:
    """``header`` then ``rows`` as CSV, LF-terminated; a float is written
    with round-trip precision (its repr), any other value by ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue()


@dataclass
class MetricsRecord:
    epoch: int
    target_accuracy: float | None
    class_weights: list[float]
    losses: LossBreakdown | None
    bound: BoundReport | None

    def __post_init__(self):
        if self.bound is not None and self.bound.epoch != self.epoch:
            raise ValueError(f"bound.epoch {self.bound.epoch} disagrees with "
                             f"epoch {self.epoch}")

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


def metrics_text(records: list[MetricsRecord]) -> str:
    return "".join(to_json_line(rec) + "\n" for rec in records)


def write_metrics(path, records: list[MetricsRecord]) -> None:
    write_files({path: metrics_text(records)})


def read_metrics(path) -> list[MetricsRecord]:
    """A run's records, which hold epochs 0, 1, ... in order; an empty file,
    or a record out of that order, is a ValueError naming the file."""
    records = []
    # Split as a text-mode file splits: at LF, CRLF or CR.
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(MetricsRecord.from_dict(
                json.loads(line, object_pairs_hook=unique_keys)))
        except MetricsSchemaError as exc:
            raise MetricsSchemaError(f"{path}:{lineno}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}:{lineno}: nesting too deep") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad metrics record: {exc}") from None
        if records[-1].epoch != len(records) - 1:
            raise ValueError(f"{path}:{lineno}: epoch {records[-1].epoch} out of "
                             f"order (expected epoch {len(records) - 1})")
    if not records:
        raise ValueError(f"{path}: no metrics records")
    return records
