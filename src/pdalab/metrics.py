"""Line-delimited metrics records, one per epoch.

Each line is a self-contained JSON object carrying the schema version;
readers reject unknown major versions.  Floats are written with
round-trip precision (Python repr), so a parse -> serialize cycle is
lossless.  Wall-clock timing is deliberately not serialized: metrics
files must be byte-identical across reruns of the same (config, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import get_type_hints

from .bound import BoundReport
from .losses import LossBreakdown

SCHEMA_VERSION = "1.0"
SCHEMA_MAJOR = 1


class MetricsSchemaError(ValueError):
    """A metrics file uses an unsupported schema version."""


def to_plain(value):
    """JSON/YAML-ready form: dataclasses become dicts of their fields and
    tuples become lists, recursively."""
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    return value


def from_plain(cls, d: dict, where: str):
    """A flat dataclass of numbers back from its :func:`to_plain` form.

    Extra keys are ignored.  Each value must be a number of its field's
    type (an int also passes for a float, a boolean never does); errors
    name the field as ``where.field``.
    """
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} must be a mapping, got {type(d).__name__}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        value, hint = d[f.name], hints[f.name]
        allowed = (int, float) if hint is float else hint
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise TypeError(f"{where}.{f.name}: expected {hint.__name__}, "
                            f"got {type(value).__name__}")
        values[f.name] = value
    return cls(**values)


@dataclass
class MetricsRecord:
    epoch: int
    target_accuracy: float | None
    class_weights: list[float]
    losses: LossBreakdown | None
    bound: BoundReport | None
    wall_clock_s: float | None = None  # in-memory only, never serialized

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "epoch": int(self.epoch),
            "target_accuracy": None if self.target_accuracy is None
            else float(self.target_accuracy),
            "class_weights": [float(v) for v in self.class_weights],
            "losses": to_plain(self.losses),
            "bound": to_plain(self.bound),
        }

    @staticmethod
    def from_dict(d: dict) -> "MetricsRecord":
        if not isinstance(d, dict):
            raise TypeError(f"a record must be a JSON object, got {type(d).__name__}")
        major = int(str(d.get("schema", "0")).split(".")[0])
        if major != SCHEMA_MAJOR:
            raise MetricsSchemaError(f"unsupported metrics schema {d.get('schema')!r}")
        return MetricsRecord(
            epoch=int(d["epoch"]),
            target_accuracy=d["target_accuracy"],
            class_weights=list(d["class_weights"]),
            losses=None if d["losses"] is None
            else from_plain(LossBreakdown, d["losses"], "losses"),
            bound=None if d["bound"] is None else from_plain(BoundReport, d["bound"], "bound"),
        )


def to_json_line(record: MetricsRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


def write_metrics(path, records: list[MetricsRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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
                records.append(MetricsRecord.from_dict(json.loads(line)))
            except MetricsSchemaError as exc:
                raise MetricsSchemaError(f"{path}:{lineno}: {exc}") from None
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad metrics record: {exc}") from None
    return records
