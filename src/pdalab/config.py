"""Run configuration: strict YAML schema, resolution, and serialization.

One parser reads every section from its dataclass: the fields are the
allowed keys, their defaults the defaults, and their annotations the
type each value, and each element of a list, must have.  Unknown keys
are rejected and errors name the key path (``arch.hidden[1]``).
Serialization always writes the fully resolved form (no hidden
defaults), so the effective configuration stored next to a run's
outputs replays the run exactly.
"""

from __future__ import annotations

import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

import yaml

from .data import SyntheticSpec
from .metrics import to_plain
from .nets import ArchSpec
from .rngstreams import substream_seed
from .trainer import NAMED_VARIANTS, Schedule, VariantFlags, resolve_variant


class ConfigError(ValueError):
    """The configuration is malformed or fails validation."""


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}; "
                          f"allowed: {sorted(allowed)}")


def _value(value, hint, where: str):
    """``value`` checked against the annotation ``hint``.

    Ints widen to float, never booleans to numbers; a list becomes a
    tuple with each element checked as ``where[i]``; ``X | None`` checks
    against X; a dataclass annotation parses a nested section.
    """
    if is_dataclass(hint):
        return _parse(hint, value, where)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        (hint,) = [a for a in args if a is not type(None)]
        return _value(value, hint, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected list, got {type(value).__name__}")
        return tuple(_value(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) and hint in (int, float):
        raise ConfigError(f"{where}: expected {hint.__name__}, got a boolean")
    if hint is float and isinstance(value, int):
        return float(value)
    if not isinstance(value, hint):
        raise ConfigError(f"{where}: expected {hint.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _parse(cls, raw, where: str = "", **dispatch):
    """A ``cls`` instance from a mapping with one key per dataclass field.

    A missing or null key takes the field's default.  ``where`` is the
    section's key path ("" at the root); ``dispatch`` maps a field whose
    annotation is a union of section kinds to its own parser.
    """
    name = where or "config"
    d = _require_mapping(raw, name)
    _check_keys(d, {f.name for f in fields(cls)}, name)
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        value = d.get(f.name)
        if value is not None:
            values[f.name] = (dispatch[f.name](value, path) if f.name in dispatch
                              else _value(value, hints[f.name], path))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: a value is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class SyntheticDataConfig:
    """SyntheticSpec fields; a null seed derives from the experiment seed."""

    dim: int = 2
    num_source_classes: int = 5
    shared_classes: tuple[int, ...] = (0, 1, 2)
    samples_per_class: int = 100
    cluster_means: tuple[tuple[float, ...], ...] | None = None
    cluster_std: float = 0.35
    target_rotation: float = 0.3
    target_shift: tuple[float, ...] = (0.5, 0.5)
    seed: int | None = None

    def to_spec(self, experiment_seed: int) -> SyntheticSpec:
        seed = self.seed if self.seed is not None \
            else substream_seed(experiment_seed, "datagen")
        try:
            return SyntheticSpec(**{f.name: getattr(self, f.name) for f in fields(self)}
                                 | {"seed": seed})
        except ValueError as exc:
            raise ConfigError(f"data.synthetic: {exc}") from None


@dataclass(frozen=True)
class CsvDataConfig:
    source: str
    target: str
    metadata: str


@dataclass(frozen=True)
class ArchConfig:
    hidden: tuple[int, ...] = (16, 16)
    disc_hidden: tuple[int, ...] = ()

    def to_arch(self, in_dim: int, num_classes: int) -> ArchSpec:
        try:
            return ArchSpec(in_dim=in_dim, num_classes=num_classes,
                            hidden=self.hidden, disc_hidden=self.disc_hidden)
        except ValueError as exc:
            raise ConfigError(f"arch: {exc}") from None


def _parse_variant(value, where: str) -> str | VariantFlags:
    if isinstance(value, dict):
        return _parse(VariantFlags, value, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a preset name or a flag mapping")
    if value not in NAMED_VARIANTS:
        raise ConfigError(f"{where}: unknown name {value!r}; "
                          f"known: {sorted(NAMED_VARIANTS)}")
    return value


def _parse_data(value, where: str) -> SyntheticDataConfig | CsvDataConfig:
    d = _require_mapping(value, where)
    _check_keys(d, {"synthetic", "csv"}, where)
    if "csv" in d and "synthetic" in d:
        raise ConfigError(f"{where}: specify either synthetic or csv, not both")
    if "csv" in d:
        return _parse(CsvDataConfig, d["csv"], f"{where}.csv")
    return _parse(SyntheticDataConfig, d.get("synthetic"), f"{where}.synthetic")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str | None = None
    variant: str | VariantFlags = "san_pp"
    data: SyntheticDataConfig | CsvDataConfig = field(default_factory=SyntheticDataConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    schedule: Schedule = field(default_factory=Schedule)

    def flags(self) -> VariantFlags:
        try:
            return resolve_variant(self.variant)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"variant: {exc}") from None

    def to_dict(self) -> dict:
        d = to_plain(self)
        kind = "synthetic" if isinstance(self.data, SyntheticDataConfig) else "csv"
        d["data"] = {kind: d["data"]}
        return d

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        return _parse(RunConfig, raw, variant=_parse_variant, data=_parse_data)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    return RunConfig.from_dict(raw)


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)
