"""Run configuration: strict YAML schema, resolution, and serialization.

Every section is read from its dataclass by ``metrics.from_plain``: the
fields are the allowed keys, their defaults the defaults, and their
annotations the type each value, and each element of a list, must have.
Unknown keys are rejected and errors name the key path
(``arch.hidden[1]``).
Serialization always writes the fully resolved form (no hidden
defaults), so the effective configuration stored next to a run's
outputs replays the run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import yaml

from .data import SyntheticSpec
from .metrics import from_plain, to_plain
from .nets import ArchSpec
from .rngstreams import substream_seed
from .trainer import NAMED_VARIANTS, Schedule, VariantFlags, resolve_variant


class ConfigError(ValueError):
    """The configuration is malformed or fails validation."""


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
        return from_plain(VariantFlags, value, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a preset name or a flag mapping")
    if value not in NAMED_VARIANTS:
        raise ConfigError(f"{where}: unknown name {value!r}; "
                          f"known: {sorted(NAMED_VARIANTS)}")
    return value


@dataclass(frozen=True)
class _DataSection:
    """The ``data`` mapping: one of its two kinds, synthetic if neither."""

    synthetic: SyntheticDataConfig | None = None
    csv: CsvDataConfig | None = None


def _parse_data(value, where: str) -> SyntheticDataConfig | CsvDataConfig:
    section = from_plain(_DataSection, value, where)
    if section.synthetic is not None and section.csv is not None:
        raise ConfigError(f"{where}: specify either synthetic or csv, not both")
    return section.csv or section.synthetic or SyntheticDataConfig()


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
        """Read a config; a null document is the all-defaults config."""
        try:
            return from_plain(RunConfig, {} if raw is None else raw,
                              variant=_parse_variant, data=_parse_data)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    """Read a config file; a YAML error is one line naming its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ConfigError(f"{path}:{mark.line + 1}:{mark.column + 1}: "
                          f"invalid YAML: {exc.problem}") from None
    except yaml.reader.ReaderError as exc:  # a character YAML does not allow
        line = text.count("\n", 0, exc.position) + 1
        col = exc.position - text.rfind("\n", 0, exc.position)
        raise ConfigError(f"{path}:{line}:{col}: invalid YAML: "
                          f"unacceptable character #x{exc.character:04x}") from None
    return RunConfig.from_dict(raw)


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)
