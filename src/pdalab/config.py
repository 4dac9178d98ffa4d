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

from dataclasses import dataclass, field

import yaml

from .data import SyntheticSpec
from .metrics import from_plain, read_text, to_plain
from .nets import ArchConfig
from .trainer import NAMED_VARIANTS, Schedule, VariantFlags


@dataclass(frozen=True)
class CsvDataConfig:
    source: str
    target: str
    metadata: str


def _parse_variant(value, where: str) -> str | VariantFlags:
    if isinstance(value, dict):
        return from_plain(VariantFlags, value, where)
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a preset name or a flag mapping")
    if value not in NAMED_VARIANTS:
        raise ValueError(f"{where}: unknown name {value!r}; "
                         f"known: {sorted(NAMED_VARIANTS)}")
    return value


@dataclass(frozen=True)
class _DataSection:
    """The ``data`` mapping: one of its two kinds, synthetic if neither."""

    synthetic: SyntheticSpec | None = None
    csv: CsvDataConfig | None = None


def _parse_data(value, where: str) -> SyntheticSpec | CsvDataConfig:
    section = from_plain(_DataSection, value, where)
    if section.synthetic is not None and section.csv is not None:
        raise ValueError(f"{where}: specify either synthetic or csv, not both")
    return section.csv or section.synthetic or SyntheticSpec()


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str | None = None
    variant: str | VariantFlags = "san_pp"
    data: SyntheticSpec | CsvDataConfig = field(default_factory=SyntheticSpec)
    arch: ArchConfig = field(default_factory=ArchConfig)
    schedule: Schedule = field(default_factory=Schedule)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def flags(self) -> VariantFlags:
        if isinstance(self.variant, VariantFlags):
            return self.variant
        return NAMED_VARIANTS[self.variant]

    def to_dict(self) -> dict:
        d = to_plain(self)
        kind = "synthetic" if isinstance(self.data, SyntheticSpec) else "csv"
        d["data"] = {kind: d["data"]}
        return d

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        """Read a config; a null document is the all-defaults config."""
        return from_plain(RunConfig, {} if raw is None else raw,
                          variant=_parse_variant, data=_parse_data)


class _DuplicateKeyError(yaml.MarkedYAMLError):
    """A key given twice in one mapping: valid YAML syntax, so not "invalid YAML"."""


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.safe_load``'s loader, except that a mapping may not repeat a key.

    Keys merged in with ``<<`` may still be overridden, as YAML allows.
    """

    def fetch_flow_collection_start(self, token_class):
        if self.flow_level >= 100:  # the scanner's time grows as the square of the depth
            raise RecursionError
        super().fetch_flow_collection_start(token_class)

    def construct_mapping(self, node, deep=False):
        own_keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in own_keys:
            key = self.constructed_objects[key_node]
            if key in seen:
                raise _DuplicateKeyError(problem=f"duplicate key {key!r}",
                                         problem_mark=key_node.start_mark)
            seen.add(key)
        return mapping


def load_config(path) -> RunConfig:
    """Read a config file; every error is one line naming the file, and a
    YAML error or a repeated key also its line and column."""
    text = read_text(path)
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        kind = "" if isinstance(exc, _DuplicateKeyError) else "invalid YAML: "
        raise ValueError(f"{path}:{mark.line + 1}:{mark.column + 1}: "
                         f"{kind}{exc.problem}") from None
    except yaml.reader.ReaderError as exc:  # a character YAML does not allow
        line = text.count("\n", 0, exc.position) + 1
        col = exc.position - text.rfind("\n", 0, exc.position)
        raise ValueError(f"{path}:{line}:{col}: invalid YAML: "
                         f"unacceptable character #x{exc.character:04x}") from None
    except RecursionError:
        raise ValueError(f"{path}: nesting too deep") from None
    try:
        return RunConfig.from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)
