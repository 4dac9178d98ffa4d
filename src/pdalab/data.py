"""Synthetic two-domain datasets and tabular dataset ingestion.

The toy generator lays out Gaussian class clusters for the source
domain and produces the target domain from the shared-class clusters
after a rigid shift (rotation plus translation), so the source class
space strictly subsumes the target class space.  Target labels exist
only inside the returned oracle context; the target dataset itself is
unlabeled.

CSV format: one domain per file; header ``x0,...,x{d-1},y,domain``;
``y`` empty in every row of an unlabeled file; ``domain`` 0 (target) or
1 (source) in every row; UTF-8, LF line endings, decimal-point reals
written with round-trip precision.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .bound import OracleContext, in_classes
from .metrics import csv_text, from_plain, load_json, read_text, to_plain, write_files

# Default cluster layout: a circle whose radius and phase are calibrated so
# the shifted target clusters cross source decision boundaries (plain source
# training is clearly imperfect) while each still sits closest to its own
# source cluster (adaptation is feasible).
DEFAULT_MEAN_RADIUS = 1.7
DEFAULT_MEAN_PHASE = 0.4 * math.pi
# The files of a dataset directory, by role.
DATASET_FILES = {"source": "source.csv", "target": "target.csv", "metadata": "metadata.json"}


@dataclass
class Dataset:
    """One domain's rows: features ``x`` and labels ``y``, None if unlabeled."""

    x: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.int64)
            if self.y.shape != (self.x.shape[0],):
                raise ValueError("feature/label lengths disagree")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Layout of the toy problem: 5 source classes, 3 shared by default.

    A None ``seed`` is left to the caller to derive (the CLI derives it
    from the experiment seed); :func:`generate_toy` needs it set.
    """

    dim: int = 2
    num_source_classes: int = 5
    shared_classes: tuple[int, ...] = (0, 1, 2)
    samples_per_class: int = 100
    cluster_means: tuple[tuple[float, ...], ...] | None = None
    cluster_std: float = 0.35
    target_rotation: float = 0.3
    target_shift: tuple[float, ...] = (0.5, 0.5)
    seed: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        shared = tuple(sorted(set(int(c) for c in self.shared_classes)))
        object.__setattr__(self, "shared_classes", shared)
        if not shared or min(shared) < 0 or max(shared) >= self.num_source_classes:
            raise ValueError("shared classes must be a nonempty subset of the source classes")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if self.cluster_std < 0:
            raise ValueError("cluster_std must be nonnegative")
        if len(self.target_shift) != self.dim:
            raise ValueError("target_shift length must equal dim")
        if self.cluster_means is not None:
            means = tuple(tuple(float(v) for v in m) for m in self.cluster_means)
            object.__setattr__(self, "cluster_means", means)
            if len(means) != self.num_source_classes or any(len(m) != self.dim for m in means):
                raise ValueError("one cluster mean of length dim per source class required")
        elif self.dim != 2:
            raise ValueError("explicit cluster_means are required when dim != 2")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def resolved_means(self) -> np.ndarray:
        if self.cluster_means is not None:
            return np.asarray(self.cluster_means, dtype=np.float64)
        k = self.num_source_classes
        angles = DEFAULT_MEAN_PHASE + 2.0 * np.pi * np.arange(k) / k
        return DEFAULT_MEAN_RADIUS * np.column_stack([np.cos(angles), np.sin(angles)])


def _rotation_matrix(dim: int, angle: float) -> np.ndarray:
    # Rotation acts in the first two coordinates; identity elsewhere.
    rot = np.eye(dim)
    if dim >= 2:
        c, s = math.cos(angle), math.sin(angle)
        rot[:2, :2] = [[c, -s], [s, c]]
    return rot


@np.errstate(all="ignore")  # a feature gone non-finite is an error below, unwarned
def generate_toy(spec: SyntheticSpec) -> tuple[Dataset, Dataset, OracleContext]:
    """Source dataset, unlabeled target dataset, and the oracle context."""
    if spec.seed is None:  # default_rng(None) would draw fresh entropy
        raise ValueError("generate_toy needs a seeded SyntheticSpec, got seed None")
    rng = np.random.default_rng(spec.seed)
    means = spec.resolved_means()
    n = spec.samples_per_class
    k = spec.num_source_classes
    if len(means) != k:  # np.arange(k) is empty for some k near 2**63
        raise ValueError(f"cannot lay out {k} class means")

    src_x = np.vstack([means[c] + spec.cluster_std * rng.standard_normal((n, spec.dim))
                       for c in range(k)])
    src_y = np.repeat(np.arange(k), n)

    rot = _rotation_matrix(spec.dim, spec.target_rotation)
    shift = np.asarray(spec.target_shift, dtype=np.float64)
    tgt_means = means @ rot.T + shift
    tgt_x = np.vstack([tgt_means[c] + spec.cluster_std * rng.standard_normal((n, spec.dim))
                       for c in spec.shared_classes])
    tgt_labels = np.repeat(np.asarray(spec.shared_classes), n)
    if not (np.isfinite(src_x).all() and np.isfinite(tgt_x).all()):
        raise ValueError("non-finite feature value (cluster_std or a mean too large)")

    return Dataset(src_x, src_y), Dataset(tgt_x), OracleContext(spec.shared_classes, tgt_labels)


# ---------------------------------------------------------------------------
# CSV + metadata files
# ---------------------------------------------------------------------------

def dataset_csv_text(ds: Dataset, domain: int) -> str:
    """One domain's file (``domain`` 0 target, 1 source); an unlabeled
    dataset leaves every ``y`` blank."""
    y = [""] * len(ds) if ds.y is None else ds.y.tolist()
    return csv_text([f"x{i}" for i in range(ds.dim)] + ["y", "domain"],
                    ([*x, label, domain] for x, label in zip(ds.x.tolist(), y)))


def load_csv(path, domain: int) -> Dataset:
    """Parse one domain's file (``domain`` 0 target, 1 source), labeled in
    every row or in none; a malformed row raises with its line number."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    width = len(header) - 2
    if width < 1 or header != [f"x{i}" for i in range(width)] + ["y", "domain"]:
        raise ValueError(f"{path}: bad header {header!r}")
    xs, ys = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width + 2:
            raise ValueError(f"{path}:{lineno}: expected {width + 2} fields, "
                             f"got {len(row)}")
        try:
            xs.append([float(v) for v in row[:width]])
            ys.append(None if row[width] == "" else np.int64(row[width]))
            tag = int(row[width + 1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        except OverflowError:
            raise ValueError(f"{path}:{lineno}: label {row[width]} "
                             "beyond the int64 range") from None
        if tag != domain:
            raise ValueError(f"{path}:{lineno}: domain {tag} in a "
                             f"{('target', 'source')[domain]} file (expected {domain})")
        if (ys[-1] is None) != (ys[0] is None):
            raise ValueError(f"{path}:{ys.index(None) + 2}: "
                             "blank label in a partly labeled file "
                             "(label every row or none)")
    if not xs:
        raise ValueError(f"{path}: no data rows")
    x = np.asarray(xs)
    if not np.isfinite(x).all():  # row i is on line i + 2, below the header
        row = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
        raise ValueError(f"{path}:{row + 2}: non-finite feature value")
    return Dataset(x, None if ys[0] is None else ys)


@dataclass(frozen=True)
class Metadata:
    """The ``metadata.json`` sidecar of a dataset directory."""

    num_source_classes: int
    shared_classes: tuple[int, ...]
    dim: int

    def __post_init__(self):
        for key in ("num_source_classes", "dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        k = self.num_source_classes
        if k > np.iinfo(np.int64).max:  # as load_csv rejects a label
            raise ValueError(f"num_source_classes {k} beyond the int64 range")
        if not self.shared_classes or not all(0 <= c < k for c in self.shared_classes):
            raise ValueError(f"shared_classes must be a nonempty list of class indices "
                             f"in [0, {k}), got {list(self.shared_classes)}")


def metadata_text(num_source_classes: int, shared_classes, dim: int) -> str:
    shared = tuple(int(c) for c in sorted(set(shared_classes)))
    meta = Metadata(int(num_source_classes), shared, int(dim))
    return json.dumps(to_plain(meta), indent=2, sort_keys=True) + "\n"


def load_metadata(path) -> Metadata:
    """Read a metadata file; keys other than Metadata's fields are ignored."""
    raw = load_json(path, "metadata file")
    try:
        return from_plain(Metadata, raw, strict=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_experiment_data(out_dir, source: Dataset, target: Dataset,
                         oracle: OracleContext, num_source_classes: int) -> dict:
    """Write the :data:`DATASET_FILES` into ``out_dir``; returns their paths by role."""
    paths = {role: Path(out_dir) / name for role, name in DATASET_FILES.items()}
    write_files({paths["source"]: dataset_csv_text(source, 1),
                 paths["target"]: dataset_csv_text(Dataset(target.x, oracle.target_labels), 0),
                 paths["metadata"]: metadata_text(num_source_classes, oracle.shared_classes,
                                                  source.dim)})
    return paths


def _load_domain_csv(path, domain: int, meta: Metadata, metadata_path) -> Dataset:
    """One domain's file, checked for the metadata's dim."""
    data = load_csv(path, domain)
    if data.dim != meta.dim:
        raise ValueError(f"{metadata_path}: dim {meta.dim} disagrees with "
                         f"the {data.dim} feature columns of {path}")
    return data


def _load_target(target_path, meta: Metadata, metadata_path
                 ) -> tuple[Dataset, OracleContext | None]:
    target = _load_domain_csv(target_path, 0, meta, metadata_path)
    if target.y is None:
        return target, None
    shared = meta.shared_classes
    bad = np.flatnonzero(~in_classes(target.y, shared))
    if bad.size:  # row i of a loaded file is on line i + 2, below the header
        raise ValueError(f"{target_path}:{bad[0] + 2}: label {target.y[bad[0]]} "
                         f"outside the shared classes {sorted(set(shared))} "
                         f"of {metadata_path}")
    return Dataset(target.x), OracleContext(shared, target.y)


def load_target_data(target_path, metadata_path
                     ) -> tuple[Dataset, OracleContext | None, int]:
    """Load a target file alone; its labels move into the oracle context."""
    meta = load_metadata(metadata_path)
    target, oracle = _load_target(target_path, meta, metadata_path)
    return target, oracle, meta.num_source_classes


def load_experiment_data(source_path, target_path, metadata_path
                         ) -> tuple[Dataset, Dataset, OracleContext | None, int]:
    """Load a source/target pair; target labels move into the oracle context."""
    meta = load_metadata(metadata_path)
    source = _load_domain_csv(source_path, 1, meta, metadata_path)
    if source.y is None:
        raise ValueError(f"{source_path}: source rows must be labeled")
    k = meta.num_source_classes
    bad = np.flatnonzero((source.y < 0) | (source.y >= k))
    if bad.size:  # row i of a loaded file is on line i + 2, below the header
        raise ValueError(f"{source_path}:{bad[0] + 2}: label {source.y[bad[0]]} "
                         f"outside [0, {k})")
    target, oracle = _load_target(target_path, meta, metadata_path)
    return source, target, oracle, k


def batch_iterator(n_source: int, n_target: int, batch_size: int,
                   rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One epoch of paired (source, target) index batches.

    The larger domain is covered by a shuffled pass (the last batch
    wraps around to stay full); the smaller domain is resampled from
    repeated fresh shuffles.  Batches from both domains always have
    exactly ``batch_size`` rows.
    """
    if n_source < 1 or n_target < 1:
        raise ValueError("both domains must be nonempty")
    if batch_size < 1 or batch_size > min(n_source, n_target):
        raise ValueError("batch_size must be in [1, min(len(source), len(target))]")
    n_big, n_small = max(n_source, n_target), min(n_source, n_target)
    total = steps_per_epoch(n_source, n_target, batch_size) * batch_size
    big_order = np.resize(rng.permutation(n_big), total)  # wraps around to stay full
    small_order = np.concatenate([rng.permutation(n_small)
                                  for _ in range(math.ceil(total / n_small))])[:total]
    source_is_big = n_source >= n_target
    for lo in range(0, total, batch_size):
        big, small = big_order[lo:lo + batch_size], small_order[lo:lo + batch_size]
        yield (big, small) if source_is_big else (small, big)


def steps_per_epoch(n_source: int, n_target: int, batch_size: int) -> int:
    return math.ceil(max(n_source, n_target) / batch_size)
