"""Network definitions: feature extractor, classifier, and the
multi-head domain discriminator with an optional shared trunk.

The discriminator owns one logistic head per source class; each head
emits the logit of the probability that a sample is from the source
domain, conditioned on that class's alignment task.  With ``shared_trunk``
off, every head owns a private copy of the trunk instead.  A bundle's
snapshot is ``model.json``: :func:`model_text` and :func:`load_model`.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .metrics import from_plain, load_json, same_major, to_plain
from .tensor import (
    ACTIVATIONS,
    Tensor,
    linear,
    softmax_rows,
    stack_to_cols,
)
from .tensor import matmul  # noqa: F401  test_tracer_reports_a_missing_function_as_absent pins it

MODEL_SCHEMA_VERSION = "1.0"


class MLP:
    """Chain of (weight, bias, activation) layers, or of [S, d, h] stacks of them."""

    def __init__(self, layers: list[tuple[Tensor, Tensor, str]]):
        for w, b, act in layers:
            if w.data.ndim not in (2, 3) or b.shape != w.shape[:-2] + w.shape[-1:]:
                raise ValueError("layer weight/bias shapes inconsistent")
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for (w1, _, _), (w2, _, _) in zip(layers, layers[1:]):
            if w1.shape[-1] != w2.shape[-2]:
                raise ValueError("consecutive layer dimensions do not chain")
        self.layers = layers

    @property
    def in_dim(self) -> int | None:
        return self.layers[0][0].shape[-2] if self.layers else None

    @property
    def out_dim(self) -> int | None:
        return self.layers[-1][0].shape[-1] if self.layers else None

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for w, b, act in self.layers:
            h = linear(h, w, b, act)
        return h

    def parameters(self) -> list[Tensor]:
        return [t for w, b, _ in self.layers for t in (w, b)]


class MultiTaskDiscriminator:
    """Per-class domain discriminators over a (possibly shared) trunk.

    The K heads, with their private trunks when ``shared_trunk`` is off,
    are stored as ``layers``: per depth one [K, d, h] weight stack and one
    [K, h] bias stack.  One-layer heads that read one input (a shared trunk,
    or private trunks with no layers) are one [d, K] layer instead, head k
    its column k.  ``trunks`` and ``heads`` are the per-head MLPs the
    constructor received, built afresh on each read as views of the
    stacks' current arrays, so they show the trained values even after an
    optimizer moved the stacks into its own buffer; a shared trunk stays
    the one ordinary MLP.
    """

    def __init__(self, trunks: list[MLP], heads: list[MLP], shared_trunk: bool):
        if not heads:
            raise ValueError("discriminator needs at least one head")
        if shared_trunk and len(trunks) != 1:
            raise ValueError("shared discriminator requires exactly one trunk")
        if not shared_trunk and len(trunks) != len(heads):
            raise ValueError("private-trunk discriminator requires one trunk per head")
        for head in heads:
            if head.out_dim != 1:
                raise ValueError("each discriminator head must emit one logit")
        chains = [h.layers for h in heads]
        if not shared_trunk:
            chains = [t.layers + chain for t, chain in zip(trunks, chains)]
        shapes = {tuple((w.shape, act) for w, _, act in chain) for chain in chains}
        if len(shapes) != 1:
            raise ValueError("discriminator heads must share one architecture")
        self._matrix = len(chains[0]) == 1
        join = (lambda arrays: np.concatenate(arrays, -1)) if self._matrix else np.stack
        self.layers = [(Tensor(join([w.data for w, _, _ in depth]), requires_grad=True),
                        Tensor(join([b.data for _, b, _ in depth]), requires_grad=True),
                        depth[0][2])
                       for depth in zip(*chains)]
        self._trunk = trunks[0] if shared_trunk else MLP([])
        self._n_private = 0 if shared_trunk else len(trunks[0].layers)
        self.shared_trunk = shared_trunk

    def _views(self, layers) -> list[MLP]:
        cut = (lambda a, k: a[..., k:k + 1]) if self._matrix else (lambda a, k: a[k])
        return [MLP([(Tensor(cut(w.data, k), requires_grad=True),
                      Tensor(cut(b.data, k), requires_grad=True), act) for w, b, act in layers])
                for k in range(self.num_heads)]

    @property
    def trunks(self) -> list[MLP]:
        return [self._trunk] if self.shared_trunk else self._views(self.layers[:self._n_private])

    @property
    def heads(self) -> list[MLP]:
        return self._views(self.layers[self._n_private:])

    @property
    def num_heads(self) -> int:
        return self.layers[-1][0].shape[-1 if self._matrix else -3]

    def forward(self, features: Tensor, lam: float) -> Tensor:
        """Per-head source-domain logits, shape [m, num_heads] or [S, m, num_heads].

        The first layer (the trunk's, else the heads') reverses the gradient of
        the features, scaled by ``lam``: one descent step trains the discriminator
        and pushes the feature extractor the opposite way.
        """
        h, reverse = features, lam
        for w, b, act in self._trunk.layers + self.layers:
            h, reverse = linear(h, w, b, act, reverse), None
        return h if self._matrix else stack_to_cols(h)

    def parameters(self) -> list[Tensor]:
        return self._trunk.parameters() + [t for w, b, _ in self.layers for t in (w, b)]


@dataclass
class ModelBundle:
    """Feature extractor, softmax classifier, and domain discriminator."""

    features: MLP
    classifier: MLP
    discriminator: MultiTaskDiscriminator
    num_classes: int

    def __post_init__(self):
        if self.classifier.out_dim != self.num_classes:
            raise ValueError("classifier output width must equal the class count")
        feat_dim = self.features.out_dim
        if feat_dim is not None and self.classifier.in_dim != feat_dim:
            raise ValueError("classifier input width must match the feature width")

    def parameters(self) -> list[Tensor]:
        return (self.features.parameters() + self.classifier.parameters()
                + self.discriminator.parameters())


@dataclass(frozen=True)
class ArchConfig:
    """Hidden widths of the feature extractor and the discriminator trunk:
    the ``arch`` section of a run config."""

    hidden: tuple[int, ...] = (16, 16)
    disc_hidden: tuple[int, ...] = ()

    def __post_init__(self):
        if any(h < 1 for h in self.hidden) or any(h < 1 for h in self.disc_hidden):
            raise ValueError("hidden widths must be positive")

    def to_arch(self, in_dim: int, num_classes: int) -> ArchSpec:
        return ArchSpec(in_dim=in_dim, num_classes=num_classes,
                        hidden=self.hidden, disc_hidden=self.disc_hidden)


@dataclass(frozen=True, kw_only=True)
class ArchSpec(ArchConfig):
    """Widths of the three networks; heads and sharing are chosen at build time."""

    in_dim: int
    num_classes: int

    def __post_init__(self):
        super().__post_init__()
        if self.in_dim < 1 or self.num_classes < 1:
            raise ValueError("in_dim and num_classes must be positive")

    @property
    def feature_dim(self) -> int:
        return self.hidden[-1] if self.hidden else self.in_dim


def _init_mlp(dims: list[int], activations: list[str], rng: np.random.Generator) -> MLP:
    # Fan-in-scaled uniform: variance 2/fan_in, the relu-friendly choice.
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        bound = np.sqrt(6.0 / fan_in)
        w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
        b = Tensor(np.zeros(fan_out), requires_grad=True)
        layers.append((w, b, act))
    return MLP(layers)


def init_bundle(arch: ArchSpec, rng: np.random.Generator, *,
                num_heads: int | None = None, shared_trunk: bool = True) -> ModelBundle:
    """Build and initialize all three networks; deterministic given ``rng``.

    Draw order is fixed: feature layers, classifier, discriminator
    trunk(s), discriminator heads.
    """
    heads = arch.num_classes if num_heads is None else num_heads
    f_dims = [arch.in_dim, *arch.hidden]
    features = _init_mlp(f_dims, ["relu"] * len(arch.hidden), rng)
    classifier = _init_mlp([arch.feature_dim, arch.num_classes], ["none"], rng)
    trunk_dims = [arch.feature_dim, *arch.disc_hidden]
    trunk_acts = ["relu"] * len(arch.disc_hidden)
    n_trunks = 1 if shared_trunk else heads
    trunks = [_init_mlp(trunk_dims, trunk_acts, rng) for _ in range(n_trunks)]
    head_in = arch.disc_hidden[-1] if arch.disc_hidden else arch.feature_dim
    head_mlps = [_init_mlp([head_in, 1], ["none"], rng) for _ in range(heads)]
    disc = MultiTaskDiscriminator(trunks, head_mlps, shared_trunk)
    return ModelBundle(features, classifier, disc, arch.num_classes)


def map_bundle(bundle: ModelBundle, fn) -> ModelBundle:
    """A bundle of new parameters ``fn(a)`` for each weight and bias array ``a``:
    ``np.stack([a] * s)`` stacks ``s`` copies, ``a[i]`` views slice ``i`` of a stack."""
    def layers(chain):
        return [(Tensor(fn(w.data), requires_grad=True), Tensor(fn(b.data), requires_grad=True),
                 act) for w, b, act in chain]

    disc = copy.copy(bundle.discriminator)
    disc._trunk, disc.layers = MLP(layers(disc._trunk.layers)), layers(disc.layers)
    return ModelBundle(MLP(layers(bundle.features.layers)), MLP(layers(bundle.classifier.layers)),
                       disc, bundle.num_classes)


def f_forward(features: MLP, x) -> Tensor:
    """Feature extractor pass; accepts a Tensor or a raw [m, d] array."""
    xt = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    if features.in_dim is not None and xt.shape[-1] != features.in_dim:
        raise ValueError(f"input width {xt.shape[-1]} != extractor width {features.in_dim}")
    return features.forward(xt)


def g_forward(classifier: MLP, f: Tensor) -> Tensor:
    """Class predictions on the simplex (softmax over the class logits)."""
    return softmax_rows(classifier.forward(f))


def d_forward(disc: MultiTaskDiscriminator, f: Tensor, lam: float) -> Tensor:
    return disc.forward(f, lam)


# ---------------------------------------------------------------------------
# Snapshots: compact sort-keyed JSON; floats in nested lists round-trip exactly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerState:
    """One layer of a snapshot.  The three ``*State`` classes are the
    layout of ``model.json``'s bundle, written by :func:`to_plain` and read
    back, each value checked, by :func:`from_plain`."""

    w: list[list[float]]
    b: list[float]
    act: str


@dataclass(frozen=True)
class DiscriminatorState:
    shared_trunk: bool
    trunks: list[list[LayerState]]
    heads: list[list[LayerState]]


@dataclass(frozen=True)
class BundleState:
    num_classes: int
    features: list[LayerState]
    classifier: list[LayerState]
    discriminator: DiscriminatorState


def _mlp_state(mlp: MLP) -> list[LayerState]:
    return [LayerState(w.data.tolist(), b.data.tolist(), act) for w, b, act in mlp.layers]


def _mlp_from_state(state: list[LayerState]) -> MLP:
    return MLP([(Tensor(np.asarray(layer.w), requires_grad=True),
                 Tensor(np.asarray(layer.b), requires_grad=True), layer.act)
                for layer in state])


def bundle_state(bundle: ModelBundle) -> dict:
    disc = bundle.discriminator
    return to_plain(BundleState(
        bundle.num_classes, _mlp_state(bundle.features), _mlp_state(bundle.classifier),
        DiscriminatorState(disc.shared_trunk, [_mlp_state(t) for t in disc.trunks],
                           [_mlp_state(h) for h in disc.heads])))


def bundle_from_state(state) -> ModelBundle:
    """The bundle a :func:`bundle_state` dict describes.  A value that does
    not fit BundleState is a ValueError naming its key path under
    ``model``, the snapshot's key for the bundle."""
    s = from_plain(BundleState, state, "model", strict=False)
    disc = MultiTaskDiscriminator([_mlp_from_state(t) for t in s.discriminator.trunks],
                                  [_mlp_from_state(h) for h in s.discriminator.heads],
                                  s.discriminator.shared_trunk)
    return ModelBundle(_mlp_from_state(s.features), _mlp_from_state(s.classifier),
                       disc, s.num_classes)


def model_text(bundle: ModelBundle) -> str:
    return json.dumps({"schema": MODEL_SCHEMA_VERSION, "model": bundle_state(bundle)},
                      sort_keys=True, separators=(",", ":")) + "\n"


def load_model(path) -> ModelBundle:
    """The bundle a :func:`model_text` file holds; errors are ValueErrors naming ``path``."""
    snapshot = load_json(path, "model snapshot")
    if not isinstance(snapshot, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if not same_major(snapshot.get("schema"), MODEL_SCHEMA_VERSION):
        raise ValueError(f"{path}: unsupported model schema {snapshot.get('schema')!r}")
    try:
        return bundle_from_state(snapshot.get("model"))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model snapshot ({exc})") from None
