import json

import numpy as np
import pytest

from pdalab.nets import (
    ArchSpec,
    MLP,
    MultiTaskDiscriminator,
    bundle_from_state,
    bundle_state,
    d_forward,
    f_forward,
    g_forward,
    init_bundle,
)
from pdalab.tensor import (
    Tensor,
    add,
    backward,
    grad_reverse,
    mean,
    no_grad,
    reset_tape,
    weighted_bce,
    zero_grad,
)


def toy_arch(num_classes=5):
    return ArchSpec(in_dim=2, num_classes=num_classes)


class TestForward:
    def test_zero_weight_network_gives_zero_features(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(0))
        for w, b, _ in bundle.features.layers:
            w.data[:] = 0.0
        x = np.random.default_rng(1).normal(size=(7, 2))
        assert np.all(f_forward(bundle.features, x).data == 0.0)

    def test_identity_single_layer(self):
        eye = MLP([(Tensor(np.eye(3), requires_grad=True),
                    Tensor(np.zeros(3), requires_grad=True), "none")])
        x = np.random.default_rng(2).normal(size=(4, 3))
        assert np.allclose(f_forward(eye, x).data, x)

    def test_toy_config_shapes(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(3))
        x = np.zeros((6, 2))
        f = f_forward(bundle.features, x)
        assert f.shape == (6, 16)
        preds = g_forward(bundle.classifier, f)
        assert preds.shape == (6, 5)
        probs = d_forward(bundle.discriminator, f, 1.0)
        assert probs.shape == (6, 5)

    def test_classifier_rows_on_simplex(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(20, 2))
        preds = g_forward(bundle.classifier, f_forward(bundle.features, x))
        assert np.abs(preds.data.sum(axis=1) - 1.0).max() < 1e-9

    def test_zero_logits_give_uniform_row(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(6))
        for w, b, _ in bundle.classifier.layers:
            w.data[:] = 0.0
        x = np.random.default_rng(7).normal(size=(3, 2))
        preds = g_forward(bundle.classifier, f_forward(bundle.features, x))
        assert np.allclose(preds.data, 0.2)

    def test_zero_weight_heads_give_half_probability(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(8))
        for head in bundle.discriminator.heads:
            for w, b, _ in head.layers:
                w.data[:] = 0.0
        x = np.random.default_rng(9).normal(size=(4, 2))
        logits = d_forward(bundle.discriminator, f_forward(bundle.features, x), 1.0)
        assert np.all(logits.data == 0.0)  # the logit of probability one half

    def test_dimension_mismatch_rejected(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(10))
        with pytest.raises(ValueError, match="^input width 4 != extractor width 2$"):
            f_forward(bundle.features, np.zeros((3, 4)))

    def test_lambda_zero_stops_gradient_at_features(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(11))
        x = np.random.default_rng(12).normal(size=(5, 2))
        reset_tape()
        f = f_forward(bundle.features, x)
        probs = d_forward(bundle.discriminator, f, 0.0)
        backward(mean(probs))
        for p in bundle.features.parameters():
            assert p.grad is None or np.all(p.grad == 0.0)
        assert any(p.grad is not None and np.any(p.grad != 0.0)
                   for p in bundle.discriminator.parameters())


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_bundle(toy_arch(), np.random.default_rng(42))
        b = init_bundle(toy_arch(), np.random.default_rng(42))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_biases_exactly_zero(self):
        bundle = init_bundle(toy_arch(), np.random.default_rng(0))
        for _, b, _ in (bundle.features.layers + bundle.classifier.layers):
            assert np.all(b.data == 0.0)

    def test_weight_variance_matches_fan_in_rule(self):
        arch = ArchSpec(in_dim=50, num_classes=4, hidden=(200,))
        bundle = init_bundle(arch, np.random.default_rng(123))
        w = bundle.features.layers[0][0].data  # 50x200 = 10k draws
        target = 2.0 / 50
        assert abs(w.var() - target) / target < 0.2

    def test_parameter_enumeration_exact(self):
        arch = ArchSpec(in_dim=2, num_classes=3, hidden=(4, 5), disc_hidden=(6,))
        bundle = init_bundle(arch, np.random.default_rng(1), shared_trunk=True)
        # F: 2 layers, G: 1 layer, D: trunk 1 layer + one stack of 3 heads
        params = bundle.parameters()
        assert len(params) == (2 + 1 + 1 + 1) * 2
        assert len({id(p) for p in params}) == len(params)
        expected = (2 * 4 + 4) + (4 * 5 + 5) + (5 * 3 + 3) + (5 * 6 + 6) + 3 * (6 + 1)
        assert sum(p.data.size for p in params) == expected

    def test_private_trunk_parameter_count(self):
        arch = ArchSpec(in_dim=2, num_classes=3, hidden=(4,), disc_hidden=(6,))
        shared = init_bundle(arch, np.random.default_rng(2), shared_trunk=True)
        private = init_bundle(arch, np.random.default_rng(2), shared_trunk=False)
        n_trunk = 4 * 6 + 6
        assert (sum(p.data.size for p in private.parameters())
                - sum(p.data.size for p in shared.parameters())) == 2 * n_trunk

    @pytest.mark.parametrize("shared", [True, False])
    def test_no_heads_rejected(self, shared):
        arch = ArchSpec(in_dim=2, num_classes=3, hidden=(4,), disc_hidden=(6,))
        with pytest.raises(ValueError, match="^discriminator needs at least one head$"):
            init_bundle(arch, np.random.default_rng(0), num_heads=0, shared_trunk=shared)


class TestSharedTrunkEquivalence:
    def test_head_count_must_match_trunk_count_when_private(self):
        arch = ArchSpec(in_dim=2, num_classes=3)
        bundle = init_bundle(arch, np.random.default_rng(0), shared_trunk=True)
        with pytest.raises(ValueError):
            MultiTaskDiscriminator(bundle.discriminator.trunks * 2,
                                   bundle.discriminator.heads, shared_trunk=False)

    def test_heads_of_different_shapes_rejected(self):
        arch = ArchSpec(in_dim=2, num_classes=2)
        a = init_bundle(arch, np.random.default_rng(0)).discriminator
        b = init_bundle(ArchSpec(in_dim=2, num_classes=2, hidden=(16, 8)),
                        np.random.default_rng(0)).discriminator
        with pytest.raises(ValueError,
                           match="^discriminator heads must share one architecture$"):
            MultiTaskDiscriminator(a.trunks, [a.heads[0], b.heads[0]], shared_trunk=True)


def _head_chain(disc, k):
    """Head k's layers (its private trunk's first) as views of the stacks."""
    trunk = [] if disc.shared_trunk else disc.trunks[k].layers
    return trunk + disc.heads[k].layers


def _per_head_logits(disc, chains, features, lam):
    """One logit column per head chain, each through its own 2-d layer nodes,
    heads recorded in order as K separate one-column networks would be."""
    h = grad_reverse(features, lam)
    if disc.shared_trunk:
        h = disc.trunks[0].forward(h)
    return [MLP(chain).forward(h) for chain in chains]


def _assert_close(actual, desired):
    """Agreement of a [d, K] head matrix with K one-column heads: each logit is
    one BLAS product over d, not K products of one column."""
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12)


class TestStackedHeads:
    """The stacked discriminator matches K separate per-head networks: bit for bit
    with private trunks of one or more layers, within rounding where the heads
    read one input and are one [d, K] matrix."""

    @pytest.mark.parametrize("shared, disc_hidden", [
        (True, ()), (False, ()), (True, (6,)), (False, (6,)), (False, (1,))],
        ids=["shared", "private", "shared_6", "private_6", "private_1"])
    def test_matches_per_head_reference(self, shared, disc_hidden):
        arch = ArchSpec(in_dim=2, num_classes=5, disc_hidden=disc_hidden)
        disc = init_bundle(arch, np.random.default_rng(21), shared_trunk=shared).discriminator
        rng = np.random.default_rng(22)
        for p in disc.parameters():
            p.data[...] = rng.normal(size=p.shape)  # in place: the views follow
        x = rng.normal(size=(128, arch.feature_dim))
        c = rng.normal(size=(128, disc.num_heads))
        d = rng.integers(0, 2, size=128)
        lam = 0.7

        reset_tape()
        zero_grad(disc.parameters())
        f = Tensor(x, requires_grad=True)
        logits = d_forward(disc, f, lam)
        backward(weighted_bce(logits, d, c))
        stacked = {id(p): p.grad.copy() for p in disc.parameters()}

        reset_tape()
        zero_grad(disc.parameters())
        f_ref = Tensor(x, requires_grad=True)
        chains = [_head_chain(disc, k) for k in range(disc.num_heads)]
        cols = _per_head_logits(disc, chains, f_ref, lam)
        backward(add(*[weighted_bce(col, d, c[:, k:k + 1]) for k, col in enumerate(cols)]))

        one_input = shared or not disc_hidden
        same = _assert_close if one_input else np.testing.assert_array_equal
        for k, col in enumerate(cols):
            same(logits.data[:, k], col.data[:, 0])
        same(f.grad, f_ref.grad)
        if shared:
            for p in disc.trunks[0].parameters():
                same(stacked[id(p)], p.grad)
        for depth, (w, b, _) in enumerate(disc.layers):
            for k in range(disc.num_heads):
                w_k, b_k, _ = chains[k][depth]
                head = (lambda a: a[..., k:k + 1]) if one_input else (lambda a: a[k])
                same(head(stacked[id(w)]), w_k.grad)
                same(head(stacked[id(b)]), b_k.grad)


def _per_head_state(rng, shared, k=3, feat=4, hidden=5):
    """A snapshot in the per-head JSON layout, drawn independently of the nets code."""
    def layer(fan_in, fan_out, act):
        return {"w": rng.normal(size=(fan_in, fan_out)).tolist(),
                "b": rng.normal(size=fan_out).tolist(), "act": act}
    trunks = [[layer(feat, hidden, "relu")] for _ in range(1 if shared else k)]
    return {"num_classes": k,
            "features": [layer(2, feat, "relu")],
            "classifier": [layer(feat, k, "none")],
            "discriminator": {"shared_trunk": shared, "trunks": trunks,
                              "heads": [[layer(hidden, 1, "none")] for _ in range(k)]}}


@pytest.mark.parametrize("shared", [True, False])
def test_per_head_snapshot_round_trips_byte_for_byte(shared):
    text = json.dumps({"schema": "1.0", "model": _per_head_state(np.random.default_rng(5), shared)},
                      sort_keys=True, separators=(",", ":"))
    bundle = bundle_from_state(json.loads(text)["model"])
    assert json.dumps({"schema": "1.0", "model": bundle_state(bundle)},
                      sort_keys=True, separators=(",", ":")) == text


@pytest.mark.parametrize("shared", [True, False])
def test_per_head_state_loads_to_the_logits_of_its_one_column_heads(shared):
    state = _per_head_state(np.random.default_rng(6), shared)
    disc = bundle_from_state(state).discriminator
    x = np.random.default_rng(7).normal(size=(32, 4))
    with no_grad():
        logits = d_forward(disc, Tensor(x), 1.0).data
        for k, head in enumerate(state["discriminator"]["heads"]):
            trunk = state["discriminator"]["trunks"][0 if shared else k]
            net = MLP([(Tensor(np.array(layer["w"])), Tensor(np.array(layer["b"])), layer["act"])
                       for layer in trunk + head])
            _assert_close(logits[:, k], net.forward(Tensor(x)).data[:, 0])


@pytest.mark.parametrize("shared", [True, False])
def test_per_head_views_follow_an_optimizer_buffer(shared):
    from pdalab.trainer import MomentumSGD

    arch = ArchSpec(in_dim=2, num_classes=3, disc_hidden=(4,))
    bundle = init_bundle(arch, np.random.default_rng(3), shared_trunk=shared)
    opt = MomentumSGD(bundle.parameters(), 0.9)  # moves every parameter into its buffer
    for p in bundle.parameters():
        p.grad = np.ones(p.shape)
    opt.step(0.5)
    disc = bundle.discriminator
    for k in range(disc.num_heads):
        # Shared, the heads are one [d, K] matrix and head k reads its column k.
        head = (lambda a: a[..., k:k + 1]) if shared else (lambda a: a[k])
        for (w, b, _), (w_k, b_k, _) in zip(disc.layers, _head_chain(disc, k)):
            assert np.array_equal(w_k.data, head(w.data)) and np.array_equal(b_k.data, head(b.data))
    state = bundle_state(bundle)["discriminator"]["heads"]
    assert [h[0]["b"] for h in state] == disc.layers[-1][1].data.reshape(-1, 1).tolist()
