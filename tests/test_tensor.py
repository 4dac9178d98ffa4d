import math

import numpy as np
import pytest

from pdalab import tensor as T
from pdalab.tensor import (
    LOG_FLOOR,
    Tensor,
    backward,
    cross_entropy_mean,
    entropy_mean,
    grad_reverse,
    linear,
    matmul,
    mean,
    no_grad,
    reset_tape,
    slice_rows,
    softmax_rows,
    stack_to_cols,
    weighted_bce,
    zero_grad,
)


def finite_diff(fn, arr, h=1e-5):
    """Central finite differences of a scalar fn wrt an array mutated in place."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        hi = fn()
        arr[idx] = orig - h
        lo = fn()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def rel_err(a, b):
    scale = np.maximum.reduce([np.abs(a), np.abs(b), np.ones_like(a)])
    return np.max(np.abs(a - b) / scale)


def relu(x: Tensor) -> Tensor:
    """relu of a [m, d] tensor, as an identity layer."""
    d = x.shape[1]
    return linear(x, Tensor(np.eye(d)), Tensor(np.zeros(d)), "relu")


def autodiff_grad(build_loss, x: Tensor) -> np.ndarray:
    reset_tape()
    zero_grad([x])
    backward(build_loss(x))
    return np.zeros_like(x.data) if x.grad is None else x.grad.copy()


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 3)))
        eye = Tensor(np.eye(3))
        assert np.allclose(matmul(eye, a).data, a.data)

    def test_direct_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.allclose(out.data, [[11.0]])

    def test_zero_matrix(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        z = Tensor(np.zeros((4, 2)))
        assert np.all(matmul(z, a).data == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^matmul inner dimensions disagree: "):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_two_way_symmetry(self):
        assert np.allclose(softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_four_way_symmetry(self):
        out = softmax_rows(Tensor([[0.0] * 4]))
        assert np.allclose(out.data, [[0.25] * 4])

    def test_log2_case(self):
        out = softmax_rows(Tensor([[math.log(2.0), 0.0]]))
        assert np.allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = softmax_rows(Tensor(rng.normal(scale=5.0, size=(50, 7))))
        assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-9
        assert (out.data >= 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(20, 5))
        shifted = logits + rng.normal(size=(20, 1))
        a = softmax_rows(Tensor(logits)).data
        b = softmax_rows(Tensor(shifted)).data
        assert np.abs(a - b).max() < 1e-9


class TestCrossEntropy:
    def test_one_hot_perfect(self):
        pred = Tensor([[0.0, 1.0, 0.0]])
        out = cross_entropy_mean(pred, np.array([1]), np.ones(3))
        assert out.item() == pytest.approx(0.0)

    def test_half_half(self):
        out = cross_entropy_mean(Tensor([[0.5, 0.5]]), np.array([0]), np.ones(2))
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_mean(Tensor([[0.5, 0.5]]), np.array([2]), np.ones(2))

    def test_labels_must_be_an_integer_vector(self):
        p = np.array([[0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="^one label per prediction row required$"):
            cross_entropy_mean(Tensor(p), p, np.ones(3))  # a matrix of simplex rows
        with pytest.raises(ValueError, match="integers"):
            cross_entropy_mean(Tensor(p), np.array([1.0]), np.ones(3))


class TestElementwise:
    def test_relu_dead_unit(self):
        x = Tensor([[-1.0]], requires_grad=True)
        y = mean(relu(x))
        assert y.item() == 0.0
        backward(y)
        assert np.allclose(x.grad, [[0.0]])

    def test_relu_passthrough(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = mean(relu(x))
        assert y.item() == 2.0
        backward(y)
        assert np.allclose(x.grad, [[1.0]])

    def test_mean_value_and_grad(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        m = mean(x)
        assert m.item() == pytest.approx(2.0)
        backward(m)
        assert x.grad == pytest.approx([1 / 3, 1 / 3, 1 / 3])


class TestBackward:
    def test_square(self):
        x = Tensor([[3.0]], requires_grad=True)
        loss = mean(T.mul(x, x))
        backward(loss)
        assert np.allclose(x.grad, [[6.0]])

    def test_constant_loss(self):
        x = Tensor([[3.0]], requires_grad=True)
        c = mean(Tensor([[5.0]]))
        backward(c)  # no-op: loss does not depend on anything tracked
        assert x.grad is None

    def test_non_scalar_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ValueError):
            backward(T.mul(x, x))

    def test_loss_off_tape_rejected(self):
        x = Tensor([[1.0]], requires_grad=True)
        loss = mean(T.mul(x, x))
        reset_tape()
        with pytest.raises(RuntimeError, match=r"^loss is not on the active tape "):
            backward(loss)

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x_in = rng.normal(size=(4, 3))
        w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b1 = Tensor(rng.normal(size=5), requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        b2 = Tensor(rng.normal(size=2), requires_grad=True)

        def loss_value():
            with no_grad():
                h = linear(Tensor(x_in), w1, b1, "relu")
                out = linear(h, w2, b2)
                return mean(T.mul(out, out)).item()

        reset_tape()
        zero_grad([w1, b1, w2, b2])
        h = linear(Tensor(x_in), w1, b1, "relu")
        out = linear(h, w2, b2)
        backward(mean(T.mul(out, out)))

        for p in (w1, b1, w2, b2):
            fd = finite_diff(loss_value, p.data)
            assert rel_err(p.grad, fd) < 1e-4

    def test_backward_linearity(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        reset_tape()
        h = T.mul(x, x)
        l1 = mean(h)
        l2 = mean(relu(h))
        backward(l1)
        backward(l2)
        separate = x.grad.copy()
        zero_grad([x])
        reset_tape()
        h = T.mul(x, x)
        backward(T.add(mean(h), mean(relu(h))))
        assert np.allclose(x.grad, separate, atol=1e-12)

    def test_accumulation_is_additive(self):
        x = Tensor([[2.0]], requires_grad=True)
        loss = mean(T.mul(x, x))
        backward(loss)
        backward(loss)
        assert np.allclose(x.grad, [[8.0]])

    def test_a_failed_backward_leaves_nothing_to_the_next(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        x, up = rng.normal(size=(4, 3)) * 1e10, rng.normal(size=(4, 2))

        def step(lam):
            reset_tape()
            zero_grad([w, b])
            y = grad_reverse(linear(Tensor(x), w, b, "relu"), lam)
            backward(mean(T.mul(T.mul(y, y), Tensor(up))))
            return [w.grad, b.grad]

        want = step(1.0)
        # w and b hold their share of the sweep when the reversal's overflow is found.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="backward of 'grad_reverse'"):
            step(1e300)
        assert w.grad is None and b.grad is None
        assert all(bits_equal(got, exp) for got, exp in zip(step(1.0), want))


class TestGradReverse:
    def test_forward_identity(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        assert np.array_equal(grad_reverse(x, 0.7).data, x.data)

    def test_lambda_zero_blocks_gradient(self):
        x = Tensor([[3.0]], requires_grad=True)
        y = mean(T.mul(grad_reverse(x, 0.0), Tensor([[2.0]])))
        backward(y)
        assert np.allclose(x.grad, [[0.0]])

    def test_lambda_one_flips_sign(self):
        x = Tensor([[3.0]], requires_grad=True)
        backward(mean(T.mul(grad_reverse(x, 1.0), Tensor([[2.0]]))))
        assert np.allclose(x.grad, [[-2.0]])

    def test_exactly_minus_lambda_times_identity(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(4, 3))
        lam = 0.37

        def run(with_reversal):
            x = Tensor(vals, requires_grad=True)
            reset_tape()
            h = grad_reverse(x, lam) if with_reversal else x
            w = Tensor(rng.standard_normal((3, 2)))  # fresh but only values matter
            backward(mean(T.mul(matmul(h, Tensor(np.ones((3, 2)))), Tensor(np.full((4, 2), 2.0)))))
            return x.grad

        plain = run(False)
        reversed_ = run(True)
        assert np.array_equal(reversed_, -lam * plain)

    def test_hand_derived_chain(self):
        # f(x) = 3 * grl(x, lam); df/dx = -lam * 3
        lam = 2.5
        x = Tensor([[4.0]], requires_grad=True)
        r = grad_reverse(x, lam)
        backward(mean(T.add(r, r, r)))
        assert np.allclose(x.grad, [[-lam * 3.0]])


class TestStructuralOps:
    def test_slice_rows_grad_scatters(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        backward(mean(slice_rows(x, 1, 3)))
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0 / 6
        assert np.array_equal(x.grad, expected)

    def test_stack_to_cols_roundtrip(self):
        a = Tensor(np.arange(6.0).reshape(2, 3, 1), requires_grad=True)
        out = stack_to_cols(a)
        assert np.array_equal(out.data, [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]])
        c = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        backward(mean(T.mul(out, Tensor(c))))
        assert np.array_equal(a.grad[:, :, 0], (1.0 / 6) * c.T)

    def test_batched_matmul_slices_equal_matmul(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(3, 4, 2)))
        b = Tensor(rng.normal(size=(3, 2)))
        for a in (Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(3, 5, 4)))):
            out = linear(a, w, b, "relu")
            assert out.shape == (3, 5, 2)
            for k in range(3):
                a_k = a.data if a.data.ndim == 2 else a.data[k]
                layer = linear(Tensor(a_k), Tensor(w.data[k]), Tensor(b.data[k]), "relu")
                assert np.array_equal(out.data[k], layer.data)

    @pytest.mark.parametrize("a_shape, w_shape", [
        ((5, 3), (2, 4, 2)), ((2, 5, 4), (3, 4, 2)), ((2, 5, 4), (4, 2)), ((5,), (2, 5, 1)),
    ])
    def test_batched_matmul_shape_errors(self, a_shape, w_shape):
        with pytest.raises(ValueError, match="^linear shapes disagree: "):
            linear(Tensor(np.ones(a_shape)), Tensor(np.ones(w_shape)),
                   Tensor(np.ones(w_shape[:-2] + w_shape[-1:])))

    @pytest.mark.parametrize("w_shape, b_shape", [((4, 2), (4,)), ((4, 2), (1, 2)),
                                                  ((3, 4, 2), (2,)), ((3, 4, 2), (2, 2))])
    def test_linear_bias_shape_errors(self, w_shape, b_shape):
        with pytest.raises(ValueError, match="^linear shapes disagree: "):
            linear(Tensor(np.ones((5, 4))), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))

    def test_linear_rejects_an_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            linear(Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))), Tensor(np.ones(1)), "tanh")

    def test_stack_to_cols_rejects_wide_slices(self):
        with pytest.raises(ValueError, match=r"^stack_to_cols requires a \[K, m, 1\] stack"):
            stack_to_cols(Tensor(np.ones((2, 3, 2))))


class TestFiniteGuard:
    def test_overflowing_matmul_raises(self):
        x = Tensor([[1e200, 1e200]])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="matmul"):
            matmul(x, Tensor([[1e200], [1e200]]))

    def test_nan_creation_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor([float("nan")])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_masked_by_relu_names_linear(self, sign):
        # -inf (or inf - inf = nan) before a relu is zero after it: the
        # loss stays finite, so linear checks its pre-activation itself.
        x = Tensor([[1e200, sign * 1e200]])
        w = Tensor([[-1e200], [-1e200]], requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="linear"):
            linear(x, w, Tensor([0.0]), "relu")

    def test_a_minus_inf_logit_beside_a_finite_one_names_linear_on_the_tape(self):
        # Without relu too: softmax gives the -inf logit probability 0.0, so the
        # loss and every gradient after it stay finite.
        x = Tensor([[1e200, 1e200]])
        w = Tensor([[-1e200, 1e-200], [-1e200, 1e-200]], requires_grad=True)
        reset_tape()
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="'linear'"):
            cross_entropy_mean(softmax_rows(linear(x, w, Tensor([0.0, 0.0]))), [1], [1.0, 1.0])

    def test_on_tape_overflow_is_named_at_backward(self):
        reset_tape()
        x = Tensor([[1e200]], requires_grad=True)
        with np.errstate(over="ignore"):
            T.mul(Tensor([[1e300]], requires_grad=True), x)  # non-finite, but not read
            y = T.mul(x, x)  # recorded unchecked
            assert not np.isfinite(y.data).all()
            loss = mean(T.add(y, Tensor([[1.0]])))
        with pytest.raises(FloatingPointError, match="'mul'"):
            backward(loss)

    def test_non_finite_gradient_names_its_node(self):
        # Finite forward; reversal by 1e300 overflows x's gradient.
        reset_tape()
        x = Tensor([[1e10]], requires_grad=True)
        y = grad_reverse(x, 1e300)
        loss = mean(T.mul(y, y))
        assert np.isfinite(loss.item())
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="backward of 'grad_reverse'"):
            backward(loss)
        assert x.grad is None  # nothing deposited

    def test_finite_sweep_checks_once_per_backward(self, monkeypatch):
        calls = []
        for name in ("_ensure_finite", "_check_sweep"):
            real = getattr(T, name)
            monkeypatch.setattr(T, name, lambda *a, _n=name, _f=real, **kw:
                                calls.append(_n) or _f(*a, **kw))
        reset_tape()
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        h = linear(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), "relu")
        loss = T.add(mean(T.mul(h, h)), entropy_mean(softmax_rows(h), 0.5))
        backward(loss)
        # linear's pre-activation, then the loss and the leaf gradients.
        assert calls == ["_ensure_finite", "_check_sweep", "_check_sweep"]
        calls.clear()
        with no_grad():
            mean(T.mul(softmax_rows(Tensor(np.ones((2, 2)))), Tensor(np.ones((2, 2)))))
        assert calls == ["_ensure_finite"] * 3  # off the tape every primitive checks itself


def bits_equal(a, b) -> bool:
    """Equal to the bit, signed zeros included (np.array_equal has 0.0 == -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def _tape_grads(loss, *inputs):
    backward(loss)
    return [t.grad for t in inputs]


class TestFusedNodesMatchChains:
    """Each fused node is bit-equal to the chain of numpy calls it replaced."""

    @pytest.mark.parametrize("w_shape, x_shape", [
        ((3, 2), (4, 3)), ((2, 3, 2), (4, 3)), ((2, 3, 2), (2, 4, 3)),
        ((3, 1), (4, 3)), ((2, 3, 1), (4, 3)), ((2, 3, 1), (2, 4, 3)),
    ])
    @pytest.mark.parametrize("act", ["relu", "none"])
    def test_linear(self, w_shape, x_shape, act):
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        w[..., 0, :] = 0.0  # zero products of both signs
        b = rng.normal(size=w_shape[:-2] + w_shape[-1:])
        up = rng.normal(size=w_shape[:-2] + x_shape[-2:-1] + w_shape[-1:])
        reset_tape()
        xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
        out = linear(xt, wt, bt, act)
        n = up.size
        grads = _tape_grads(mean(T.mul(out, Tensor(up))), xt, wt, bt)

        pre = np.matmul(x, w) + b[..., None, :]
        mask = pre > 0.0
        ref = np.where(mask, pre, 0.0) if act == "relu" else pre
        g = np.broadcast_to(1.0 / n, up.shape).copy() * up
        if act == "relu":
            g = g * mask
        w_t = np.swapaxes(w, -1, -2)
        if w.ndim == 2:
            gx, gw = g @ w_t, x.T @ g
        elif x.ndim == 3:
            gx, gw = np.matmul(g, w_t), np.matmul(x.transpose(0, 2, 1), g)
        else:
            gx = g[-1] @ w_t[-1]
            for k in range(len(g) - 2, -1, -1):
                gx = gx + g[k] @ w_t[k]
            gw = np.matmul(x.T, g)
        assert bits_equal(out.data, ref)
        for got, want in zip(grads, (gx, gw, g.sum(axis=-2))):
            assert bits_equal(got, want)

    def test_cross_entropy_mean(self):
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(4), size=6)
        p[2, 1] = 1e-14  # below the floor: no gradient through it
        labels = np.array([0, 3, 1, 1, 2, 0])
        w = rng.uniform(0.1, 2.0, size=4)
        reset_tape()
        pt = Tensor(p, requires_grad=True)
        loss = cross_entropy_mean(pt, labels, w)
        (grad,) = _tape_grads(loss, pt)

        rows = np.arange(6)
        clamped = np.maximum(p, LOG_FLOOR)
        c = np.broadcast_to(w[labels], (6,))
        ref = np.asarray((-np.log(clamped[rows, labels]) * c).mean())
        g = np.broadcast_to(1.0 / 6, (6,)).copy() * c
        want = np.zeros_like(p)
        want[rows, labels] = -g * (p[rows, labels] > LOG_FLOOR) / clamped[rows, labels]
        assert bits_equal(loss.data, ref)
        assert bits_equal(grad, want)

    def test_weighted_bce(self):
        rng = np.random.default_rng(13)
        z = rng.normal(scale=3.0, size=(5, 3))
        z[0, 0], z[1, 2] = -40.0, 40.0  # saturated logits of both signs
        d = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        c = rng.uniform(0.0, 1.0, size=(5, 3))
        reset_tape()
        zt = Tensor(z, requires_grad=True)
        loss = weighted_bce(zt, d, c)
        (grad,) = _tape_grads(loss, zt)

        dd = np.broadcast_to(d[:, None], z.shape)
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        bce = np.maximum(z, 0.0) - dd * z + np.log1p(np.exp(-np.abs(z)))
        ref = np.asarray((bce * c).sum()) * float(1.0 / 5)
        e = np.exp(-np.abs(z))
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        want = np.broadcast_to(1.0 * float(1.0 / 5), z.shape).copy() * c * (sig - dd)
        assert bits_equal(loss.data, ref)
        assert np.allclose(ref, (c * (softplus - dd * z)).sum() / 5, rtol=1e-14, atol=0)
        assert bits_equal(grad, want)

    def test_entropy_mean(self):
        rng = np.random.default_rng(14)
        p = rng.dirichlet(np.ones(3), size=4)
        p[1] = [1.0, 0.0, 0.0]  # zero entries stay out of the gradient's mask
        reset_tape()
        pt = Tensor(p, requires_grad=True)
        loss = entropy_mean(pt, 0.1)
        (grad,) = _tape_grads(loss, pt)

        clamped = np.maximum(p, LOG_FLOOR)
        ref = np.asarray((-(p * np.log(clamped)).sum(axis=1)).mean()) * 0.1
        g = np.broadcast_to(1.0 * 0.1 / 4, (4,)).copy()
        want = -g[:, None] * (np.log(clamped) + (p > LOG_FLOOR))
        assert bits_equal(loss.data, ref)
        assert bits_equal(grad, want)

    def test_add(self):
        rng = np.random.default_rng(15)
        vals = [rng.normal() for _ in range(4)]
        reset_tape()
        ts = [Tensor(v, requires_grad=True) for v in vals]
        total = T.add(*ts)
        grads = _tape_grads(total, *ts)
        assert total.item() == ((vals[0] + vals[1]) + vals[2]) + vals[3]
        assert all(np.array_equal(g, 1.0) for g in grads)


class TestPerSliceEntropyScale:
    """``entropy_mean`` over a stack takes one scale per slice."""

    def test_each_slice_is_its_2d_node_and_a_zero_scale_reads_zero(self):
        rng = np.random.default_rng(18)
        p = rng.dirichlet(np.ones(3), size=(3, 4))
        p[:, 1] = [1.0, 0.0, 0.0]  # zero entries stay out of the gradient's mask
        scales = np.array([0.1, 0.0, 0.1])
        reset_tape()
        pt = Tensor(p, requires_grad=True)
        loss = entropy_mean(pt, scales)
        (grad,) = _tape_grads(loss, pt)
        for i, scale in enumerate(scales.tolist()):
            reset_tape()
            alone_in = Tensor(p[i], requires_grad=True)
            alone = entropy_mean(alone_in, scale)
            (alone_grad,) = _tape_grads(alone, alone_in)
            assert bits_equal(loss.data[i], alone.data)
            assert bits_equal(grad[i], alone_grad)
        assert bits_equal(loss.data[1], 0.0)  # +0.0, not -0.0


class TestInPlaceKernelsMatchChains:
    """The in-place kernels are bit-equal to the numpy chains they replaced,
    signed zeros included."""

    def test_relu_turns_signed_zero_pre_activations_into_positive_zeros(self):
        x = np.array([[-0.0, 0.0], [0.0, -0.0], [1.0, -2.0], [-0.0, -0.0]])
        w = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, -0.0]])
        b = np.array([-0.0, 0.0, -0.0])
        out = linear(Tensor(x), Tensor(w), Tensor(b), "relu").data
        pre = np.matmul(x, w) + b
        mask = (pre > 0.0).astype(np.float64)
        assert bits_equal(out, pre * mask + 0.0)
        assert bits_equal(out, np.where(pre > 0.0, pre, 0.0))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("shape", [(4, 5), (2, 4, 5)])
    def test_softmax_rows_with_tied_row_maxima(self, shape):
        rng = np.random.default_rng(16)
        z = rng.integers(-2, 3, size=shape).astype(np.float64)  # many ties per row
        z[..., 0, :] = 1.5
        z[..., 1, :2] = [-0.0, 0.0]
        z[..., 1, 2:] = -1.0
        z[..., 2, :] = [0.0, -0.0, -0.0, 0.0, -3.0]
        up = rng.normal(size=shape)
        up[..., 3, :] = 0.0
        reset_tape()
        zt = Tensor(z, requires_grad=True)
        p = softmax_rows(zt)
        (grad,) = _tape_grads(mean(T.mul(p, Tensor(up))), zt)

        e = np.exp(z - z.max(axis=-1, keepdims=True))
        ref = e / e.sum(axis=-1, keepdims=True)
        g = np.broadcast_to(1.0 / up.size, up.shape).copy() * up
        want = ref * (g - (g * ref).sum(axis=-1, keepdims=True))
        assert bits_equal(p.data, ref)
        assert bits_equal(grad, want)

    @pytest.mark.parametrize("heads", [1, 5, 9])  # 9 crosses numpy's pairwise block of 8
    @pytest.mark.parametrize("slices", [None, 3])
    @pytest.mark.parametrize("width", [1, 3])
    def test_heads_sum_a_shared_input_gradient_from_the_last(self, heads, slices, width):
        rng = np.random.default_rng(17)
        lead = () if slices is None else (slices,)
        x, w = rng.normal(size=lead + (6, 4)), rng.normal(size=lead + (heads, 4, width))
        w[..., 0, :] = 0.0  # zero products of both signs
        w *= 10.0 ** rng.integers(-6, 7, size=w.shape[:-2] + (1, 1))  # order matters
        up = rng.normal(size=lead + (heads, 6, width))
        up[..., :2, :] = 0.0
        reset_tape()
        xt = Tensor(x, requires_grad=True)
        out = linear(xt, Tensor(w, requires_grad=True), Tensor(np.zeros(w.shape[:-2] + (width,))))
        (gx,) = _tape_grads(mean(T.mul(out, Tensor(up))), xt)

        g = np.broadcast_to(1.0 / up.size, up.shape).copy() * up
        w_t = np.swapaxes(w, -1, -2)
        if slices is None:  # one product of the stack, then the heads from the last down
            prods = g * w_t + 0.0 if width == 1 else g @ w_t
            for k in range(heads - 2, -1, -1):
                prods[-1] += prods[k]
            want = prods[-1]
        else:  # a zero-started sum of each head over its slices, from the last down
            want = 0.0
            for k in range(heads - 1, -1, -1):
                want = want + (g[:, k] * w_t[:, k] if width == 1 else g[:, k] @ w_t[:, k])
        assert bits_equal(gx, want)

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_weighted_bce_at_zero_logits(self, lead):
        z = np.zeros(lead + (4, 3))
        z[..., 1, :] = -0.0
        d = np.array([1.0, 0.0, 1.0, 0.0])
        c = np.ones(z.shape)
        c[..., 2, :] = [0.0, -0.0, 2.0]
        reset_tape()
        zt = Tensor(z, requires_grad=True)
        loss = weighted_bce(zt, d, c)
        (grad,) = _tape_grads(mean(loss), zt)

        dd = d[:, None]
        e = np.exp(-np.abs(z))
        bce = np.maximum(z, 0.0) - dd * z + np.log1p(e)
        ref = np.add.reduce(bce * c, (-2, -1)) * float(1.0 / 4)
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        g = np.broadcast_to(1.0 / ref.size, ref.shape).copy()
        want = (g[..., None, None] * float(1.0 / 4)) * c * (sig - dd)
        assert bits_equal(loss.data, ref)
        assert bits_equal(grad, want)



def _negative_zeros(a) -> bool:
    return bool((np.signbit(a) & (a == 0.0)).any())


class TestFoldedNodesMatchChains:
    """The training step reads the two halves of a batch through row ranges and
    applies gradient reversal inside the discriminator's first layer.  Each folded
    form is bit-equal to the chain of nodes it replaced, signed zeros included."""

    @pytest.mark.parametrize("terms", [("sup",), ("sup", "ent"), ("sup", "self"),
                                       ("sup", "self", "ent")])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_row_range_losses_match_slice_rows_and_the_losses(self, lead, terms):
        rng = np.random.default_rng(21)
        b, k = 4, 3
        p = rng.dirichlet(np.ones(k), size=lead + (2 * b,))
        p[..., 1, :] = [1.0, 1e-14, 0.0]  # entries below the floor
        y, pseudo = np.array([0, 1, 2, 0]), rng.integers(0, k, size=lead + (b,))
        w_src = rng.uniform(0.5, 2.0, size=lead + (k,))
        w_src[..., 0] = 0.0  # a class weighed by zero: -0.0 gradients
        w_tgt = np.where(rng.random(lead + (k,)) < 0.5, 0.0, 1.0)
        scale = 0.1 if not lead else np.array([0.1, 0.0])

        def chain():
            pt = Tensor(p, requires_grad=True)
            src, tgt = slice_rows(pt, 0, b), slice_rows(pt, b, 2 * b)
            losses = [cross_entropy_mean(src, y, w_src)]
            if "self" in terms:
                losses.append(cross_entropy_mean(tgt, pseudo, w_tgt))
            if "ent" in terms:
                losses.append(entropy_mean(tgt, scale))
            return pt, losses, src

        def folded():
            pt = Tensor(p, requires_grad=True)
            losses = [cross_entropy_mean(pt, y, w_src, slice(0, b))]
            if "self" in terms:
                losses.append(cross_entropy_mean(pt, pseudo, w_tgt, slice(b, 2 * b)))
            if "ent" in terms:
                losses.append(entropy_mean(pt, scale, slice(b, 2 * b)))
            return pt, losses, None

        results = []
        for build in (chain, folded):
            reset_tape()
            pt, losses, src = build()
            backward(T.add(*losses))
            results.append(([t.data for t in losses], pt.grad, src))
        (want_losses, want, src), (got_losses, got, _) = results
        assert _negative_zeros(src.grad)  # the slice's own gradient holds -0.0
        assert all(bits_equal(g, w) for g, w in zip(got_losses, want_losses))
        assert bits_equal(got, want)
        assert _negative_zeros(got) == (terms == ("sup",))  # + 0.0 over the other half

    @pytest.mark.parametrize("w_shape, x_shape", [
        ((3, 2), (4, 3)), ((2, 3, 2), (4, 3)), ((2, 3, 1), (4, 3)), ((1, 3, 1), (4, 3)),
        ((2, 3, 2), (2, 4, 3)), ((2, 2, 3, 2), (2, 4, 3)), ((2, 2, 3, 1), (2, 4, 3)),
    ])
    @pytest.mark.parametrize("act", ["relu", "none"])
    @pytest.mark.parametrize("lam", [0.0, 0.37])
    def test_reversal_inside_linear_matches_grad_reverse_and_linear(self, w_shape, x_shape,
                                                                    act, lam):
        rng = np.random.default_rng(22)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        w[..., 0, :] = 0.0  # zero products of both signs
        b = rng.normal(size=w_shape[:-2] + w_shape[-1:])
        wc = rng.normal(size=x_shape[:-2] + (3, 2))
        up = rng.normal(size=w_shape[:-2] + x_shape[-2:-1] + w_shape[-1:])
        up_c = rng.normal(size=x_shape[:-1] + (2,))

        def run(folded):
            reset_tape()
            xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
            # The features' other reader, the classifier, is on the tape first.
            cls = linear(xt, Tensor(wc), Tensor(np.zeros(wc.shape[:-2] + (2,))))
            out = linear(xt, wt, bt, act, reverse=lam) if folded else \
                linear(grad_reverse(xt, lam), wt, bt, act)
            backward(T.add(mean(T.mul(cls, Tensor(up_c))), mean(T.mul(out, Tensor(up)))))
            return [out.data, xt.grad, wt.grad, bt.grad]

        assert all(bits_equal(got, want) for got, want in zip(run(True), run(False)))

    def test_reversal_inside_linear_requires_a_finite_lambda(self):
        x, w, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((3, 1))), \
            Tensor(np.zeros(1))
        with pytest.raises(ValueError, match="^grad_reverse requires a finite lambda$"):
            linear(x, w, b, reverse=float("inf"))

    @pytest.mark.parametrize("heads", [1, 5, 9])  # 9 crosses numpy's pairwise block of 8
    @pytest.mark.parametrize("width", [2, 16])
    def test_heads_summed_one_by_one_match_the_batched_product_and_reversed_sum(self, heads,
                                                                                 width):
        rng = np.random.default_rng(23)
        x, w = rng.normal(size=(6, 4)), rng.normal(size=(heads, 4, width))
        w[..., 0, :] = 0.0
        w *= 10.0 ** rng.integers(-6, 7, size=(heads, 1, 1))  # order matters
        g = rng.normal(size=(heads, 6, width))
        g[:, :2] = -0.0
        g[:, 2, :1] = 0.0
        reset_tape()
        xt = Tensor(x, requires_grad=True)
        linear(xt, Tensor(w, requires_grad=True), Tensor(np.zeros((heads, width))))
        (gx,) = [gr for t, gr in T._tape.nodes[-1].backward_fn(g) if t is xt]
        want = np.add.reduce((g @ w.swapaxes(-1, -2))[::-1], 0)
        assert bits_equal(gx, want)

def _gradcheck_primitive(name, build, sampler, trials=120, tol=1e-4, seed=1234):
    """FD check of a single primitive over many random inputs.

    ``build(x_tensor)`` returns the scalar loss; ``sampler(rng)`` draws
    an input array bounded away from any non-smooth point.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        vals = sampler(rng)
        x = Tensor(vals, requires_grad=True)
        g = autodiff_grad(build, x)

        def value():
            with no_grad():
                return build(Tensor(vals)).item()

        fd = finite_diff(value, vals)
        worst = max(worst, rel_err(g, fd))
    assert worst < tol, f"{name}: worst relative error {worst:.3g}"


@pytest.mark.parametrize("name", [
    "matmul", "add_bias", "mul", "relu", "mean",
    "softmax", "cross_entropy_hard",
    "binary_cross_entropy", "entropy_rows", "slice", "stack_to_cols", "add_bias_stack",
    "batched_matmul_shared_input", "batched_matmul_stacked_input",
    "batched_matmul_weights_shared_input", "batched_matmul_weights_stacked_input",
    "linear_weights", "linear_input", "cross_entropy_mean_weighted", "weighted_bce",
    "entropy_mean_scaled", "add_n",
])
def test_primitive_gradients_match_finite_differences(name):
    rng0 = np.random.default_rng(99)
    other = rng0.normal(size=(3, 2))
    bias = rng0.normal(size=3)
    rng0.normal(size=(4, 3))  # a spare draw keeps the inputs below as they were
    domains = rng0.integers(0, 2, size=4)
    w_stack = rng0.normal(size=(2, 3, 2))
    bias_stack = rng0.normal(size=(2, 3))
    a_shared = rng0.normal(size=(4, 3))
    a_stacked = rng0.normal(size=(2, 4, 3))
    cols = rng0.normal(size=(4, 3))
    class_w = rng0.uniform(0.1, 2.0, size=3)
    targets = rng0.integers(0, 2, size=(4, 3))
    labels = np.array([0, 2, 1, 0])
    eye, eye_stack = np.eye(3), np.stack([np.eye(3)] * 2)

    def square_mean(t):
        return mean(T.mul(t, t))

    cases = {
        "matmul": (lambda x: mean(matmul(x, Tensor(other))),
                   lambda r: r.normal(size=(4, 3))),
        "add_bias": (lambda x: square_mean(linear(Tensor(a_shared), Tensor(eye), x)),
                     lambda r: r.normal(size=3)),
        "mul": (lambda x: mean(T.mul(x, x)), lambda r: r.normal(size=(4, 3))),
        "relu": (lambda x: mean(relu(x)),
                 lambda r: np.sign(r.normal(size=(4, 3))) * r.uniform(0.01, 2.0, size=(4, 3))),
        "mean": (lambda x: mean(T.add(x, x)), lambda r: r.normal(size=(4, 3))),
        "softmax": (lambda x: mean(T.mul(softmax_rows(x), softmax_rows(x))),
                    lambda r: r.normal(size=(4, 3))),
        "cross_entropy_hard": (lambda x: cross_entropy_mean(softmax_rows(x), labels, np.ones(3)),
                               lambda r: r.normal(size=(4, 3))),
        "binary_cross_entropy": (lambda x: weighted_bce(x, domains, np.ones((4, 3))),
                                 lambda r: r.normal(size=(4, 3))),
        "entropy_rows": (lambda x: entropy_mean(softmax_rows(x), 1.0),
                         lambda r: r.normal(size=(4, 3))),
        "slice": (lambda x: mean(T.mul(slice_rows(x, 1, 3), slice_rows(x, 1, 3))),
                  lambda r: r.normal(size=(4, 3))),
        "stack_to_cols": (lambda x: mean(T.mul(T.mul(stack_to_cols(x), stack_to_cols(x)),
                                               Tensor(cols))),
                          lambda r: r.normal(size=(3, 4, 1))),
        "add_bias_stack": (lambda x: square_mean(linear(Tensor(a_shared), Tensor(eye_stack), x)),
                           lambda r: r.normal(size=(2, 3))),
        "batched_matmul_shared_input": (
            lambda x: square_mean(linear(x, Tensor(w_stack), Tensor(bias_stack[:, :2]))),
            lambda r: r.normal(size=(4, 3))),
        "batched_matmul_stacked_input": (
            lambda x: square_mean(linear(x, Tensor(w_stack), Tensor(bias_stack[:, :2]))),
            lambda r: r.normal(size=(2, 4, 3))),
        "batched_matmul_weights_shared_input": (
            lambda x: square_mean(linear(Tensor(a_shared), x, Tensor(np.zeros((2, 2))))),
            lambda r: r.normal(size=(2, 3, 2))),
        "batched_matmul_weights_stacked_input": (
            lambda x: square_mean(linear(Tensor(a_stacked), x, Tensor(np.zeros((2, 2))))),
            lambda r: r.normal(size=(2, 3, 2))),
        "linear_weights": (lambda x: square_mean(linear(Tensor(a_shared), x, Tensor(bias[:2]))),
                           lambda r: r.normal(size=(3, 2))),
        "linear_input": (lambda x: square_mean(linear(x, Tensor(other), Tensor(bias[:2]))),
                         lambda r: r.normal(size=(4, 3))),
        "cross_entropy_mean_weighted": (
            lambda x: cross_entropy_mean(softmax_rows(x), labels, class_w),
            lambda r: r.normal(size=(4, 3))),
        "weighted_bce": (lambda x: weighted_bce(x, targets, cols),
                         lambda r: r.normal(size=(4, 3))),
        "entropy_mean_scaled": (lambda x: entropy_mean(softmax_rows(x), 0.1),
                                lambda r: r.normal(size=(4, 3))),
        "add_n": (lambda x: square_mean(T.add(x, Tensor(cols), x)),
                  lambda r: r.normal(size=(4, 3))),
    }
    build, sampler = cases[name]
    _gradcheck_primitive(name, build, sampler)
