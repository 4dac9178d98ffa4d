import math

import numpy as np
import pytest

from pdalab import tensor as T
from pdalab.tensor import (
    DimensionError,
    TapeError,
    Tensor,
    backward,
    batched_matmul,
    binary_cross_entropy,
    cross_entropy_rows,
    entropy_rows,
    grad_reverse,
    matmul,
    mean,
    no_grad,
    relu,
    reset_tape,
    sigmoid,
    slice_rows,
    softmax_rows,
    stack_to_cols,
    sum_all,
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
        with pytest.raises(DimensionError):
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
        out = cross_entropy_rows(pred, np.array([1]))
        assert out.data == pytest.approx([0.0])

    def test_half_half(self):
        out = cross_entropy_rows(Tensor([[0.5, 0.5]]), np.array([0]))
        assert out.data == pytest.approx([math.log(2.0)], abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_rows(Tensor([[0.5, 0.5]]), np.array([2]))

    def test_labels_must_be_an_integer_vector(self):
        p = np.array([[0.2, 0.3, 0.5]])
        with pytest.raises(DimensionError):
            cross_entropy_rows(Tensor(p), p)  # a matrix of simplex rows
        with pytest.raises(ValueError, match="integers"):
            cross_entropy_rows(Tensor(p), np.array([1.0]))


class TestElementwise:
    def test_relu_dead_unit(self):
        x = Tensor([[-1.0]], requires_grad=True)
        y = sum_all(relu(x))
        assert y.item() == 0.0
        backward(y)
        assert np.allclose(x.grad, [[0.0]])

    def test_relu_passthrough(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = sum_all(relu(x))
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
        loss = sum_all(T.mul(x, x))
        backward(loss)
        assert np.allclose(x.grad, [[6.0]])

    def test_constant_loss(self):
        x = Tensor([[3.0]], requires_grad=True)
        c = sum_all(Tensor([[5.0]]))
        backward(c)  # no-op: loss does not depend on anything tracked
        assert x.grad is None

    def test_non_scalar_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ValueError):
            backward(T.mul(x, x))

    def test_loss_off_tape_rejected(self):
        x = Tensor([[1.0]], requires_grad=True)
        loss = sum_all(T.mul(x, x))
        reset_tape()
        with pytest.raises(TapeError):
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
                h = relu(T.add(matmul(Tensor(x_in), w1), b1))
                out = T.add(matmul(h, w2), b2)
                return mean(T.mul(out, out)).item()

        reset_tape()
        zero_grad([w1, b1, w2, b2])
        h = relu(T.add(matmul(Tensor(x_in), w1), b1))
        out = T.add(matmul(h, w2), b2)
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
        l2 = sum_all(relu(h))
        backward(l1)
        backward(l2)
        separate = x.grad.copy()
        zero_grad([x])
        reset_tape()
        h = T.mul(x, x)
        backward(T.add(mean(h), sum_all(relu(h))))
        assert np.allclose(x.grad, separate, atol=1e-12)

    def test_accumulation_is_additive(self):
        x = Tensor([[2.0]], requires_grad=True)
        loss = sum_all(T.mul(x, x))
        backward(loss)
        backward(loss)
        assert np.allclose(x.grad, [[8.0]])


class TestGradReverse:
    def test_forward_identity(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        assert np.array_equal(grad_reverse(x, 0.7).data, x.data)

    def test_lambda_zero_blocks_gradient(self):
        x = Tensor([[3.0]], requires_grad=True)
        y = sum_all(T.mul(grad_reverse(x, 0.0), Tensor([[2.0]])))
        backward(y)
        assert np.allclose(x.grad, [[0.0]])

    def test_lambda_one_flips_sign(self):
        x = Tensor([[3.0]], requires_grad=True)
        backward(sum_all(T.mul(grad_reverse(x, 1.0), Tensor([[2.0]]))))
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
        backward(sum_all(T.scale(grad_reverse(x, lam), 3.0)))
        assert np.allclose(x.grad, [[-lam * 3.0]])


class TestStructuralOps:
    def test_slice_rows_grad_scatters(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        backward(sum_all(slice_rows(x, 1, 3)))
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_stack_to_cols_roundtrip(self):
        a = Tensor(np.arange(6.0).reshape(2, 3, 1), requires_grad=True)
        out = stack_to_cols(a)
        assert np.array_equal(out.data, [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]])
        backward(sum_all(T.mul_const(out, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))))
        assert np.array_equal(a.grad[:, :, 0], [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_batched_matmul_slices_equal_matmul(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(3, 4, 2)))
        for a in (Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(3, 5, 4)))):
            out = batched_matmul(a, w)
            assert out.shape == (3, 5, 2)
            for k in range(3):
                a_k = a.data if a.data.ndim == 2 else a.data[k]
                assert np.array_equal(out.data[k], matmul(Tensor(a_k), Tensor(w.data[k])).data)

    @pytest.mark.parametrize("a_shape, w_shape", [
        ((5, 3), (2, 4, 2)), ((2, 5, 4), (3, 4, 2)), ((5, 4), (4, 2)), ((5,), (2, 5, 1)),
    ])
    def test_batched_matmul_shape_errors(self, a_shape, w_shape):
        with pytest.raises(DimensionError):
            batched_matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(w_shape)))

    def test_stack_to_cols_rejects_wide_slices(self):
        with pytest.raises(DimensionError):
            stack_to_cols(Tensor(np.ones((2, 3, 2))))


class TestFiniteGuard:
    def test_overflowing_matmul_raises(self):
        x = Tensor([[1e200, 1e200]])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="matmul"):
            matmul(x, Tensor([[1e200], [1e200]]))

    def test_nan_creation_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor([float("nan")])


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
    "matmul", "add_bias", "mul", "relu", "mean", "sigmoid",
    "softmax", "cross_entropy_hard",
    "binary_cross_entropy", "entropy_rows", "slice", "stack_to_cols", "add_bias_stack",
    "batched_matmul_shared_input", "batched_matmul_stacked_input",
    "batched_matmul_weights_shared_input", "batched_matmul_weights_stacked_input",
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

    def square_mean(t):
        return mean(T.mul(t, t))

    cases = {
        "matmul": (lambda x: mean(matmul(x, Tensor(other))),
                   lambda r: r.normal(size=(4, 3))),
        "add_bias": (lambda x: mean(T.mul(T.add(x, Tensor(bias)), T.add(x, Tensor(bias)))),
                     lambda r: r.normal(size=(4, 3))),
        "mul": (lambda x: mean(T.mul(x, x)), lambda r: r.normal(size=(4, 3))),
        "relu": (lambda x: mean(relu(x)),
                 lambda r: np.sign(r.normal(size=(4, 3))) * r.uniform(0.01, 2.0, size=(4, 3))),
        "mean": (lambda x: T.scale(mean(x), 2.0), lambda r: r.normal(size=(4, 3))),
        "sigmoid": (lambda x: mean(sigmoid(x)), lambda r: r.normal(size=(4, 3))),
        "softmax": (lambda x: mean(T.mul(softmax_rows(x), softmax_rows(x))),
                    lambda r: r.normal(size=(4, 3))),
        "cross_entropy_hard": (lambda x: mean(cross_entropy_rows(softmax_rows(x), np.array([0, 2, 1, 0]))),
                               lambda r: r.normal(size=(4, 3))),
        "binary_cross_entropy": (lambda x: mean(binary_cross_entropy(sigmoid(x), domains)),
                                 lambda r: r.normal(size=(4, 3))),
        "entropy_rows": (lambda x: mean(entropy_rows(softmax_rows(x))),
                         lambda r: r.normal(size=(4, 3))),
        "slice": (lambda x: mean(T.mul(slice_rows(x, 1, 3), slice_rows(x, 1, 3))),
                  lambda r: r.normal(size=(4, 3))),
        "stack_to_cols": (lambda x: mean(T.mul_const(T.mul(stack_to_cols(x), stack_to_cols(x)),
                                                      cols)),
                          lambda r: r.normal(size=(3, 4, 1))),
        "add_bias_stack": (lambda x: square_mean(T.add(x, Tensor(bias_stack))),
                           lambda r: r.normal(size=(2, 4, 3))),
        "batched_matmul_shared_input": (lambda x: square_mean(batched_matmul(x, Tensor(w_stack))),
                                        lambda r: r.normal(size=(4, 3))),
        "batched_matmul_stacked_input": (lambda x: square_mean(batched_matmul(x, Tensor(w_stack))),
                                         lambda r: r.normal(size=(2, 4, 3))),
        "batched_matmul_weights_shared_input": (
            lambda x: square_mean(batched_matmul(Tensor(a_shared), x)),
            lambda r: r.normal(size=(2, 3, 2))),
        "batched_matmul_weights_stacked_input": (
            lambda x: square_mean(batched_matmul(Tensor(a_stacked), x)),
            lambda r: r.normal(size=(2, 3, 2))),
    }
    build, sampler = cases[name]
    _gradcheck_primitive(name, build, sampler)
