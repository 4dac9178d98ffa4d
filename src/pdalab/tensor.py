"""Dense float64 arrays with reverse-mode automatic differentiation.

Every primitive applied to a gradient-tracking tensor is recorded on a
module-level tape.  Recording order is a topological order by
construction (an operation can only consume tensors that already
exist), so ``backward`` is a single reverse sweep over the tape.  The
tape is dynamic: the trainer resets it at the start of every step.

``grad_reverse`` is the primitive that turns one descent pass into a
min-max step: identity on the forward pass, ``-lam`` scaling on the
backward pass.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

# Probabilities are clamped to this floor before any log.
LOG_FLOOR = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested primitive."""


class TapeError(RuntimeError):
    """backward() was asked to differentiate a tensor not on the active tape."""


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``grad`` is ``None`` until a backward pass deposits a gradient;
    ``None`` means zero.  Gradients accumulate additively across
    backward passes until :func:`zero_grad` clears them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape_pos")

    def __init__(self, values, requires_grad: bool = False):
        data = np.asarray(values, dtype=np.float64)
        if not np.isfinite(data).all():
            raise FloatingPointError("tensor created from non-finite values")
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape_pos: tuple[int, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded primitive application."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive applications for one step."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.generation = 0

    def reset(self) -> None:
        self.nodes.clear()
        self.generation += 1


_tape = Tape()
_grad_enabled = True


def reset_tape() -> None:
    """Discard all recorded operations; old op-outputs become constants."""
    _tape.reset()


@contextlib.contextmanager
def no_grad():
    """Temporarily disable tape recording (evaluation-mode forwards)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values produced by {op!r}")


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]]) -> Tensor:
    _ensure_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._tape_pos = None
    out.requires_grad = _grad_enabled and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        _tape.nodes.append(_Node(op, inputs, out, backward_fn))
        out._tape_pos = (_tape.generation, len(_tape.nodes) - 1)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor the scalar ``loss`` depends on.

    Gradients add into any existing ``grad``; call :func:`zero_grad`
    between steps.  Each tape node is visited exactly once.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        return  # constant loss: all gradients are zero
    if loss._tape_pos is None or loss._tape_pos[0] != _tape.generation:
        raise TapeError("loss is not on the active tape (tape was reset?)")

    pos = loss._tape_pos[1]
    pending: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones_like(loss.data))
    }
    for node in reversed(_tape.nodes[: pos + 1]):
        entry = pending.pop(id(node.output), None)
        if entry is None:
            continue
        out_t, g = entry
        _ensure_finite(g, f"backward of {node.op!r}")
        out_t.grad = g if out_t.grad is None else out_t.grad + g
        for parent, pg in node.backward_fn(g):
            if not parent.requires_grad:
                continue
            prev = pending.get(id(parent))
            pending[id(parent)] = (parent, pg if prev is None else prev[1] + pg)
    # Whatever remains belongs to leaves (parameters and inputs).
    for t, g in pending.values():
        _ensure_finite(g, "backward (leaf)")
        t.grad = g if t.grad is None else t.grad + g


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def _as_const(value, like: np.ndarray) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    try:
        return np.broadcast_to(arr, like.shape)
    except ValueError as exc:
        raise DimensionError(f"constant of shape {arr.shape} does not broadcast "
                             f"to {like.shape}") from exc


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul requires 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g):
        return [(a, g @ b_data.T), (b, a_data.T @ g)]

    return _record("matmul", (a, b), a_data @ b_data, bw)


def batched_matmul(a: Tensor, w: Tensor) -> Tensor:
    """Stacked products ``a[k] @ w[k]``, shape [K, m, h].

    ``w`` is a [K, d, h] stack; ``a`` is either one [m, d] input shared by
    every slice or a [K, m, d] stack.  Each slice is its own product, so
    slice k is bit-equal to ``matmul`` of the slice alone.
    """
    if w.data.ndim != 3 or a.data.ndim not in (2, 3):
        raise DimensionError("batched_matmul requires a 2-d or 3-d input and 3-d weights")
    if a.shape[-1] != w.shape[1] or (a.data.ndim == 3 and a.shape[0] != w.shape[0]):
        raise DimensionError(f"batched_matmul shapes disagree: {a.shape} x {w.shape}")
    a_data, w_data = a.data, w.data

    def bw(g):
        w_t = w_data.transpose(0, 2, 1)
        if a_data.ndim == 3:
            return [(a, np.matmul(g, w_t)), (w, np.matmul(a_data.transpose(0, 2, 1), g))]
        # Summed from the last slice down: the order in which the tape
        # accumulates K separate matmul nodes that read one input.
        ga = g[-1] @ w_t[-1]
        for k in range(len(g) - 2, -1, -1):
            ga = ga + g[k] @ w_t[k]
        return [(a, ga), (w, np.matmul(a_data.T, g))]

    return _record("batched_matmul", (a, w), np.matmul(a_data, w_data), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a bias row against a matrix, and a
    [K, h] stack of bias rows against a [K, m, h] stack of matrices."""
    if a.shape == b.shape:
        def bw(g):
            return [(a, g), (b, g)]
        return _record("add", (a, b), a.data + b.data, bw)
    if a.data.ndim in (2, 3) and a.shape[:-2] + a.shape[-1:] == b.shape:
        def bw(g):
            return [(a, g), (b, g.sum(axis=-2))]
        return _record("add_bias", (a, b), a.data + b.data[..., None, :], bw)
    raise DimensionError(f"add shapes incompatible: {a.shape} vs {b.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g):
        return [(a, g * b_data), (b, g * a_data)]

    return _record("mul", (a, b), a_data * b_data, bw)


def mul_const(a: Tensor, c) -> Tensor:
    c_arr = _as_const(c, a.data)

    def bw(g):
        return [(a, g * c_arr)]

    return _record("mul_const", (a,), a.data * c_arr, bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bw(g):
        return [(a, g * s)]

    return _record("scale", (a,), a.data * s, bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def bw(g):
        return [(a, g * mask)]

    return _record("relu", (a,), np.where(mask, a.data, 0.0), bw)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def bw(g):
        return [(a, np.broadcast_to(g, shape).copy())]

    return _record("sum", (a,), np.asarray(a.data.sum()), bw)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")
    shape = a.shape

    def bw(g):
        return [(a, np.broadcast_to(g / n, shape).copy())]

    return _record("mean", (a,), np.asarray(a.data.mean()), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        return [(a, g * out_data * (1.0 - out_data))]

    return _record("sigmoid", (a,), out_data, bw)


def softmax_rows(logits: Tensor) -> Tensor:
    """Row-wise exp-normalize, stabilized by per-row max subtraction."""
    if logits.data.ndim != 2:
        raise DimensionError("softmax_rows requires a 2-d tensor")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        return [(logits, p * (g - (g * p).sum(axis=1, keepdims=True)))]

    return _record("softmax_rows", (logits,), p, bw)


def cross_entropy_rows(pred: Tensor, labels) -> Tensor:
    """Per-row cross-entropy of simplex rows against integer class labels.

    ``labels`` is a vector of one class index per row.  Entries of
    ``pred`` are floored at ``LOG_FLOOR`` before the log.
    """
    if pred.data.ndim != 2:
        raise DimensionError("cross_entropy_rows requires a 2-d prediction tensor")
    m, k = pred.shape
    p = pred.data
    clamped = np.maximum(p, LOG_FLOOR)
    labels = np.asarray(labels)
    if labels.shape != (m,):
        raise DimensionError("one label per prediction row required")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if (labels < 0).any() or (labels >= k).any():
        raise ValueError(f"label index out of range [0, {k})")
    rows = np.arange(m)
    out_data = -np.log(clamped[rows, labels])

    def bw(g):
        gp = np.zeros_like(p)
        live = p[rows, labels] > LOG_FLOOR
        gp[rows, labels] = -g * live / clamped[rows, labels]
        return [(pred, gp)]

    return _record("cross_entropy", (pred,), out_data, bw)


def binary_cross_entropy(probs: Tensor, targets) -> Tensor:
    """Elementwise -[d log p + (1-d) log(1-p)], logs floored at LOG_FLOOR.

    ``targets`` may match ``probs`` or be a per-row vector broadcast
    across columns (one domain label per sample).
    """
    p = probs.data
    d = np.asarray(targets, dtype=np.float64)
    if d.ndim == 1 and p.ndim == 2 and d.shape[0] == p.shape[0]:
        d = d[:, None]
    d = _as_const(d, p)
    pc = np.maximum(p, LOG_FLOOR)
    qc = np.maximum(1.0 - p, LOG_FLOOR)
    out_data = -(d * np.log(pc) + (1.0 - d) * np.log(qc))

    def bw(g):
        gp = -d * (p > LOG_FLOOR) / pc + (1.0 - d) * ((1.0 - p) > LOG_FLOOR) / qc
        return [(probs, g * gp)]

    return _record("binary_cross_entropy", (probs,), out_data, bw)


def entropy_rows(pred: Tensor) -> Tensor:
    """Per-row Shannon entropy (natural log) of simplex rows."""
    if pred.data.ndim != 2:
        raise DimensionError("entropy_rows requires a 2-d tensor")
    p = pred.data
    clamped = np.maximum(p, LOG_FLOOR)
    out_data = -(p * np.log(clamped)).sum(axis=1)

    def bw(g):
        return [(pred, -g[:, None] * (np.log(clamped) + (p > LOG_FLOOR)))]

    return _record("entropy_rows", (pred,), out_data, bw)


def grad_reverse(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the incoming gradient by -lam."""
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError("grad_reverse requires a finite lambda")

    def bw(g):
        return [(x, -lam * g)]

    return _record("grad_reverse", (x,), x.data.copy(), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("slice_rows requires a 2-d tensor")
    if not (0 <= start <= stop <= a.shape[0]):
        raise DimensionError(f"row slice [{start}:{stop}] out of bounds for {a.shape}")
    shape = a.shape

    def bw(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return [(a, full)]

    return _record("slice_rows", (a,), a.data[start:stop].copy(), bw)


def stack_to_cols(a: Tensor) -> Tensor:
    """A [K, m, 1] stack of single-column outputs as one [m, K] matrix."""
    if a.data.ndim != 3 or a.shape[2] != 1:
        raise DimensionError(f"stack_to_cols requires a [K, m, 1] stack, got {a.shape}")

    def bw(g):
        return [(a, g.T.copy()[:, :, None])]

    return _record("stack_to_cols", (a,), a.data[:, :, 0].T.copy(), bw)
