"""Dense float64 arrays with reverse-mode automatic differentiation.

Every primitive applied to a gradient-tracking tensor is recorded on a
module-level tape, in a topological order by construction, so
``backward`` is a single reverse sweep.  The trainer resets the tape at
the start of every step, which is a few fat nodes (a whole layer, a
whole loss term), each bit-equal to the chain of small operations it
stands for.  On the tape, finiteness is checked per backward pass, not
per node: the loss and the leaf gradients, with a walk of the tape to
name the node that first went non-finite.  Off the tape each primitive
checks its own output.

``linear``'s ``reverse`` (gradient reversal) turns one descent pass into a min-max
step; a loss reads half a batch through ``rows``.  Every node takes an optional
leading slice axis: S programs at once, each slice bit-equal to its program alone.
"""

from __future__ import annotations

import contextlib
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

# Simplex probabilities are clamped to this floor before any log.
LOG_FLOOR = 1e-12
ACTIVATIONS = ("relu", "none")


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``grad`` is ``None`` until a backward pass deposits a gradient;
    ``None`` means zero.  Gradients accumulate additively across
    backward passes until :func:`zero_grad` clears them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape_pos", "_pending")

    def __init__(self, values, requires_grad: bool = False):
        data = np.asarray(values, dtype=np.float64)
        if not np.isfinite(data).all():
            raise FloatingPointError("tensor created from non-finite values")
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape_pos: tuple[int, int] | None = None
        self._pending: np.ndarray | None = None  # a backward sweep's gradient so far

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


_tape = Tape()
_grad_enabled = True
_requires_grad = attrgetter("requires_grad")


def reset_tape() -> None:
    """Discard all recorded operations; old op-outputs become constants."""
    _tape.nodes.clear()
    _tape.generation += 1


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
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise FloatingPointError(f"non-finite values produced by {op!r}")


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]],
            checked: bool = False) -> Tensor:
    """The output, on the tape if any input needs a gradient; off the tape
    it is checked here, unless the primitive did (``checked``)."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._tape_pos = out._pending = None
    out.requires_grad = _grad_enabled and any(map(_requires_grad, inputs))
    if out.requires_grad:
        _tape.nodes.append(_Node(op, inputs, out, backward_fn))
        out._tape_pos = (_tape.generation, len(_tape.nodes) - 1)
    elif not checked:
        _ensure_finite(out_data, op)
    return out


def _check_sweep(value, nodes: list[_Node], grads: bool) -> None:
    """If ``value`` is not finite, name the first node gone non-finite: with
    ``grads`` by what its backward returns, in backward order; else by its
    output, in tape order among the nodes the loss (the last node) reads."""
    if np.isfinite(value):
        return
    needed = {id(nodes[-1].output)}
    for node in reversed(nodes):
        g = node.output.grad
        if grads and g is not None and not all(
                np.isfinite(pg).all() for t, pg in node.backward_fn(g) if t.requires_grad):
            raise FloatingPointError(f"non-finite values produced by the backward of {node.op!r}")
        if id(node.output) in needed:
            needed.update(id(t) for t in node.inputs)
    for node in nodes:
        if id(node.output) in needed and not np.isfinite(node.output.data).all():
            raise FloatingPointError(f"non-finite values produced by {node.op!r}")
    # Only the sum of finite leaf gradients overflowed: nothing to report.


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor the scalar (or per-slice) ``loss`` depends on.

    Gradients add into any existing ``grad``; call :func:`zero_grad`
    between steps.  Each tape node is visited exactly once.
    """
    if loss.data.size != 1 and loss.data.ndim != 1:
        raise ValueError("backward requires a scalar loss or one value per slice")
    if not loss.requires_grad:
        return  # constant loss: all gradients are zero
    if loss._tape_pos is None or loss._tape_pos[0] != _tape.generation:
        raise RuntimeError("loss is not on the active tape (tape was reset?)")

    nodes = _tape.nodes[: loss._tape_pos[1] + 1]
    _check_sweep(loss.data.item() if loss.data.size == 1 else loss.data.sum(), nodes, grads=False)
    loss._pending, touched = np.ones_like(loss.data), [loss]  # in first-touch order
    try:
        for node in reversed(nodes):
            out_t, g = node.output, node.output._pending
            if g is None:
                continue
            out_t._pending = None
            out_t.grad = g if out_t.grad is None else out_t.grad + g
            for parent, pg in node.backward_fn(g):
                if not parent.requires_grad:
                    continue
                if parent._pending is None:
                    parent._pending = pg
                    touched.append(parent)
                else:
                    parent._pending = parent._pending + pg
        # Whatever remains belongs to leaves (parameters and inputs).  Every
        # gradient reaches some leaf, so one sum shows a non-finite one.
        leaves = [t for t in touched if t._pending is not None]
        _check_sweep(np.add.reduce(np.concatenate([t._pending.ravel() for t in leaves])), nodes,
                     grads=True)
        for t in leaves:
            t.grad = t._pending if t.grad is None else t.grad + t._pending
    finally:
        for t in touched:
            t._pending = None


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul requires 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g):
        return [(a, g @ b_data.T), (b, a_data.T @ g)]

    return _record("matmul", (a, b), a_data @ b_data, bw)


def linear(x: Tensor, w: Tensor, b: Tensor, act: str = "none", reverse=None) -> Tensor:
    """One layer, ``x @ w + b`` and then relu if ``act`` is ``"relu"``.

    ``w`` is a [d, h] weight with a [h] bias, or a stack: [K, d, h] heads, [S, d, h]
    slices or [S, K, d, h].  The input has w's leading axes, or all but the last,
    whose slices then share it: [m, d] for [K, d, h] or [S, d, h], [S, m, d] for
    [S, K, d, h].  Each slice is its own product, bit-equal to its 2-d layer.
    With ``reverse`` lam, x's gradient is -lam times its head sum: grad_reverse's bits.
    """
    if reverse is not None and not np.isfinite(reverse):
        raise ValueError("grad_reverse requires a finite lambda")
    x_data, w_data, b_data = x.data, w.data, b.data
    xb = x_data.ndim - 2  # leading axes of x; w has these, or one more
    if xb < 0 or w_data.ndim > 4 or w_data.ndim - xb not in (2, 3) \
            or x_data.shape[:-2] != w_data.shape[:xb] \
            or x_data.shape[-1] != w_data.shape[-2] \
            or b_data.shape != w_data.shape[:-2] + w_data.shape[-1:]:
        raise ValueError(f"linear shapes disagree: {x.shape} x {w.shape} + {b.shape}")
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}")
    shared = w_data.ndim - xb == 3  # w's axis after x's own reads one input
    x_data = x_data[:, None] if shared and xb else x_data
    out = x_data @ w_data
    out += b_data[..., None, :]
    # The one eager check on the tape: relu turns -inf into 0.0, and a softmax gives
    # a -inf logit probability 0.0 beside a finite one, so the loss would not show it.
    _ensure_finite(out, "linear")
    relu = act == "relu"
    if relu:  # np.where(out > 0, out, 0.0) to the bit, in place: + 0.0
        out += 0.0  # turns -0.0 into 0.0, so np.maximum meets no tie of signed zeros
        np.maximum(out, 0.0, out=out)

    def bw(g):
        if relu:  # positive exactly where the product was; no node writes into out
            g = g * (out > 0.0)
        grads = [(b, np.add.reduce(g, -2)), (w, x_data.swapaxes(-1, -2) @ g)]
        if x.requires_grad:
            w_t = w_data.swapaxes(-1, -2)
            if not shared:
                gx = g @ w_t
            else:  # heads reading one input add from the last down, the tape's order,
                # one head (over its slices) at a time: no [S, K, m, d] temporary.
                gx = g[..., -1, :, :] @ w_t[..., -1, :, :]
                gx += 0.0  # a zero-started sum
                term = np.empty_like(gx)
                for k in range(g.shape[-3] - 2, -1, -1):
                    gx += np.matmul(g[..., k, :, :], w_t[..., k, :, :], out=term)
            grads.append((x, gx if reverse is None else -reverse * gx))
        return grads

    return _record("linear", (x, w, b), out, bw, checked=True)


def add(*terms: Tensor) -> Tensor:
    """Elementwise sum of same-shaped tensors, left to right, in one node."""
    if len({t.data.shape for t in terms}) != 1:
        raise ValueError(f"add shapes differ: {[t.shape for t in terms]}")
    out = terms[0].data
    for t in terms[1:]:
        out = out + t.data

    def bw(g):
        return [(t, g) for t in terms]

    return _record("add", terms, out, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shapes differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def bw(g):
        return [(a, g * b_data), (b, g * a_data)]

    return _record("mul", (a, b), a_data * b_data, bw)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ValueError("mean of an empty tensor")

    def bw(g):
        return [(a, np.broadcast_to(g / n, a.shape).copy())]

    return _record("mean", (a,), np.asarray(a.data.mean()), bw)


def softmax_rows(logits: Tensor) -> Tensor:
    """Row-wise exp-normalize, stabilized by per-row max subtraction."""
    if logits.data.ndim not in (2, 3):
        raise ValueError("softmax_rows requires a 2-d tensor or a stack of them")
    z = logits.data
    top = z[..., 0].copy()  # the row max column by column: faster over a short row
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    p = z - top[..., None]
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bw(g):
        gp = g * p  # then p * (g - sum(g * p)), in place
        np.subtract(g, gp.sum(axis=-1, keepdims=True), out=gp)
        gp *= p
        return [(logits, gp)]

    return _record("softmax_rows", (logits,), p, bw)


def cross_entropy_mean(pred: Tensor, labels, class_weights, rows=slice(None)) -> Tensor:
    """Mean over rows of ``class_weights[y] * -log pred[y]`` for simplex rows and
    one class label per row; ``pred`` is floored at ``LOG_FLOOR`` before the log.
    Over a stack, labels and class weights are shared or per slice; ``rows`` picks rows."""
    if pred.data.ndim not in (2, 3) or pred.shape[-2] == 0:
        raise ValueError("cross_entropy_mean requires a nonempty 2-d tensor or a stack")
    p, idx = pred.data, np.arange(pred.shape[-2])[rows]
    lead, m, k = p.shape[:-2], len(idx), p.shape[-1]
    labels = np.ascontiguousarray(labels)  # a row's sum runs in one order per layout
    if labels.shape not in ((m,), lead + (m,)):
        raise ValueError("one label per prediction row required")
    if labels.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    if np.minimum.reduce(labels, None) < 0 or np.maximum.reduce(labels, None) >= k:
        raise ValueError(f"label index out of range [0, {k})")
    cells = (idx, labels) if not lead else (np.arange(lead[0])[:, None], idx, labels)
    p_y = p[cells]
    picked = np.maximum(p_y, LOG_FLOOR)
    cw = np.asarray(class_weights, dtype=np.float64)
    weights = cw[cells[:-2] + (labels,)] if cw.ndim > 1 else cw[labels]

    def bw(g):
        gp = np.zeros(p.shape)
        gp[cells] = -((g[..., None] / m) * weights) * (p_y > LOG_FLOOR) / picked
        return [(pred, gp)]

    out = np.add.reduce(-np.log(picked) * weights, -1) / m
    return _record("cross_entropy_mean", (pred,), np.asarray(out), bw)


def weighted_bce(logits: Tensor, targets, weights) -> Tensor:
    """``sum(weights * (softplus(z) - d z)) / m`` over [m, k] ``logits`` z, the binary
    cross-entropy of sigmoid(z) to targets d (one label per row spans the row), as
    ``max(z, 0) - d z + log1p(exp(-|z|))``: no overflow, no floor, and the first two
    terms exact for d in {0, 1}.  The gradient is ``weights * (sigmoid(z) - d) / m``."""
    z = logits.data
    if z.ndim not in (2, 3) or z.shape[-2] == 0:
        raise ValueError("weighted_bce requires a nonempty 2-d tensor or a stack")
    d = np.asarray(targets, dtype=np.float64)
    if d.ndim == 1 and d.shape[0] == z.shape[-2]:
        d = d[:, None]
    weights = np.asarray(weights, dtype=np.float64)
    if np.broadcast_shapes(z.shape, d.shape, weights.shape) != z.shape:
        raise ValueError(f"targets {d.shape} and weights {weights.shape} "
                         f"do not broadcast to {z.shape}")
    e, s = np.abs(z), 1.0 / z.shape[-2]
    np.negative(e, out=e)
    np.exp(e, out=e)

    def bw(g):
        sig = np.where(z >= 0, 1.0, e)  # over 1 + e: 1/(1+e) or e/(1+e), one division
        sig /= 1.0 + e
        sig -= d
        sig *= (g[..., None, None] * s) * weights
        return [(logits, sig)]

    weighted = np.maximum(z, 0.0)
    weighted -= d * z
    weighted += np.log1p(e)
    weighted *= weights
    out = np.add.reduce(weighted, (-2, -1)) * s
    return _record("weighted_bce", (logits,), np.asarray(out), bw)


def entropy_mean(pred: Tensor, scale, rows=slice(None)) -> Tensor:
    """``scale`` times the mean Shannon entropy (natural log) of simplex rows, those
    in the ``rows`` range; over a stack, ``scale`` may be one per slice."""
    if pred.data.ndim not in (2, 3) or pred.shape[-2] == 0:
        raise ValueError("entropy_mean requires a nonempty 2-d tensor or a stack")
    p, s = pred.data[..., rows, :], scale
    log_p = np.log(np.maximum(p, LOG_FLOOR))

    def bw(g):
        gp = np.zeros(pred.data.shape)
        gp[..., rows, :] = -((g * s)[..., None, None] / p.shape[-2]) * (log_p + (p > LOG_FLOOR))
        return [(pred, gp)]

    out = np.add.reduce(-np.add.reduce(p * log_p, -1), -1) / p.shape[-2] * s
    return _record("entropy_mean", (pred,), np.asarray(out), bw)


def grad_reverse(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the incoming gradient by -lam."""
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError("grad_reverse requires a finite lambda")

    def bw(g):
        return [(x, -lam * g)]

    return _record("grad_reverse", (x,), x.data.copy(), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim not in (2, 3):
        raise ValueError("slice_rows requires a 2-d tensor or a stack of them")
    if not (0 <= start <= stop <= a.shape[-2]):
        raise ValueError(f"row slice [{start}:{stop}] out of bounds for {a.shape}")

    def bw(g):
        full = np.zeros(a.shape)
        full[..., start:stop, :] = g
        return [(a, full)]

    return _record("slice_rows", (a,), a.data[..., start:stop, :].copy(), bw)


def stack_to_cols(a: Tensor) -> Tensor:
    """A [K, m, 1] stack of single-column outputs as one [m, K] matrix (or S of them)."""
    if a.data.ndim not in (3, 4) or a.shape[-1] != 1:
        raise ValueError(f"stack_to_cols requires a [K, m, 1] stack, got {a.shape}")

    def bw(g):
        return [(a, g.swapaxes(-1, -2).copy()[..., None])]

    return _record("stack_to_cols", (a,), a.data[..., 0].swapaxes(-1, -2).copy(), bw)
