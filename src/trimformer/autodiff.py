"""Dense tensors with taped reverse-mode differentiation.

Just enough operator coverage for a decoder-only transformer: matmul,
elementwise arithmetic, reductions, softmax / log-softmax / logsumexp,
layer norm, embedding lookup, gather along the vocab axis, rotary position
twiddles and cross-entropy.

Recording model: ops run eagerly on numpy arrays. When a :class:`Tape` is
active on the current thread *and* an input participates in the graph, the
op appends a node (output, inputs, backward closure) to the tape. Without
an active tape nothing is recorded, so forward-only callers pay no gradient
bookkeeping. One tape per training context; contexts on different threads
are independent.

Reductions use numpy's sequential deterministic order, so identical inputs
produce bit-identical outputs within one build.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DataError, ShapeError, TapeError

_state = threading.local()

# Monotone count of nodes ever recorded; lets tests assert that forward-only
# code paths (importance estimation) never touch the gradient machinery.
_nodes_recorded = 0


def nodes_recorded_total() -> int:
    return _nodes_recorded


def active_tape():
    return getattr(_state, "tape", None)


class Tensor:
    """Immutable-after-construction dense array with an optional gradient.

    ``data`` is a row-major float32 or float64 numpy array. ``requires_grad``
    marks graph participation; ``grad`` is populated by ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise DataError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._node = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: trusted op output, skips validation.
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        t._node = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "fn", "tape")

    def __init__(self, out, inputs, fn, tape):
        self.out = out
        self.inputs = inputs
        self.fn = fn
        self.tape = tape


class Tape:
    """Ordered record of primitive ops for one reverse pass.

    Use as a context manager around the forward computation, then call
    :func:`backward` on the scalar loss. A tape is consumed by its backward
    pass and cannot be reused.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False
        self._prev = None

    def __enter__(self):
        self._prev = active_tape()
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = self._prev
        self._prev = None
        return False

    def _backward(self, loss: Tensor) -> None:
        if self.consumed:
            raise TapeError("tape already consumed by a previous backward pass")
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        # Restrict the sweep to nodes that actually feed the loss.
        needed = set()
        stack = [loss]
        while stack:
            node = stack.pop()._node
            if node is not None and id(node) not in needed:
                needed.add(id(node))
                stack.extend(node.inputs)
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if id(node) not in needed or node.out.grad is None:
                continue
            grads = node.fn(node.out.grad)
            stored: set[int] = set()
            for inp, g in zip(node.inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                if inp.grad is None:
                    # Aliasing the (now dead) output gradient is fine, but two
                    # inputs must never share one stored array.
                    if id(g) in stored:
                        g = g.copy()
                    stored.add(id(g))
                    inp.grad = g
                else:
                    inp.grad += g
        self.consumed = True
        # Each output holds its node and each node its output; break the
        # cycle so the graph is freed now rather than by the cycle collector.
        for node in self.nodes:
            node.out._node = None
        self.nodes.clear()


class no_grad:
    """Context that hides the active tape, e.g. for teacher forward passes."""

    def __enter__(self):
        self._prev = active_tape()
        _state.tape = None
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = self._prev
        return False


def backward(loss: Tensor) -> None:
    """Run the reverse pass of the tape that recorded ``loss``.

    Populates ``.grad`` on every ``requires_grad`` tensor reachable from the
    loss and consumes the tape.
    """
    node = loss._node
    if node is None:
        raise TapeError(
            "backward called on a tensor with no recorded graph: it was produced "
            "without an active tape, or its tape was consumed"
        )
    node.tape._backward(loss)


def _make(out_data, inputs, fn) -> Tensor:
    out = Tensor._wrap(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        global _nodes_recorded
        out.requires_grad = True
        node = _Node(out, tuple(inputs), fn, tape)
        out._node = node
        tape.nodes.append(node)
        _nodes_recorded += 1
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), fn)


def neg(a) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    """Elementwise product; also accepts a python scalar for either side."""
    if isinstance(b, (int, float)):
        c = b

        def fn_s(g):
            return (g * c,)

        return _make(a.data * c, (a,), fn_s)
    if isinstance(a, (int, float)):
        return mul(b, a)

    def fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(a.data * b.data, (a, b), fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data

    def fn(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(out, (a, b), fn)


def pow_const(a: Tensor, p: float) -> Tensor:
    out = a.data**p

    def fn(g):
        return (g * p * a.data ** (p - 1),)

    return _make(out, (a,), fn)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def fn(g):
        return (g * out,)

    return _make(out, (a,), fn)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def fn(g):
        return (g / a.data,)

    return _make(out, (a,), fn)


def squared_relu(a: Tensor) -> Tensor:
    r = np.maximum(a.data, 0)
    out = r * r

    def fn(g):
        return (g * 2.0 * r,)

    return _make(out, (a,), fn)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def fn(g):
        return (g.reshape(a.data.shape),)

    return _make(a.data.reshape(shape), (a,), fn)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def fn(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes), (a,), fn)


def repeat(a: Tensor, repeats: int, axis: int) -> Tensor:
    """Tile each slice along ``axis`` ``repeats`` times (kv-group expansion)."""
    out = np.repeat(a.data, repeats, axis=axis)
    shape = a.data.shape

    def fn(g):
        gshape = shape[:axis] + (shape[axis], repeats) + shape[axis + 1 :]
        return (g.reshape(gshape).sum(axis=axis + 1),)

    return _make(out, (a,), fn)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def fn(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), fn)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.data.shape[i] for i in ax]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supports plain 2-D products, a stack of left operands against a 2-D
    right operand, and batched products with identical leading extents.
    No other broadcasting.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {ad.shape} @ {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul leading extents differ: {ad.shape} @ {bd.shape}")
    out = np.matmul(ad, bd)

    def fn(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        if bd.ndim == 2:
            k, n = bd.shape
            gb = np.matmul(ad.reshape(-1, k).T, g.reshape(-1, n))
        else:
            gb = np.matmul(ad.swapaxes(-1, -2), g)
        return ga, gb

    return _make(out, (a, b), fn)


# ---------------------------------------------------------------------------
# indexing


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; scatter-add on the way back."""
    ids = np.asarray(ids)
    v = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise DataError(f"token id out of range [0, {v})")
    out = table.data[ids]

    def fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return _make(out, (table,), fn)


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select ``idx`` entries along the last axis (indices unique per row)."""
    out = np.take_along_axis(a.data, idx, axis=-1)

    def fn(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx, g, axis=-1)
        return (ga,)

    return _make(out, (a,), fn)


# ---------------------------------------------------------------------------
# normalizations and losses


def softmax(a: Tensor) -> Tensor:
    """Row softmax over the last axis, stabilized by max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), fn)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def fn(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _make(out, (a,), fn)


def logsumexp(a: Tensor, keepdims: bool = False) -> Tensor:
    m = a.data.max(axis=-1, keepdims=True)
    out = np.log(np.exp(a.data - m).sum(axis=-1, keepdims=True)) + m
    sm = np.exp(a.data - out)
    if not keepdims:
        out = out.squeeze(-1)

    def fn(g):
        if not keepdims:
            g = np.expand_dims(g, -1)
        return (g * sm,)

    return _make(out, (a,), fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError("layer_norm parameter extents do not match input width")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def fn(g):
        lead = tuple(range(g.ndim - 1))
        gbeta = g.sum(axis=lead)
        ggamma = (g * xhat).sum(axis=lead)
        dxhat = g * gamma.data
        gx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, ggamma, gbeta

    return _make(out, (x, gamma, beta), fn)


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position transform on ``[..., seq, dim]`` with half-split pairing.

    ``cos``/``sin`` are precomputed ``[seq, dim]`` tables; the map is linear
    in ``x`` so the backward pass is its transpose.
    """
    half = x.data.shape[-1] // 2

    def rot(v):
        return np.concatenate((-v[..., half:], v[..., :half]), axis=-1)

    out = x.data * cos + rot(x.data) * sin

    def fn(g):
        gs = g * sin
        inv_rot = np.concatenate((gs[..., half:], -gs[..., :half]), axis=-1)
        return (g * cos + inv_rot,)

    return _make(out, (x,), fn)


def soft_cross_entropy(logits: Tensor, probs: np.ndarray) -> Tensor:
    """Per-row ``-sum(p * log_softmax(x))`` against constant target ``probs``.

    Backward uses the soft-target derivative ``softmax(x) - p``, which treats
    each target row as summing to one exactly; bitwise-equal distributions
    therefore produce bitwise-zero gradients (a fixed point for
    self-distillation), which a composed log-softmax graph cannot achieve.
    """
    m = logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits.data - m).sum(axis=-1, keepdims=True)) + m
    logp = logits.data - lse
    out = -(probs * logp).sum(axis=-1)

    def fn(g):
        return (g[..., None] * (np.exp(logp) - probs),)

    return _make(out, (logits,), fn)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` over the last axis."""
    targets = np.asarray(targets)
    v = logits.data.shape[-1]
    if targets.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    if targets.size == 0:
        raise DataError("cross_entropy on an empty batch")
    if targets.min() < 0 or targets.max() >= v:
        raise DataError(f"token id out of range [0, {v})")
    flat = logits.data.reshape(-1, v)
    t = targets.reshape(-1)
    shifted = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    n = t.shape[0]
    out = np.asarray(-logp[np.arange(n), t].mean(), dtype=logits.data.dtype)

    def fn(g):
        sm = np.exp(logp)
        sm[np.arange(n), t] -= 1.0
        return ((g / n) * sm.reshape(logits.data.shape),)

    return _make(out, (logits,), fn)
