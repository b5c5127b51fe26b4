"""Dense tensors with taped reverse-mode differentiation.

Just enough operator coverage for a decoder-only transformer: matmul,
elementwise arithmetic (two operands of one shape, or a python scalar
factor), reductions, softmax / log-softmax, layer norm, embedding lookup,
gather along the vocab axis, rotary position twiddles, cross-entropy over a
prefix of the positions (next-token targets meet the full logits, unsliced),
fused :func:`causal_attention`, one node that masks itself, from projections
to per-head output, and the MLP's fused :func:`squared_relu_matmul`, which
keeps ``relu(x)`` and recomputes its square. Every weight product (a 2-D
right operand, or a :func:`linear` weight stored ``[out, in]``) is one 2-D
GEMM over the left operand's folded leading axes.
Every probability comes from one kernel, :func:`_softmax_rows`, and every
log-probability from one other, :func:`_log_softmax_rows`; the numpy-side
teacher terms of distillation call them too. Both shift by :func:`_row_max`.

Recording model: ops run eagerly on numpy arrays. When a :class:`Tape` is
active *and* an input participates in the graph, the
op appends a node (parent nodes, backward closure) to the tape. Nodes hold
no tensors and a closure only the arrays its backward reads, so activations
nothing reads die with their last caller reference, and backward frees each
node as it consumes it. Gradients land on leaves only (parameters and other
untaped ``requires_grad`` tensors). Without an active tape nothing is
recorded, so forward-only callers pay no gradient bookkeeping.

Reductions use numpy's sequential deterministic order, so identical inputs
produce bit-identical outputs within one build.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DataError, ShapeError, TapeError

_tape = None  # the tape ops record onto: set by Tape, hidden by no_grad
LN_EPS = 1e-5  # added to the variance in every layer_norm

# Monotone count of nodes ever recorded; lets tests assert that forward-only
# code paths (importance estimation) never touch the gradient machinery.
_nodes_recorded = 0


def nodes_recorded_total() -> int:
    return _nodes_recorded


def active_tape():
    return _tape


class Tensor:
    """Immutable-after-construction dense array with an optional gradient.

    ``data`` is a row-major float32 or float64 numpy array. ``requires_grad``
    marks graph participation; ``backward`` populates ``grad`` on leaves only.
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("parents", "fn", "grad", "tape")

    def __init__(self, parents, fn, tape):
        self.parents, self.fn, self.grad, self.tape = parents, fn, None, tape


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
        global _tape
        self._prev, _tape = _tape, self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _tape
        _tape, self._prev = self._prev, None
        return False

    def _backward(self, loss: Tensor) -> None:
        if self.consumed:
            raise TapeError("tape already consumed by a previous backward pass")
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        self.consumed = True
        loss._node.grad = np.ones_like(loss.data)
        nodes = self.nodes
        while nodes:
            # Unhook the node before its closure runs: the arrays it saved are
            # freed once the closure has read them, before the next one runs.
            node = nodes.pop()
            g, fn, parents = node.grad, node.fn, node.parents
            node.grad = node.fn = node.parents = None
            # A node gets a gradient only from a consumer that has one, so
            # this skips exactly the nodes that do not feed the loss.
            if g is not None:
                _accumulate(parents, fn(g))


def _accumulate(parents, grads) -> None:
    """Add each gradient into its parent's ``grad`` (a leaf or a node); the
    gradients a consumed node returned die with this call's frame."""
    stored: set[int] = set()
    for parent, g in zip(parents, grads):
        if g is None or parent is None:
            continue
        if parent.grad is None:
            # Aliasing the (now dead) output gradient is fine, but two
            # parents must never share one stored array.
            if id(g) in stored:
                g = g.copy()
            stored.add(id(g))
            parent.grad = g
        else:
            parent.grad += g


class no_grad:
    """Context that hides the active tape, e.g. for teacher forward passes."""

    def __enter__(self):
        global _tape
        self._prev, _tape = _tape, None
        return self

    def __exit__(self, exc_type, exc, tb):
        global _tape
        _tape = self._prev
        return False


def backward(loss: Tensor) -> None:
    """Run the reverse pass of the tape that recorded ``loss``.

    Populates ``.grad`` on every leaf the loss depends on (parameters and
    other untaped ``requires_grad`` tensors) and consumes the tape.
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
    tape = _tape
    if tape is not None and any(t.requires_grad for t in inputs):
        global _nodes_recorded
        out.requires_grad = True
        # A parent is the input's node on this tape, else the input as a leaf
        # (an output of a consumed tape is one), or None without a gradient.
        parents = tuple(t._node if t._node is not None and t._node.tape is tape
                        else t if t.requires_grad else None for t in inputs)
        out._node = _Node(parents, fn, tape)
        tape.nodes.append(out._node)
        _nodes_recorded += 1
    return out


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs operands of one shape, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# arithmetic: elementwise over two tensors of one shape


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)

    def fn(g):
        return g, g

    return _make(a.data + b.data, (a, b), fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)

    def fn(g):
        return g, -g

    return _make(a.data - b.data, (a, b), fn)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a python scalar."""
    if isinstance(b, (int, float)):
        def fn_s(g):
            return (g * b,)

        return _make(a.data * b, (a,), fn_s)
    _same_shape("mul", a, b)

    def fn(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, (a, b), fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("div", a, b)

    def fn(g):
        return g / b.data, -g * a.data / (b.data * b.data)

    return _make(a.data / b.data, (a, b), fn)


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


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    shape, sa = tuple(shape), a.shape

    def fn(g):
        return (g.reshape(sa),)

    return _make(a.data.reshape(shape), (a,), fn)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def fn(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes), (a,), fn)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over all of them when ``axis`` is None."""
    out, sa = a.data.sum(axis=axis), a.shape

    def fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa).copy(),)

    return _make(out, (a,), fn)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supports plain 2-D products, a stack of left operands against a 2-D
    right operand, and batched products with identical leading extents.
    No other broadcasting. A 2-D right operand makes one 2-D GEMM.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {ad.shape} @ {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul leading extents differ: {ad.shape} @ {bd.shape}")
    if bd.ndim == 2:
        k, n = bd.shape
        out = np.matmul(ad.reshape(-1, k), bd).reshape(ad.shape[:-1] + (n,))
    else:
        out = np.matmul(ad, bd)

    def fn(g):
        if bd.ndim == 2:
            ga = np.matmul(g.reshape(-1, n), bd.T).reshape(ad.shape)
            gb = np.matmul(ad.reshape(-1, k).T, g.reshape(-1, n))
        else:
            ga = np.matmul(g, bd.swapaxes(-1, -2))
            gb = np.matmul(ad.swapaxes(-1, -2), g)
        return ga, gb

    return _make(out, (a, b), fn)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ wᵀ`` for a weight stored ``[out, in]``, as one node.

    The leading axes of ``x`` fold into one 2-D GEMM, as in :func:`matmul`,
    and the weight gradient ``gᵀ x`` comes back C-ordered, like ``w``.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.ndim < 2 or xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"linear needs [..., in] and [out, in] operands, "
                         f"got {xd.shape} and {wd.shape}")
    n, k = wd.shape
    out = np.matmul(xd.reshape(-1, k), wd.T).reshape(xd.shape[:-1] + (n,))

    def fn(g):
        g2 = g.reshape(-1, n)
        return np.matmul(g2, wd).reshape(xd.shape), np.matmul(g2.T, xd.reshape(-1, k))

    return _make(out, (x, w), fn)


def squared_relu_matmul(a: Tensor, w: Tensor) -> Tensor:
    """``relu(a)² @ w`` for a ``[k, n]`` weight, as one node that keeps only
    ``relu(a)`` and recomputes its square for the weight gradient. Values and
    gradients equal squared ReLU then :func:`matmul`, bit for bit."""
    wd = w.data
    k, n = wd.shape
    r = np.maximum(a.data, 0)
    out = np.matmul((r * r).reshape(-1, k), wd).reshape(r.shape[:-1] + (n,))

    def fn(g):
        g2 = g.reshape(-1, n)
        gw = np.matmul((r * r).reshape(-1, k).T, g2)
        ga = np.matmul(g2, wd.T).reshape(r.shape)
        ga *= 2.0
        ga *= r
        return ga, gw

    return _make(out, (a, w), fn)


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
    out, sa, dt = np.take_along_axis(a.data, idx, axis=-1), a.shape, a.dtype

    def fn(g):
        ga = np.zeros(sa, dt)
        np.put_along_axis(ga, idx, g, axis=-1)
        return (ga,)

    return _make(out, (a,), fn)


# ---------------------------------------------------------------------------
# normalizations and losses


def _row_max(x: np.ndarray) -> np.ndarray:
    """The values of ``x.max(axis=-1, keepdims=True)``, exactly.

    numpy's per-row reduction costs far more than the work on short rows,
    so rows up to 32 wide are copied column-major and reduced across the
    copy's rows, which vectorizes over all of x's rows at once. Rows 33 to
    64 wide are first folded to 32 by the elementwise max of their first and
    last 32 entries (the copy alone would be slower there). Max never
    rounds, so any order gives the same values (a +0/-0 tie may return
    either zero). Wider rows keep ``x.max``.

    Median µs on float32, numpy 2.4 with OpenBLAS on a 2-vCPU host:

    ==================  =====  =========  ==========================
    shape               x.max  _row_max   path
    ==================  =====  =========  ==========================
    [8, 2, 128, 32]       315       95    copy
    [8, 2, 128, 48]       320      160    fold, copy
    [8, 2, 128, 64]       340      165    fold, copy
    [8, 4, 128, 64]       650      380    fold, copy
    [16, 4, 128, 64]     1380      810    fold, copy
    [8, 128, 257]         105      105    ``x.max``
    ==================  =====  =========  ==========================

    Widths just past a multiple of 16 (33-35, 49-51) are the fold's worst
    case: there it was up to 40 µs slower than ``x.max`` on ``[8, 2, 128, w]``.
    """
    w = x.shape[-1]
    if 32 < w <= 64:
        # The two 32-wide windows overlap when w < 64 and cover the row.
        x, w = np.maximum(x[..., :32], x[..., w - 32 :]), 32
    if not 0 < w <= 32:
        return x.max(axis=-1, keepdims=True)
    cols = np.ascontiguousarray(x.reshape(-1, w).T)
    return cols.max(axis=0).reshape(*x.shape[:-1], 1)


def _softmax_rows(x: np.ndarray, out=None) -> np.ndarray:
    """Max-stabilized softmax over the last axis, into ``out`` (may be ``x``).

    The shift is :func:`_row_max`. Where it and ``x.max`` would return
    different zeros, only +-0 entries shift, and ``exp(+-0) == 1``.
    """
    out = np.subtract(x, _row_max(x), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Max-stabilized log-softmax ``(x - m) - log(sum(exp(x - m)))`` over the
    last axis.

    Teacher (numpy) and student (graph) log-probabilities both come from
    this one kernel, so identical logits give bitwise-identical rows and a
    bitwise-zero divergence (the self-distillation fixed point). The
    shift ``m`` is :func:`_row_max`; a zero ``m`` of either sign gives the
    same bytes, since a lone zero max shifts to +0 and two zeros make the
    log-sum at least log 2.
    """
    shifted = x - _row_max(x)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax_rows_grad(g: np.ndarray, p: np.ndarray, out=None) -> np.ndarray:
    """Softmax backward ``(g - sum(g * p)) * p``, into ``out`` (may be ``g``)."""
    out = np.subtract(g, (g * p).sum(axis=-1, keepdims=True), out=out)
    out *= p
    return out


def softmax(a: Tensor) -> Tensor:
    """Row softmax over the last axis, stabilized by max subtraction."""
    out = _softmax_rows(a.data)

    def fn(g):
        return (_softmax_rows_grad(g, out),)

    return _make(out, (a,), fn)


@functools.lru_cache(maxsize=8)
def _causal_mask(s: int, dtype) -> np.ndarray:
    """Additive ``[S, S]`` mask: -1e9 above the diagonal, 0 on and below."""
    return np.triu(np.full((s, s), -1e9, dtype=dtype), k=1)


def causal_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """``softmax(q kᵀ / sqrt(d) + causal mask) v`` per head, as one node.

    ``q`` and the output are ``[B, S, H, d]``; ``k`` and ``v`` ``[B, S, G, d]``,
    each key/value head serving ``H / G`` consecutive query heads. GEMMs read
    head-major views, a group's query heads as one ``[(H / G)·S, d]`` copy:
    no key/value copies, and their gradients sum over the group in one GEMM.
    Scale, the mask (cached per ``(S, dtype)``) and softmax run in place;
    dense FlashAttention backward (arXiv 2205.14135).
    """
    b, s, h, d = q.shape
    grp = k.shape[2]
    if k.shape != (b, s, grp, d) or v.shape != k.shape or h % grp:
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    scale = 1.0 / math.sqrt(d)
    kh, vh = k.data.transpose(0, 2, 1, 3), v.data.transpose(0, 2, 1, 3)  # head-major views
    qg = q.data.transpose(0, 2, 1, 3).reshape(b, grp, (h // grp) * s, d)
    p = np.matmul(qg, kh.swapaxes(-1, -2))
    p *= scale
    heads = p.reshape(b, grp, h // grp, s, s)  # a view: matmul output is contiguous
    heads += _causal_mask(s, p.dtype)
    _softmax_rows(p, out=p)
    out = np.matmul(p, vh).reshape(b, h, s, d)

    def fn(g):
        gg = g.transpose(0, 2, 1, 3).reshape(b, grp, (h // grp) * s, d)
        gv = np.matmul(p.swapaxes(-1, -2), gg)
        gp = np.matmul(gg, vh.swapaxes(-1, -2))
        gs = _softmax_rows_grad(gp, p, out=gp)
        gs *= scale
        gq = np.matmul(gs, kh).reshape(b, h, s, d)
        gk = np.matmul(gs.swapaxes(-1, -2), qg)
        return gq.transpose(0, 2, 1, 3), gk.transpose(0, 2, 1, 3), gv.transpose(0, 2, 1, 3)

    return _make(out.transpose(0, 2, 1, 3), (q, k, v), fn)


def log_softmax(a: Tensor) -> Tensor:
    """Row log-softmax over the last axis (:func:`_log_softmax_rows`)."""
    out = _log_softmax_rows(a.data)

    def fn(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _make(out, (a,), fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError("layer_norm parameter extents do not match input width")
    # np.var's steps, so bit-identical to it. The centred copy becomes xhat in
    # place, and the square buffer becomes the output.
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.square(xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + np.asarray(LN_EPS, dtype=x.data.dtype))
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def fn(g):
        lead = tuple(range(g.ndim - 1))
        gbeta = g.sum(axis=lead)
        buf = g * xhat
        ggamma = buf.sum(axis=lead)
        # gx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dxhat = g * gamma.data
        np.multiply(dxhat, xhat, out=buf)
        proj = buf.mean(axis=-1, keepdims=True)
        dxhat -= dxhat.mean(axis=-1, keepdims=True)
        dxhat -= np.multiply(xhat, proj, out=buf)
        dxhat *= inv
        return dxhat, ggamma, gbeta

    return _make(out, (x, gamma, beta), fn)


def _swap_halves(x: np.ndarray) -> np.ndarray:
    """A fresh copy of ``x`` with the two halves of its last axis exchanged."""
    half = x.shape[-1] // 2
    return np.concatenate((x[..., half:], x[..., :half]), axis=-1)


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary transform ``x·cos + swap(x)·sin``, swapping each head's halves,
    of a ``[B, S, heads·d]`` projection as :func:`linear` returns it, into
    ``[B, S, heads, d]``. ``cos``/``sin`` are one ``[S, 1, d]`` pair for every head,
    with the rotation's sign folded into sin's first half (:meth:`Model.rope_tables`).
    The backward is the map's transpose, ``g·cos + swap(g·sin)``, in x's shape.
    """
    shape, d = x.shape, cos.shape[-1]
    if len(shape) != 3 or cos.shape != (shape[1], 1, d) or sin.shape != cos.shape or shape[2] % d:
        raise ShapeError(f"rope of {shape} by tables {cos.shape} and {sin.shape}")
    xh = x.data.reshape(shape[:2] + (shape[2] // d, d))
    out = _swap_halves(xh)
    out *= sin
    out += xh * cos

    def fn(g):
        dx = _swap_halves(g * sin)
        dx += g * cos
        return (dx.reshape(shape),)

    return _make(out, (x,), fn)


def soft_cross_entropy(logits: Tensor, probs: np.ndarray) -> Tensor:
    """Per-row ``-sum(p * log_softmax(x))`` against constant target ``probs``.

    Backward uses the soft-target derivative ``softmax(x) - p``, which treats
    each target row as summing to one exactly; bitwise-equal distributions
    therefore produce bitwise-zero gradients (a fixed point for
    self-distillation), which a composed log-softmax graph cannot achieve.
    The forward is :func:`_log_softmax_rows`, the kernel the teacher side
    uses.
    """
    logp = _log_softmax_rows(logits.data)
    out = -(probs * logp).sum(axis=-1)

    def fn(g):
        return (g[..., None] * (np.exp(logp) - probs),)

    return _make(out, (logits,), fn)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` ``[B, T]`` at the
    first ``T <= S`` positions of ``logits`` ``[B, S, V]``; positions
    ``T..S-1`` get exactly zero gradient."""
    targets = np.asarray(targets)
    if logits.ndim != 3:
        raise ShapeError(f"cross_entropy needs [B, S, V] logits, got {logits.data.shape}")
    b, s, v = logits.data.shape
    if targets.ndim != 2 or targets.shape[0] != b or targets.shape[1] > s:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    if targets.size == 0:
        raise DataError("cross_entropy on an empty batch")
    if targets.min() < 0 or targets.max() >= v:
        raise DataError(f"token id out of range [0, {v})")
    scored = targets.shape[1]
    flat = logits.data[:, :scored].reshape(-1, v)
    t = targets.reshape(-1)
    logp = _log_softmax_rows(flat)
    n, dt = t.shape[0], logits.dtype
    out = np.asarray(-logp[np.arange(n), t].mean(), dtype=dt)

    def fn(g):
        sm = np.exp(logp)
        sm[np.arange(n), t] -= 1.0
        gl = np.zeros((b, s, v), dt)
        gl[:, :scored] = (g / n) * sm.reshape(b, scored, v)
        return (gl,)

    return _make(out, (logits,), fn)
