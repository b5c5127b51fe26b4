"""Decoder-only transformer with grouped-query attention.

Pre-norm residual blocks, squared-ReLU MLP, rotary positions, untied
embeddings by default. Head width ``d_head`` is a free hyperparameter, so
the attention inner width is ``num_heads * d_head`` and never follows
``d_model``.

Importance scoring and distillation read intermediate activations through
one hook, ``forward(..., tap=fn)``, and a pass resumes at block ``i`` with
``forward(..., start=(i, x))``; :func:`forward` lists the sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError

ROPE_BASE = 10000.0
INIT_STD = 0.02


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``num_heads`` must be a multiple of ``num_query_groups``; each group of
    query heads shares one key/value head.
    """

    num_layers: int
    d_model: int
    num_heads: int
    num_query_groups: int
    d_head: int
    d_hidden: int
    vocab_size: int
    max_seq_len: int = 2048
    tie_embeddings: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type != "int":
                continue
            value, low = getattr(self, f.name), 0 if f.name == "num_layers" else 1
            if not _is_int(value, low):
                raise ConfigError(f"{f.name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.tie_embeddings, bool):
            raise ConfigError(f"tie_embeddings must be a bool, got {self.tie_embeddings!r}")
        if self.d_head % 2 != 0:
            raise ConfigError(f"d_head must be even for rotary positions, got {self.d_head}")
        if self.num_heads % self.num_query_groups != 0:
            raise ConfigError(
                f"num_heads={self.num_heads} not divisible by "
                f"num_query_groups={self.num_query_groups}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        try:
            return cls(**d)
        except TypeError as e:  # unknown, missing or mistyped keys
            raise ConfigError(f"bad model config: {e}") from e

    def with_(self, **kw) -> "ModelConfig":
        return replace(self, **kw)


class ParamCounts(NamedTuple):
    """Integer parameter counts."""

    total: int
    non_embedding: int


def count_params(config: ModelConfig) -> ParamCounts:
    """Exact parameter counts from the config alone: the sizes of
    :func:`_layer_param_shapes`. The ``embedding`` and (untied) ``lm_head``
    tables are the embedding parameters; everything else, LayerNorms
    included, is non-embedding."""
    sizes = {name: math.prod(shape) for name, shape in _layer_param_shapes(config)}
    total = sum(sizes.values())
    return ParamCounts(total, total - sizes["embedding"] - sizes.get("lm_head", 0))


class Model:
    """Weight container: an ordered name -> Tensor mapping plus its config."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self._rope_cache: dict = {}

    @property
    def dtype(self):
        return self.params["embedding"].dtype

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def layer_param(self, layer: int, name: str) -> Tensor:
        return self.params[f"layers.{layer}.{name}"]

    def output_head(self) -> Tensor:
        if self.config.tie_embeddings:
            return self.params["embedding"]
        return self.params["lm_head"]

    def copy(self) -> "Model":
        params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in self.params.items()}
        return Model(self.config, params)

    def rope_tables(self, seq_len: int):
        """Rotary ``(cos, sin)`` tables for :func:`autodiff.rope`, ``[seq_len,
        1, d_head]`` for every head; sin's first half is negated."""
        if seq_len not in self._rope_cache:
            dh = self.config.d_head
            inv_freq = ROPE_BASE ** (-np.arange(dh // 2) * 2.0 / dh)
            angles = np.outer(np.arange(seq_len), inv_freq)[:, None, :]
            cos, sin = np.cos(angles), np.sin(angles)
            self._rope_cache[seq_len] = tuple(
                np.concatenate(t, axis=-1).astype(self.dtype) for t in ((cos, cos), (-sin, sin))
            )
        return self._rope_cache[seq_len]


def _layer_param_shapes(config: ModelConfig) -> list[tuple[str, tuple]]:
    d, dh = config.d_model, config.d_head
    h, g = config.num_heads, config.num_query_groups
    shapes: list[tuple[str, tuple]] = [("embedding", (config.vocab_size, d))]
    for i in range(config.num_layers):
        p = f"layers.{i}."
        shapes += [
            (p + "ln1.gamma", (d,)),
            (p + "ln1.beta", (d,)),
            (p + "attn.wq", (h * dh, d)),
            (p + "attn.wk", (g * dh, d)),
            (p + "attn.wv", (g * dh, d)),
            (p + "attn.wo", (h * dh, d)),
            (p + "ln2.gamma", (d,)),
            (p + "ln2.beta", (d,)),
            (p + "mlp.w1", (config.d_hidden, d)),
            (p + "mlp.w2", (config.d_hidden, d)),
        ]
    shapes += [("final_ln.gamma", (d,)), ("final_ln.beta", (d,))]
    if not config.tie_embeddings:
        shapes.append(("lm_head", (config.vocab_size, d)))
    return shapes


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Initialize a model deterministically from ``seed``.

    Projections draw from N(0, 0.02^2); norm scales start at one, shifts at
    zero. ``dtype=np.float64`` is the headroom mode for gradient checks.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in _layer_param_shapes(config):
        if name.endswith("gamma"):
            arr = np.ones(shape, dtype=dtype)
        elif name.endswith("beta"):
            arr = np.zeros(shape, dtype=dtype)
        else:
            arr = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        params[name] = Tensor(arr, requires_grad=True)
    return Model(config, params)


def _attention(model: Model, x: Tensor, layer: int, emit):
    b, s, _ = x.shape
    h, g, dh = model.config.num_heads, model.config.num_query_groups, model.config.d_head
    tables = model.rope_tables(s)
    q = ad.rope(ad.linear(x, model.layer_param(layer, "attn.wq")), *tables)
    k = ad.rope(ad.linear(x, model.layer_param(layer, "attn.wk")), *tables)
    v = ad.reshape(ad.linear(x, model.layer_param(layer, "attn.wv")), (b, s, g, dh))
    emit("qkv", layer, (q, k, v))
    attn = ad.causal_attention(q, k, v)
    emit("attn", layer, attn)
    return ad.matmul(ad.reshape(attn, (b, s, h * dh)), model.layer_param(layer, "attn.wo"))


def forward(model: Model, tokens: np.ndarray, tap=None, start=None):
    """Causal forward pass.

    Returns ``(logits, acts)``. ``start=(i, x)`` resumes the pass at block
    ``i`` on the block input ``x`` (``i == L`` runs only the final norm and
    the head). Resuming at block ``i + 1`` on block ``i``'s input omits block
    ``i``, which by the pre-norm residual topology equals evaluating the
    depth-pruned model.

    At every activation site the pass calls ``tap(site, layer, value)`` and
    stores any non-None result in ``acts[(site, layer)]``; without a tap
    ``acts`` is ``{}``. Values are live tensors (differentiable under an
    active tape). The sites, for ``L`` layers:

    ========  =========  ==================================================
    site      layers     value
    ========  =========  ==================================================
    x         0 .. L     block input ``[B,S,d]``; ``("x", 0)`` is the
                         embedding output, ``("x", L)`` the last block's
                         output
    ln1       0 .. L     first norm output ``[B,S,d]``; ``("ln1", L)`` is
                         the final norm, so block ``i``'s normalized output
                         is always ``("ln1", i + 1)``
    ln2       0 .. L-1   second norm output (the MLP input) ``[B,S,d]``
    qkv       0 .. L-1   ``(q, k, v)`` ``[B,S,heads,d_head]`` after rotary
                         positions; ``k`` and ``v`` have one head per query
                         group
    attn      0 .. L-1   per-head attention output ``[B,S,H,d_head]``
                         before the output projection
    mlp_pre   0 .. L-1   MLP pre-activation ``[B,S,d_hidden]``
    ========  =========  ==================================================

    A resumed pass reports sites from block ``i`` on; ``tokens`` then only
    fixes the shape checks.
    """
    cfg = model.config
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise DataError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    b, s = tokens.shape
    if s > cfg.max_seq_len:
        raise DataError(f"sequence length {s} exceeds max_seq_len {cfg.max_seq_len}")
    acts: dict = {}

    def emit(site: str, layer: int, value) -> None:
        if tap is not None:
            kept = tap(site, layer, value)
            if kept is not None:
                acts[(site, layer)] = kept

    first, x = start or (0, ad.embedding(model.params["embedding"], tokens))
    for i in range(first, cfg.num_layers):
        emit("x", i, x)
        h1 = ad.layer_norm(
            x, model.layer_param(i, "ln1.gamma"), model.layer_param(i, "ln1.beta")
        )
        emit("ln1", i, h1)
        x = ad.add(x, _attention(model, h1, i, emit))
        h2 = ad.layer_norm(
            x, model.layer_param(i, "ln2.gamma"), model.layer_param(i, "ln2.beta")
        )
        emit("ln2", i, h2)
        pre = ad.linear(h2, model.layer_param(i, "mlp.w1"))
        emit("mlp_pre", i, pre)
        x = ad.add(x, ad.squared_relu_matmul(pre, model.layer_param(i, "mlp.w2")))
    emit("x", cfg.num_layers, x)
    x = ad.layer_norm(x, model.params["final_ln.gamma"], model.params["final_ln.beta"])
    emit("ln1", cfg.num_layers, x)
    logits = ad.linear(x, model.output_head())
    return logits, acts


def lm_loss(model: Model, tokens: np.ndarray) -> Tensor:
    """Next-token cross-entropy: positions 0..S-2 predict tokens 1..S-1."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise DataError("lm_loss needs [batch, seq>=2] token arrays")
    logits, _ = forward(model, tokens)
    return ad.cross_entropy(logits, tokens[:, 1:])
