"""Decoder-only transformer with grouped-query attention.

Pre-norm residual blocks, squared-ReLU MLP, rotary positions, untied
embeddings by default. Head width ``d_head`` is a free hyperparameter, so
the attention inner width is ``num_heads * d_head`` and never follows
``d_model``.

Importance scoring and distillation read intermediate activations through
one hook: ``forward(..., tap=fn)`` calls ``fn(site, layer, value)`` at each
site below and keeps every non-None result under ``(site, layer)``. A tap
adds no gradient state of its own. For ``L`` layers:

- ``x`` (layers 0..L): block inputs; ``("x", 0)`` is the embedding output
  and ``("x", L)`` the last block's output.
- ``ln1`` (layers 0..L): first norm outputs; ``("ln1", L)`` is the final
  norm, so block ``i``'s normalized output is always ``("ln1", i + 1)``.
- ``ln2``, ``qkv``, ``attn``, ``mlp_pre`` (layers 0..L-1): the MLP input
  norm, rotary ``(q, k, v)``, per-head attention output and MLP
  pre-activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError

ROPE_BASE = 10000.0
INIT_STD = 0.02
MASK_FILL = -1e9


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
        if self.num_layers < 0:
            raise ConfigError("num_layers must be non-negative")
        for f in fields(self):
            if f.type == "int" and f.name != "num_layers" and getattr(self, f.name) <= 0:
                raise ConfigError(f"{f.name} must be positive")
        if self.num_heads % self.num_query_groups != 0:
            raise ConfigError(
                f"num_heads={self.num_heads} not divisible by "
                f"num_query_groups={self.num_query_groups}"
            )

    @property
    def heads_per_group(self) -> int:
        return self.num_heads // self.num_query_groups

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


class ParamCounts(tuple):
    """(total, non_embedding) integer parameter counts."""

    def __new__(cls, total, non_embedding):
        return super().__new__(cls, (total, non_embedding))

    @property
    def total(self):
        return self[0]

    @property
    def non_embedding(self):
        return self[1]


def count_params(config: ModelConfig) -> ParamCounts:
    """Exact parameter counts from the config alone.

    Embedding tables count once when tied, twice otherwise; all LayerNorm
    parameters land in the non-embedding bucket.
    """
    d, dh = config.d_model, config.d_head
    attn = (config.num_heads * dh * d) * 2  # query in, output back
    attn += (config.num_query_groups * dh * d) * 2  # shared key/value
    mlp = 2 * config.d_hidden * d
    ln = 4 * d  # two norms per layer
    per_layer = attn + mlp + ln
    non_emb = config.num_layers * per_layer + 2 * d  # final norm
    emb = config.vocab_size * d
    total = non_emb + (emb if config.tie_embeddings else 2 * emb)
    return ParamCounts(total, non_emb)


def count_flops_per_step(config: ModelConfig, batch_size: int, seq_len: int) -> float:
    """Training-step FLOP estimate via the standard 6 * params * tokens rule."""
    return 6.0 * count_params(config).total * batch_size * seq_len


class Model:
    """Weight container: an ordered name -> Tensor mapping plus its config."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self._rope_cache: dict = {}
        self._mask_cache: dict = {}

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

    def trainable(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if v.requires_grad}

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def copy(self) -> "Model":
        params = {
            k: Tensor(v.data.copy(), requires_grad=v.requires_grad)
            for k, v in self.params.items()
        }
        return Model(self.config, params)

    def rope_tables(self, seq_len: int):
        key = seq_len
        if key not in self._rope_cache:
            dh = self.config.d_head
            half = dh // 2
            inv_freq = ROPE_BASE ** (-np.arange(half) * 2.0 / dh)
            angles = np.outer(np.arange(seq_len), inv_freq)
            cos = np.concatenate((np.cos(angles), np.cos(angles)), axis=-1)
            sin = np.concatenate((np.sin(angles), np.sin(angles)), axis=-1)
            self._rope_cache[key] = (cos.astype(self.dtype), sin.astype(self.dtype))
        return self._rope_cache[key]

    def causal_mask(self, seq_len: int) -> Tensor:
        if seq_len not in self._mask_cache:
            m = np.triu(np.full((seq_len, seq_len), MASK_FILL, dtype=self.dtype), k=1)
            self._mask_cache[seq_len] = Tensor._wrap(m[None, None, :, :])
        return self._mask_cache[seq_len]


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
    if config.d_head % 2 != 0:
        raise ConfigError("d_head must be even for rotary positions")
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
    cfg = model.config
    b, s, _ = x.shape
    h, g, dh = cfg.num_heads, cfg.num_query_groups, cfg.d_head
    cos, sin = model.rope_tables(s)

    def project(w: Tensor, n_heads: int) -> Tensor:
        y = ad.matmul(x, ad.transpose(w, (1, 0)))
        y = ad.reshape(y, (b, s, n_heads, dh))
        return ad.transpose(y, (0, 2, 1, 3))  # head-major

    q = ad.rope(project(model.layer_param(layer, "attn.wq"), h), cos, sin)
    k = ad.rope(project(model.layer_param(layer, "attn.wk"), g), cos, sin)
    v = project(model.layer_param(layer, "attn.wv"), g)
    emit("qkv", layer, (q, k, v))
    if g != h:
        k = ad.repeat(k, h // g, axis=1)
        v = ad.repeat(v, h // g, axis=1)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    scores = ad.add(scores, model.causal_mask(s))
    attn = ad.matmul(ad.softmax(scores), v)
    attn = ad.transpose(attn, (0, 2, 1, 3))  # back to [B,S,H,Dh]
    emit("attn", layer, attn)
    concat = ad.reshape(attn, (b, s, h * dh))
    return ad.matmul(concat, model.layer_param(layer, "attn.wo"))


def forward(
    model: Model,
    tokens: np.ndarray,
    skip_layers: frozenset | set = frozenset(),
    tap=None,
):
    """Causal forward pass.

    Returns ``(logits, acts)``. ``skip_layers`` omits whole blocks, which by
    the pre-norm residual topology equals evaluating the depth-pruned model.

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
    qkv       0 .. L-1   ``(q, k, v)`` head-major ``[B,heads,S,d_head]``
                         after rotary positions, before GQA repetition
    attn      0 .. L-1   per-head attention output ``[B,S,H,d_head]``
                         before the output projection
    mlp_pre   0 .. L-1   MLP pre-activation ``[B,S,d_hidden]``
    ========  =========  ==================================================

    Skipped blocks still report their ``x`` site and nothing else.
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

    x = ad.embedding(model.params["embedding"], tokens)
    for i in range(cfg.num_layers):
        emit("x", i, x)
        if i in skip_layers:
            continue
        h1 = ad.layer_norm(
            x, model.layer_param(i, "ln1.gamma"), model.layer_param(i, "ln1.beta")
        )
        emit("ln1", i, h1)
        x = ad.add(x, _attention(model, h1, i, emit))
        h2 = ad.layer_norm(
            x, model.layer_param(i, "ln2.gamma"), model.layer_param(i, "ln2.beta")
        )
        emit("ln2", i, h2)
        pre = ad.matmul(h2, ad.transpose(model.layer_param(i, "mlp.w1"), (1, 0)))
        emit("mlp_pre", i, pre)
        x = ad.add(x, ad.matmul(ad.squared_relu(pre), model.layer_param(i, "mlp.w2")))
    emit("x", cfg.num_layers, x)
    x = ad.layer_norm(x, model.params["final_ln.gamma"], model.params["final_ln.beta"])
    emit("ln1", cfg.num_layers, x)
    logits = ad.matmul(x, ad.transpose(model.output_head(), (1, 0)))
    return logits, acts


def lm_loss(
    model: Model, tokens: np.ndarray, skip_layers: frozenset | set = frozenset()
) -> Tensor:
    """Next-token cross-entropy: positions 0..S-2 predict tokens 1..S-1."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise DataError("lm_loss needs [batch, seq>=2] token arrays")
    logits, _ = forward(model, tokens, skip_layers=skip_layers)
    return ad.cross_entropy(slice_positions(logits, 0, logits.shape[1] - 1), tokens[:, 1:])


def slice_positions(logits: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the sequence axis, grad-aware."""
    b, s, v = logits.shape
    flat = ad.reshape(logits, (b * s, v))
    rows = (np.arange(b)[:, None] * s + np.arange(start, stop)[None, :]).reshape(-1)
    return ad.reshape(ad.embedding(flat, rows), (b, stop - start, v))


def perplexity(
    model: Model, data, skip_layers: frozenset | set = frozenset()
) -> float:
    """exp(mean next-token NLL) over one token array or an iterable of them."""
    batches = [data] if isinstance(data, np.ndarray) else list(data)
    if not batches:
        raise DataError("perplexity of an empty dataset")
    total_nll = 0.0
    total_tokens = 0
    for batch in batches:
        batch = np.asarray(batch)
        n = batch.shape[0] * (batch.shape[1] - 1)
        total_nll += lm_loss(model, batch, skip_layers=skip_layers).item() * n
        total_tokens += n
    return math.exp(total_nll / total_tokens)
