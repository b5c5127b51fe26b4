"""Structural trimming of a model to a target configuration.

Pruning is one decision, which units of the source survive, made in one
place: ``_prune`` picks one globally ranked set of embedding channels, then
for each kept source block the heads and MLP channels from that block's own
score rows (folding pruned heads into kept ones when asked), then gathers
every tensor of the target once. :func:`apply_candidate` is its one entry:
a target of the source's depth prunes width only, and ``layers_to_remove``
(or the report's depth scores) removes whole blocks. Kept units preserve
their original relative order, so pruning a model to its own configuration
is the bit-level identity.

Grouped-query layouts constrain head removal: a valid target needs a uniform
head count per query group, so heads are kept top-k *within* each surviving
group (groups ranked by summed member scores when the group count shrinks;
with one head per group this reduces to a plain per-layer top-k).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import PruneError
from .importance import ImportanceReport
from .model import Model, ModelConfig, _layer_param_shapes

_ATTN = ("attn.wq", "attn.wk", "attn.wv", "attn.wo")


def resolve_query_groups(source_groups: int, target_heads: int) -> int:
    """Largest group count <= source that divides the remaining heads."""
    g = min(source_groups, target_heads)
    while target_heads % g:
        g -= 1
    return g


def merge_pairs(total: int, kept: int) -> list[tuple[int, int]]:
    """(kept_rank, pruned_rank) merge pairing, 0-based positions in an
    importance-descending ordering.

    Rank i (1-based, i in [2K-L+1, K]) absorbs the residual of rank 2K-i+1.
    More than half the heads pruned leaves low-importance kept heads without
    an in-range partner, which is an error rather than a silent skip.
    """
    if kept >= total:
        raise PruneError(f"merge requires kept < total heads ({kept} >= {total})")
    if 2 * kept < total:
        raise PruneError(
            f"pairing index out of range: cannot merge {total} heads into {kept} "
            f"(more than half pruned)"
        )
    return [(i - 1, 2 * kept - i) for i in range(2 * kept - total + 1, kept + 1)]


def _need(axis: str, arr, expected_shape) -> np.ndarray:
    if arr is not None and np.size(arr) == 0 == np.prod(expected_shape):
        arr = np.reshape(arr, expected_shape)  # JSON keeps no extent of an empty table
    if arr is None or tuple(np.shape(arr)) != expected_shape:
        raise PruneError(f"rankings do not cover the {axis}")
    return np.asarray(arr)


def _top_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, returned in original order.
    Ties break toward the lower index."""
    ranked = np.argsort(-np.asarray(scores), kind="stable")[:k]
    return np.sort(ranked)


def _select_heads(scores: np.ndarray, src_groups: int, tgt_groups: int, tgt_heads: int):
    """Kept head indices (original order) honoring the group structure."""
    src_heads = scores.shape[0]
    per_group_src = src_heads // src_groups
    per_group_tgt = tgt_heads // tgt_groups
    if per_group_tgt > per_group_src:
        raise PruneError(
            f"target needs {per_group_tgt} heads per group but source has "
            f"{per_group_src}"
        )
    group_scores = scores.reshape(src_groups, per_group_src).sum(axis=1)
    kept_groups = _top_indices(group_scores, tgt_groups)
    kept_heads = []
    for g in kept_groups:
        base = g * per_group_src
        member = scores[base : base + per_group_src]
        kept_heads.extend(base + i for i in _top_indices(member, per_group_tgt))
    return np.array(kept_heads), kept_groups


def _head_block_rows(indices: np.ndarray, d_head: int) -> np.ndarray:
    return (indices[:, None] * d_head + np.arange(d_head)[None, :]).reshape(-1)


def _merge_heads(weights: dict, scores: np.ndarray, kept: np.ndarray, d_head: int) -> dict:
    """Fold pruned-head residuals into kept heads, W_k <- 2 W_k - W_p, on
    copies of ``weights`` in original head positions.

    Ranks order the kept heads first, then the pruned ones, each part by
    descending score; :func:`merge_pairs` pairs a kept rank with a pruned
    one, and a pruned head is never itself written.
    """
    by_score = np.argsort(-scores, kind="stable")
    is_kept = np.isin(by_score, kept)
    order = np.concatenate([by_score[is_kept], by_score[~is_kept]])
    merged = {name: w.copy() for name, w in weights.items()}
    for kept_rank, pruned_rank in merge_pairs(len(scores), len(kept)):
        k, p = order[kept_rank] * d_head, order[pruned_rank] * d_head
        for w in merged.values():
            w[k : k + d_head] = 2.0 * w[k : k + d_head] - w[p : p + d_head]
    return merged


def _prune(
    model: Model, target: ModelConfig, report: ImportanceReport | None,
    kept_layers: list[int], merge_heads: bool,
) -> Model:
    """The source blocks ``kept_layers``, in order, trimmed to ``target``.
    An axis that keeps its size never consults the report. A merge touches
    the query projection only, or with one head per group all four."""
    src = model.config
    for name in ("d_head", "vocab_size", "tie_embeddings", "max_seq_len"):
        if getattr(target, name) != getattr(src, name):
            raise PruneError(f"width pruning cannot change {name}")
    for name in ("d_model", "num_heads", "num_query_groups", "d_hidden"):
        if getattr(target, name) > getattr(src, name):
            raise PruneError(
                f"target {name}={getattr(target, name)} exceeds source "
                f"{getattr(src, name)}"
            )
    L, dh = src.num_layers, src.d_head
    kept_emb = np.arange(src.d_model)
    if target.d_model < src.d_model:
        emb_scores = _need("embedding axis", report and report.emb_scores, (src.d_model,))
        kept_emb = _top_indices(emb_scores, target.d_model)
    cut_heads = (
        target.num_heads < src.num_heads or target.num_query_groups < src.num_query_groups
    )
    if cut_heads:
        head_scores = _need("head axis", report and report.head_scores, (L, src.num_heads))
    cut_neurons = target.d_hidden < src.d_hidden
    if cut_neurons:
        neuron_scores = _need("neuron axis", report and report.neuron_scores, (L, src.d_hidden))
    merged_names = _ATTN if src.num_query_groups == src.num_heads else _ATTN[:1]

    blocks = []  # per kept block: (source prefix, merged weights, row selections)
    for old_i in kept_layers:
        prefix = f"layers.{old_i}."
        heads, groups = np.arange(src.num_heads), np.arange(src.num_query_groups)
        merged = {}
        if cut_heads:
            scores = head_scores[old_i]
            heads, groups = _select_heads(
                scores, src.num_query_groups, target.num_query_groups, target.num_heads
            )
            if merge_heads and len(heads) < src.num_heads:
                weights = {n: model.params[prefix + n].data for n in merged_names}
                merged = _merge_heads(weights, scores, heads, dh)
        neurons = np.arange(src.d_hidden)
        if cut_neurons:
            neurons = _top_indices(neuron_scores[old_i], target.d_hidden)
        head_rows, group_rows = _head_block_rows(heads, dh), _head_block_rows(groups, dh)
        rows = {
            "attn.wq": head_rows, "attn.wk": group_rows, "attn.wv": group_rows,
            "attn.wo": head_rows, "mlp.w1": neurons, "mlp.w2": neurons,
        }
        blocks.append((prefix, merged, rows))

    params: dict[str, Tensor] = {}
    for name, shape in _layer_param_shapes(target):
        if name.startswith("layers."):
            _, new_i, local = name.split(".", 2)
            prefix, merged, block_rows = blocks[int(new_i)]
            arr = merged[local] if local in merged else model.params[prefix + local].data
            rows = block_rows.get(local)
        else:
            arr, rows = model.params[name].data, slice(None)
        arr = arr[kept_emb] if arr.ndim == 1 else arr[rows][:, kept_emb]
        if arr.shape != shape:
            raise PruneError(f"pruned {name} has shape {arr.shape}, target needs {shape}")
        params[name] = Tensor(np.ascontiguousarray(arr), requires_grad=True)
    return Model(target, params)


def _kept_layers(num_layers: int, layer_indices) -> list[int]:
    removed = set(int(i) for i in layer_indices)
    for i in sorted(removed):
        if i < 0 or i >= num_layers:
            raise PruneError(f"layer index {i} out of range for {num_layers} layers")
    if removed and len(removed) == num_layers:
        raise PruneError("cannot remove every layer")
    return [i for i in range(num_layers) if i not in removed]


def apply_candidate(
    model: Model,
    candidate: ModelConfig,
    report: ImportanceReport | None,
    layers_to_remove: list[int] | None = None,
    merge_heads: bool = False,
    depth_metric: str = "ppl",
) -> Model:
    """Prune down to ``candidate`` exactly: remove ``layers_to_remove``, or
    the least important blocks under ``depth_metric``, and trim the width of
    the blocks that stay."""
    n = model.config.num_layers
    n_remove = n - candidate.num_layers
    if n_remove < 0:
        raise PruneError("candidate has more layers than the source model")
    removed: list[int] = []
    if layers_to_remove is not None:
        removed = sorted(set(layers_to_remove))
        if len(removed) != n_remove:
            raise PruneError(
                f"layer list removes {len(removed)} layers but candidate "
                f"needs {n_remove} removed"
            )
    elif n_remove > 0:
        if report is None:
            raise PruneError("depth pruning needs rankings or an explicit list")
        scores = _need(f"depth axis ({depth_metric})", report.layer_scores(depth_metric), (n,))
        removed = sorted(np.argsort(scores, kind="stable")[:n_remove].tolist())
    return _prune(model, candidate, report, _kept_layers(n, removed), merge_heads)
