"""Structural trimming of a model to a target configuration.

Width pruning keeps the top-ranked heads and MLP channels within each layer
and one globally-ranked set of embedding channels applied uniformly to every
tensor that faces the residual stream. Depth pruning removes whole blocks.
Kept units always preserve their original relative order, so pruning a model
to its own configuration is the bit-level identity.

Grouped-query layouts constrain head removal: a valid target needs a uniform
head count per query group, so heads are kept top-k *within* each surviving
group (groups ranked by summed member scores when the group count shrinks;
with one head per group this reduces to a plain per-layer top-k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import PruneError
from .importance import ImportanceReport
from .model import Model, ModelConfig, _layer_param_shapes


@dataclass
class PruneSpec:
    target: ModelConfig
    rankings: ImportanceReport | None = None
    merge_residual_heads: bool = False


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


def merge_residual_heads(
    layer_weights: dict[str, np.ndarray], total: int, kept: int,
    d_head: int, gqa: bool = True,
) -> dict[str, np.ndarray]:
    """Fold pruned-head residuals into kept heads: W_i <- 2 W_i - W_partner.

    ``layer_weights`` holds one attention layer's matrices with head slices
    already sorted by descending importance. Under grouped-query attention
    only the query projection is touched; in the one-head-per-group case the
    key/value slices and the matching output-projection rows merge too.
    """
    out = {k: v.copy() for k, v in layer_weights.items()}
    names = ("attn.wq",) if gqa else ("attn.wq", "attn.wk", "attn.wv", "attn.wo")
    for kept_rank, pruned_rank in merge_pairs(total, kept):
        ki, pi = kept_rank * d_head, pruned_rank * d_head
        for name in names:
            w = out[name]
            w[ki : ki + d_head] = 2.0 * w[ki : ki + d_head] - w[pi : pi + d_head]
    return out


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


def _rank_order(scores: np.ndarray, kept: np.ndarray) -> list[int]:
    """Heads reordered kept-first: kept by descending score, then pruned by
    descending score. Equals the plain descending sort when the kept set is
    the global top-k."""
    kept_set = set(int(i) for i in kept)
    by_score = list(np.argsort(-scores, kind="stable"))
    return [h for h in by_score if h in kept_set] + [
        h for h in by_score if h not in kept_set
    ]


def prune_width(model: Model, spec: PruneSpec) -> Model:
    src, tgt = model.config, spec.target
    if tgt.num_layers != src.num_layers:
        raise PruneError("prune_width cannot change depth; use prune_depth first")
    for name in ("d_head", "vocab_size", "tie_embeddings", "max_seq_len"):
        if getattr(tgt, name) != getattr(src, name):
            raise PruneError(f"width pruning cannot change {name}")
    for name in ("d_model", "num_heads", "num_query_groups", "d_hidden"):
        if getattr(tgt, name) > getattr(src, name):
            raise PruneError(
                f"target {name}={getattr(tgt, name)} exceeds source "
                f"{getattr(src, name)}"
            )
    report = spec.rankings

    def need(axis_name: str, arr, expected_shape) -> np.ndarray:
        if arr is None or tuple(np.shape(arr)) != expected_shape:
            raise PruneError(f"rankings do not cover the {axis_name} axis")
        return np.asarray(arr)

    # Per-axis kept index sets; identity (all indices) when the axis keeps
    # its size so prune-to-self never consults the report.
    if tgt.d_model < src.d_model:
        emb_scores = need("embedding", report and report.emb_scores, (src.d_model,))
        kept_emb = _top_indices(emb_scores, tgt.d_model)
    else:
        kept_emb = np.arange(src.d_model)

    kept_heads, kept_groups, head_orders = [], [], []
    for layer in range(src.num_layers):
        if tgt.num_heads < src.num_heads or tgt.num_query_groups < src.num_query_groups:
            scores = need(
                "head", report and report.head_scores, (src.num_layers, src.num_heads)
            )[layer]
            heads, groups = _select_heads(
                scores, src.num_query_groups, tgt.num_query_groups, tgt.num_heads
            )
            head_orders.append(_rank_order(scores, heads))
        else:
            heads, groups = np.arange(src.num_heads), np.arange(src.num_query_groups)
            head_orders.append(list(range(src.num_heads)))
        kept_heads.append(heads)
        kept_groups.append(groups)

    kept_neurons = []
    for layer in range(src.num_layers):
        if tgt.d_hidden < src.d_hidden:
            scores = need(
                "neuron", report and report.neuron_scores, (src.num_layers, src.d_hidden)
            )[layer]
            kept_neurons.append(_top_indices(scores, tgt.d_hidden))
        else:
            kept_neurons.append(np.arange(src.d_hidden))

    dh = src.d_head
    mha = src.num_query_groups == src.num_heads
    params: dict[str, Tensor] = {}

    def put(name: str, arr: np.ndarray) -> None:
        params[name] = Tensor(np.ascontiguousarray(arr), requires_grad=True)

    put("embedding", model.params["embedding"].data[:, kept_emb])
    for i in range(src.num_layers):
        p = f"layers.{i}."
        weights = {
            n: model.params[p + n].data
            for n in ("attn.wq", "attn.wk", "attn.wv", "attn.wo")
        }
        if spec.merge_residual_heads and len(kept_heads[i]) < src.num_heads:
            order = np.array(head_orders[i])
            rows = _head_block_rows(order, dh)
            names = ("attn.wq", "attn.wk", "attn.wv", "attn.wo") if mha else ("attn.wq",)
            merged = merge_residual_heads(
                {n: weights[n][rows] for n in names},
                src.num_heads,
                len(kept_heads[i]),
                dh,
                gqa=not mha,
            )
            # Scatter merged rank-ordered slices back to original positions.
            for n, w in merged.items():
                restored = weights[n].copy()
                restored[rows] = w
                weights[n] = restored
        head_rows = _head_block_rows(kept_heads[i], dh)
        group_rows = _head_block_rows(kept_groups[i], dh)
        put(p + "ln1.gamma", model.params[p + "ln1.gamma"].data[kept_emb])
        put(p + "ln1.beta", model.params[p + "ln1.beta"].data[kept_emb])
        put(p + "attn.wq", weights["attn.wq"][head_rows][:, kept_emb])
        put(p + "attn.wk", weights["attn.wk"][group_rows][:, kept_emb])
        put(p + "attn.wv", weights["attn.wv"][group_rows][:, kept_emb])
        put(p + "attn.wo", weights["attn.wo"][head_rows][:, kept_emb])
        put(p + "ln2.gamma", model.params[p + "ln2.gamma"].data[kept_emb])
        put(p + "ln2.beta", model.params[p + "ln2.beta"].data[kept_emb])
        put(p + "mlp.w1", model.params[p + "mlp.w1"].data[kept_neurons[i]][:, kept_emb])
        put(p + "mlp.w2", model.params[p + "mlp.w2"].data[kept_neurons[i]][:, kept_emb])
    put("final_ln.gamma", model.params["final_ln.gamma"].data[kept_emb])
    put("final_ln.beta", model.params["final_ln.beta"].data[kept_emb])
    if not src.tie_embeddings:
        put("lm_head", model.params["lm_head"].data[:, kept_emb])
    return _validated(Model(tgt, params))


def prune_depth(model: Model, layer_indices) -> Model:
    """Remove whole blocks; the residual stream rewires directly."""
    indices = sorted(set(int(i) for i in layer_indices))
    n = model.config.num_layers
    for i in indices:
        if i < 0 or i >= n:
            raise PruneError(f"layer index {i} out of range for {n} layers")
    if len(indices) >= n:
        raise PruneError("cannot remove every layer")
    keep = [i for i in range(n) if i not in set(indices)]
    cfg = model.config.with_(num_layers=len(keep))
    params: dict[str, Tensor] = {}
    for name, tensor in model.params.items():
        if not name.startswith("layers."):
            params[name] = Tensor(tensor.data.copy(), requires_grad=True)
    ordered: dict[str, Tensor] = {"embedding": params.pop("embedding")}
    for new_i, old_i in enumerate(keep):
        for name, tensor in model.params.items():
            prefix = f"layers.{old_i}."
            if name.startswith(prefix):
                ordered[f"layers.{new_i}.{name[len(prefix):]}"] = Tensor(
                    tensor.data.copy(), requires_grad=True
                )
    ordered.update(params)
    return _validated(Model(cfg, ordered))


def least_important_layers(
    report: ImportanceReport, count: int, metric: str = "ppl"
) -> list[int]:
    scores = report.layer_scores_ppl if metric == "ppl" else report.layer_scores_bi
    if scores is None:
        raise PruneError(f"rankings do not cover the depth axis ({metric})")
    return sorted(np.argsort(np.asarray(scores), kind="stable")[:count].tolist())


def apply_candidate(
    model: Model,
    candidate: ModelConfig,
    report: ImportanceReport | None,
    layers_to_remove: list[int] | None = None,
    merge_heads: bool = False,
    depth_metric: str = "ppl",
) -> Model:
    """Depth-prune then width-prune down to ``candidate`` exactly."""
    src = model.config
    n_remove = src.num_layers - candidate.num_layers
    if n_remove < 0:
        raise PruneError("candidate has more layers than the source model")
    pruned = model
    removed: list[int] = []
    if n_remove > 0:
        if layers_to_remove is not None:
            removed = sorted(set(layers_to_remove))
            if len(removed) != n_remove:
                raise PruneError(
                    f"layer list removes {len(removed)} layers but candidate "
                    f"needs {n_remove} removed"
                )
        else:
            if report is None:
                raise PruneError("depth pruning needs rankings or an explicit list")
            removed = least_important_layers(report, n_remove, depth_metric)
        pruned = prune_depth(pruned, removed)
    width_report = report
    if removed and report is not None:
        keep = [i for i in range(src.num_layers) if i not in set(removed)]
        width_report = ImportanceReport(
            head_scores=report.head_scores[keep],
            neuron_scores=report.neuron_scores[keep],
            emb_scores=report.emb_scores,
            layer_scores_ppl=None,
            layer_scores_bi=None,
            block_bi_scores={},
            agg=report.agg,
            calibration_checksum=report.calibration_checksum,
        )
    return prune_width(
        pruned,
        PruneSpec(
            target=candidate, rankings=width_report, merge_residual_heads=merge_heads
        ),
    )


def _validated(model: Model) -> Model:
    expected = dict(_layer_param_shapes(model.config))
    actual = {k: tuple(v.data.shape) for k, v in model.params.items()}
    if actual != expected:
        mismatched = {
            k for k in set(expected) | set(actual) if expected.get(k) != actual.get(k)
        }
        raise PruneError(f"pruned tensors inconsistent with target config: {sorted(mismatched)}")
    return model
