"""Forward-pass-only importance estimation.

Width axes (attention heads, MLP neurons, embedding channels) are scored
from activations captured on a calibration batch; depth is scored either by
the perplexity of the model with one block removed or by block influence
(one minus the expected input/output cosine similarity). A report takes the
width axes and every block influence from one streamed forward pass, plus
the perplexity sweep. No API here ever records onto a gradient tape —
callers inside a tape context get an error.

Per-head and per-neuron scores are ranked within their own layer; embedding
channel scores are aggregated per LayerNorm site and then summed across all
sites network-wide, since the residual stream shares channel identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import write_atomic
from .errors import ConfigError, DataError, PruneError
from .model import Model, forward, perplexity
from .pruning import apply_candidate, resolve_query_groups

_AGG_ALIASES = {"mean": "mean_abs", "var": "variance", "l2": "l2"}
_AGG_NAMES = ("mean_abs", "l2", "variance")
DEPTH_METRICS = ("ppl", "bi")


def _depth_field(metric: str) -> str:
    """The report field that holds the depth scores under ``metric``."""
    if metric not in DEPTH_METRICS:
        raise ConfigError(f"unknown depth metric {metric!r}; use {DEPTH_METRICS}")
    return "layer_scores_" + metric


def _canon_agg(name: str) -> str:
    name = _AGG_ALIASES.get(name, name)
    if name not in _AGG_NAMES:
        raise ConfigError(f"unknown aggregation function {name!r}; use {_AGG_NAMES}")
    return name


def _apply_agg(name: str, values: np.ndarray, axis: int) -> np.ndarray:
    if name == "mean_abs":
        return np.abs(values).mean(axis=axis)
    if name == "l2":
        return np.sqrt((values * values).sum(axis=axis))
    return values.var(axis=axis)


@dataclass(frozen=True)
class AggregationSpec:
    """Reduction pair: ``seq_fn`` collapses the sequence axis per sample,
    ``batch_fn`` then collapses the sample axis."""

    batch_fn: str = "l2"
    seq_fn: str = "mean_abs"

    def __post_init__(self):
        object.__setattr__(self, "batch_fn", _canon_agg(self.batch_fn))
        object.__setattr__(self, "seq_fn", _canon_agg(self.seq_fn))

    def to_dict(self):
        return {"batch_fn": self.batch_fn, "seq_fn": self.seq_fn}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def aggregate(scores: np.ndarray, spec: AggregationSpec) -> float:
    """Collapse per-token scores ``[batch, seq]`` to one scalar."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise DataError("aggregate expects a non-empty [batch, seq] array")
    per_sample = _apply_agg(spec.seq_fn, scores, axis=1)
    return float(_apply_agg(spec.batch_fn, per_sample, axis=0))


def _require_no_tape(op: str) -> None:
    if ad.active_tape() is not None:
        raise ConfigError(
            f"{op} is forward-only and must not run under an active gradient tape"
        )


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a.reshape(-1, a.shape[-1]).astype(np.float64)
    b = b.reshape(-1, b.shape[-1]).astype(np.float64)
    num = (a * b).sum(axis=-1)
    den = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    return num / np.maximum(den, np.finfo(np.float64).tiny)


def _calibration_pass(
    model: Model, calib: np.ndarray, sites=(), spec: AggregationSpec | None = None,
    pairs=(), chunk=32,
) -> dict:
    """One chunked forward pass over the calibration set.

    Each width site in ``sites`` is reduced as it is produced to per-sample
    ``[B, C]`` sequence aggregates under ``spec.seq_fn`` (heads first take
    the per-token L2 over ``d_head``); after the last chunk ``spec.batch_fn``
    collapses the samples, giving ``{(site, layer): [C]}``. Block inputs are
    held raw only within a chunk, for the per-token cosines behind the block
    influence ``{("bi", a, b): 1 - E[cos(X_a, X_b)]}`` of each pair in
    ``pairs``.
    """
    calib = np.asarray(calib)
    if calib.ndim != 2 or calib.shape[0] == 0:
        raise DataError("calibration set must be a non-empty [n, seq] token array")
    pairs = set(pairs)
    blocks = {i for pair in pairs for i in pair}

    def tap(site, layer, value):
        if site == "x":
            return value.data if layer in blocks else None
        if site not in sites:
            return None
        # astype keeps the memory order (head-major for "attn"), which fixes
        # the summation order of the reductions below.
        values = value.data.astype(np.float64)
        if site == "attn":
            values = np.sqrt((values**2).sum(axis=-1))  # [B,S,H]
        return _apply_agg(spec.seq_fn, values, axis=1)

    parts: dict = {}
    for i in range(0, calib.shape[0], chunk):
        _, acts = forward(model, calib[i : i + chunk], tap=tap)
        for a, b in pairs:
            acts[("bi", a, b)] = _cosine_rows(acts[("x", a)], acts[("x", b)])
        for key, value in acts.items():
            if key[0] != "x":
                parts.setdefault(key, []).append(value)
    scores = {}
    for key, chunks in parts.items():
        values = np.concatenate(chunks)
        if key[0] == "bi":
            scores[key] = float(1.0 - values.mean())
        else:
            scores[key] = _apply_agg(spec.batch_fn, values, axis=0)
    return scores


def _per_layer(scores, site: str, num_layers: int, width: int) -> np.ndarray:
    out = np.zeros((num_layers, width))
    for i in range(num_layers):
        out[i] = scores[(site, i)]
    return out


def _emb_total(scores, num_layers: int, width: int) -> np.ndarray:
    # Summed in network order: each block's two norms, then the final norm.
    total = np.zeros(width)
    for i in range(num_layers):
        total += scores[("ln1", i)]
        total += scores[("ln2", i)]
    total += scores[("ln1", num_layers)]
    return total


def _check_block(n: int, start: int, length: int) -> None:
    if length < 1 or start < 0 or start + length > n:
        raise PruneError(f"block ({start}, {length}) out of range for {n} layers")


def head_importance(
    model: Model, calib: np.ndarray, spec: AggregationSpec
) -> np.ndarray:
    """Per-token L2 norm of each head's output vector (before the output
    projection), aggregated to ``[layer, head]`` scores."""
    _require_no_tape("head_importance")
    cfg = model.config
    scores = _calibration_pass(model, calib, {"attn"}, spec)
    return _per_layer(scores, "attn", cfg.num_layers, cfg.num_heads)


def neuron_importance(
    model: Model, calib: np.ndarray, spec: AggregationSpec
) -> np.ndarray:
    """Pre-activation of each MLP hidden channel, aggregated per layer."""
    _require_no_tape("neuron_importance")
    cfg = model.config
    scores = _calibration_pass(model, calib, {"mlp_pre"}, spec)
    return _per_layer(scores, "mlp_pre", cfg.num_layers, cfg.d_hidden)


def emb_importance(
    model: Model, calib: np.ndarray, spec: AggregationSpec
) -> np.ndarray:
    """Per-channel score of every LayerNorm output, aggregated per site and
    summed over all sites (both block norms plus the final norm)."""
    _require_no_tape("emb_importance")
    cfg = model.config
    scores = _calibration_pass(model, calib, {"ln1", "ln2"}, spec)
    return _emb_total(scores, cfg.num_layers, cfg.d_model)


def layer_importance_ppl(model: Model, calib: np.ndarray) -> np.ndarray:
    """Perplexity of the model with each single block removed; higher means
    the block mattered more. One evaluation sweep per layer."""
    _require_no_tape("layer_importance_ppl")
    if model.config.num_layers < 2:
        raise PruneError("layer importance needs at least two layers")
    return np.array(
        [
            perplexity(model, calib, skip_layers={i})
            for i in range(model.config.num_layers)
        ]
    )


def layer_importance_bi(model: Model, calib: np.ndarray) -> np.ndarray:
    """Block influence: 1 - E[cos(X_i, X_{i+1})] over all (sample, token)
    rows. All layers come from a single forward pass."""
    _require_no_tape("layer_importance_bi")
    pairs = [(i, i + 1) for i in range(model.config.num_layers)]
    scores = _calibration_pass(model, calib, pairs=pairs)
    return np.array([scores[("bi", *p)] for p in pairs])


def block_bi(model: Model, calib: np.ndarray, start: int, length: int) -> float:
    """Block influence of ``length`` contiguous blocks starting at ``start``."""
    _require_no_tape("block_bi")
    _check_block(model.config.num_layers, start, length)
    scores = _calibration_pass(model, calib, pairs=[(start, start + length)])
    return scores[("bi", start, start + length)]


@dataclass
class ImportanceReport:
    """Score vectors per axis plus the spec and calibration fingerprint.

    Rankings are derived, not stored: stable argsort, descending score,
    lower index first on ties.
    """

    head_scores: np.ndarray  # [layer, head]
    neuron_scores: np.ndarray  # [layer, channel]
    emb_scores: np.ndarray  # [channel]
    layer_scores_ppl: np.ndarray | None
    layer_scores_bi: np.ndarray | None
    block_bi_scores: dict[tuple[int, int], float]
    agg: AggregationSpec
    calibration_checksum: str

    @staticmethod
    def _rank_desc(scores: np.ndarray) -> np.ndarray:
        # Stable sort on negated scores: descending, ties by lower index.
        return np.argsort(-np.asarray(scores), kind="stable")

    def heads_ranked(self, layer: int) -> np.ndarray:
        return self._rank_desc(self.head_scores[layer])

    def neurons_ranked(self, layer: int) -> np.ndarray:
        return self._rank_desc(self.neuron_scores[layer])

    def emb_ranked(self) -> np.ndarray:
        return self._rank_desc(self.emb_scores)

    def layer_scores(self, metric: str) -> np.ndarray | None:
        """Depth scores under ``metric`` (one of :data:`DEPTH_METRICS`), or
        None when the report was made without them."""
        return getattr(self, _depth_field(metric))

    def layers_ranked(self, metric: str = "ppl") -> np.ndarray:
        scores = self.layer_scores(metric)
        if scores is None:
            raise DataError(f"report is missing {metric} layer scores")
        return self._rank_desc(scores)

    def to_json(self) -> str:
        payload = {
            "aggregation": self.agg.to_dict(),
            "calibration_checksum": self.calibration_checksum,
            "head_scores": self.head_scores.tolist(),
            "neuron_scores": self.neuron_scores.tolist(),
            "emb_scores": self.emb_scores.tolist(),
            "layer_scores_ppl": (
                None if self.layer_scores_ppl is None else self.layer_scores_ppl.tolist()
            ),
            "layer_scores_bi": (
                None if self.layer_scores_bi is None else self.layer_scores_bi.tolist()
            ),
            "block_bi": [
                {"start": s, "length": ln, "score": v}
                for (s, ln), v in sorted(self.block_bi_scores.items())
            ],
            "rankings": {
                "heads": [self.heads_ranked(i).tolist() for i in range(len(self.head_scores))],
                "neurons": [self.neurons_ranked(i).tolist() for i in range(len(self.neuron_scores))],
                "emb": self.emb_ranked().tolist(),
            },
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ImportanceReport":
        try:
            d = json.loads(text)
            return cls(
                head_scores=np.array(d["head_scores"]),
                neuron_scores=np.array(d["neuron_scores"]),
                emb_scores=np.array(d["emb_scores"]),
                layer_scores_ppl=(
                    None if d["layer_scores_ppl"] is None else np.array(d["layer_scores_ppl"])
                ),
                layer_scores_bi=(
                    None if d["layer_scores_bi"] is None else np.array(d["layer_scores_bi"])
                ),
                block_bi_scores={
                    (e["start"], e["length"]): e["score"] for e in d.get("block_bi", [])
                },
                agg=AggregationSpec.from_dict(d["aggregation"]),
                calibration_checksum=d["calibration_checksum"],
            )
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise DataError(f"malformed importance report: {e!r}") from e

    def save(self, path: str) -> None:
        write_atomic(path, self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "ImportanceReport":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(f.read())


def calibration_checksum(calib: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(calib, dtype="<i8").tobytes()).hexdigest()


def compute_importance_report(
    model: Model,
    calib: np.ndarray,
    spec: AggregationSpec | None = None,
    include_ppl: bool = True,
    include_bi: bool = True,
    blocks: list[tuple[int, int]] | None = None,
) -> ImportanceReport:
    """Score every axis from one captured pass over the calibration set,
    plus the per-layer perplexity sweep, which dominates the cost; disable
    it when only width axes are needed."""
    _require_no_tape("compute_importance_report")
    spec = spec or AggregationSpec()
    cfg = model.config
    blocks = [(start, length) for start, length in blocks or []]
    for start, length in blocks:
        _check_block(cfg.num_layers, start, length)
    adjacent = [(i, i + 1) for i in range(cfg.num_layers)] if include_bi else []
    block_pairs = [(s, s + ln) for s, ln in blocks]
    scores = _calibration_pass(
        model, calib, {"attn", "mlp_pre", "ln1", "ln2"}, spec, adjacent + block_pairs
    )
    return ImportanceReport(
        head_scores=_per_layer(scores, "attn", cfg.num_layers, cfg.num_heads),
        neuron_scores=_per_layer(scores, "mlp_pre", cfg.num_layers, cfg.d_hidden),
        emb_scores=_emb_total(scores, cfg.num_layers, cfg.d_model),
        layer_scores_ppl=layer_importance_ppl(model, calib) if include_ppl else None,
        layer_scores_bi=(
            np.array([scores[("bi", *p)] for p in adjacent]) if include_bi else None
        ),
        block_bi_scores={b: scores[("bi", *p)] for b, p in zip(blocks, block_pairs)},
        agg=spec,
        calibration_checksum=calibration_checksum(calib),
    )


_ITER_AXES = ("heads", "neurons", "emb", "layers")


def iterative_importance(
    model: Model,
    calib: np.ndarray,
    axis_targets: dict[str, int],
    T: int,
    spec: AggregationSpec | None = None,
    depth_metric: str = "ppl",
) -> Model:
    """Alternate importance estimation and partial pruning for ``T`` rounds.

    Each axis shrinks by (source - target) / T per round, which must divide
    evenly. ``T=1`` is exactly single-shot pruning.
    """
    _depth_field(depth_metric)  # a misspelled metric fails before any scoring
    spec = spec or AggregationSpec()
    if T < 1:
        raise ConfigError("iteration count T must be >= 1")
    unknown = set(axis_targets) - set(_ITER_AXES)
    if unknown:
        raise ConfigError(f"unknown pruning axes {sorted(unknown)}; use {_ITER_AXES}")
    cfg = model.config
    current = {
        "heads": cfg.num_heads,
        "neurons": cfg.d_hidden,
        "emb": cfg.d_model,
        "layers": cfg.num_layers,
    }
    steps = {}
    for axis, target in axis_targets.items():
        delta = current[axis] - target
        if delta < 0:
            raise PruneError(f"{axis} target {target} exceeds source {current[axis]}")
        if delta % T != 0:
            raise PruneError(
                f"{axis} reduction {delta} is not divisible by T={T}"
            )
        steps[axis] = delta // T
    for _ in range(T):
        for axis in steps:
            current[axis] -= steps[axis]
        target_cfg = model.config.with_(
            num_heads=current["heads"],
            d_hidden=current["neurons"],
            d_model=current["emb"],
            num_layers=current["layers"],
            num_query_groups=resolve_query_groups(
                model.config.num_query_groups, current["heads"]
            ),
        )
        if target_cfg == model.config:
            continue
        needs_depth = target_cfg.num_layers < model.config.num_layers
        report = compute_importance_report(
            model,
            calib,
            spec,
            include_ppl=needs_depth and depth_metric == "ppl",
            include_bi=needs_depth and depth_metric == "bi",
        )
        model = apply_candidate(model, target_cfg, report, depth_metric=depth_metric)
    return model
