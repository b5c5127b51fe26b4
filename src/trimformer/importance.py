"""Forward-pass-only importance estimation.

:func:`compute_importance_report` is the one scorer. A single streamed,
chunked forward pass over the calibration set scores every width axis
(attention heads, MLP neurons, embedding channels) from its activations, and
every depth criterion: block influence (BI, one minus the expected
input/output cosine similarity of a block), the BI of any contiguous run of
blocks, and the perplexity of the model with each single block removed. Each
removal resumes from the chunk's own block input, so a chunk of at most 32
samples runs one forward plus ``L`` resumed ones (``L + L(L-1)/2`` blocks),
and no block input outlives its chunk. Width activations are reduced in
float64 as they are produced; the removal NLLs are the chunks' mean NLLs
weighted by their share of the samples. The pass hides any active gradient
tape with :class:`autodiff.no_grad`, as the distillation teacher does.

Per-head and per-neuron scores are ranked within their own layer; embedding
channel scores are aggregated per LayerNorm site and then summed across all
sites network-wide, since the residual stream shares channel identity. A
report stores scores only: the pruner ranks them itself, and a ``rankings``
key in a stored report is ignored on load.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import write_atomic
from .errors import ConfigError, DataError, PruneError
from .model import Model, _is_finite, _is_int, forward

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
        return np.abs(values).mean(axis=axis, dtype=np.float64)
    if name == "l2":
        return np.sqrt(np.square(values, dtype=np.float64).sum(axis=axis))
    return values.var(axis=axis, dtype=np.float64)


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


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a.reshape(-1, a.shape[-1]).astype(np.float64)
    b = b.reshape(-1, b.shape[-1]).astype(np.float64)
    num = (a * b).sum(axis=-1)
    den = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    return num / np.maximum(den, np.finfo(np.float64).tiny)


# Calibration samples per chunk of the importance pass.
_CHUNK = 32
# The report's score arrays, in the order they are stored.
_SCORE_FIELDS = (
    "head_scores", "neuron_scores", "emb_scores", "layer_scores_ppl", "layer_scores_bi"
)


@dataclass
class ImportanceReport:
    """Score vectors per axis plus the spec and calibration fingerprint.

    Rankings are derived, not stored: the pruner sorts by descending score,
    lower index first on ties. :meth:`from_json` ignores unknown keys, so a
    report that carries a ``rankings`` object still loads.
    """

    head_scores: np.ndarray  # [layer, head]
    neuron_scores: np.ndarray  # [layer, channel]
    emb_scores: np.ndarray  # [channel]
    layer_scores_ppl: np.ndarray | None
    layer_scores_bi: np.ndarray | None
    block_bi_scores: dict[tuple[int, int], float]
    agg: AggregationSpec
    calibration_checksum: str

    def layer_scores(self, metric: str) -> np.ndarray | None:
        """Depth scores under ``metric`` (one of :data:`DEPTH_METRICS`), or
        None when the report was made without them."""
        return getattr(self, _depth_field(metric))

    def to_json(self) -> str:
        payload = {
            "aggregation": self.agg.to_dict(),
            "calibration_checksum": self.calibration_checksum,
            **{name: None if (v := getattr(self, name)) is None else v.tolist()
               for name in _SCORE_FIELDS},
            "block_bi": [
                {"start": s, "length": ln, "score": v}
                for (s, ln), v in sorted(self.block_bi_scores.items())
            ],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ImportanceReport":
        try:
            d = json.loads(text)

            def scores(key):  # finite numbers only: no strings, bools, NaN or inf
                if d[key] is None:
                    return None
                if not all(map(_is_finite, np.array(d[key], dtype=object).flat)):
                    raise TypeError(f"{key} must hold finite numbers only")
                return np.array(d[key], dtype=np.float64)

            def block(e):
                if not (_is_int(e["start"], 0) and _is_int(e["length"], 1)
                        and e["start"] + e["length"] <= depth and _is_finite(e["score"])):
                    raise TypeError(f"block_bi entry {e!r} needs integer start and length "
                                    f"inside the report's {depth} layers and a finite score")
                return (e["start"], e["length"]), e["score"]

            checksum = d["calibration_checksum"]
            if not (isinstance(checksum, str) and re.fullmatch("[0-9a-f]{64}", checksum)):
                raise ValueError(f"calibration_checksum {checksum!r} is not a sha256 hex digest")
            tables = {name: scores(name) for name in _SCORE_FIELDS}
            depth = len(tables["head_scores"])  # the extent every per-layer table shares
            for name in ("neuron_scores", "layer_scores_ppl", "layer_scores_bi"):
                if tables[name] is not None and len(tables[name]) != depth:
                    raise ValueError(f"{name} has {len(tables[name])} layers, head_scores {depth}")
            blocks = [block(e) for e in d.get("block_bi", [])]
            if len(dict(blocks)) < len(blocks):
                raise ValueError("block_bi repeats a (start, length) pair")
            return cls(
                **tables,
                block_bi_scores=dict(blocks),
                agg=AggregationSpec.from_dict(d["aggregation"]),
                calibration_checksum=checksum,
            )
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError, ConfigError) as e:
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
    """Score every axis from one chunked forward pass over the calibration
    set, including the per-layer perplexity sweep; disable it when only width
    axes are needed.

    Each width site is reduced as it is produced to per-sample ``[B, C]``
    sequence aggregates under ``spec.seq_fn`` (heads first take the per-token
    L2 over ``d_head``), in float64 straight from the activation; after the
    last chunk ``spec.batch_fn`` collapses the samples. Block inputs are held
    raw only within a chunk of at most ``_CHUNK`` (32) samples, for the
    per-token cosines behind each block influence ``1 - E[cos(X_a, X_b)]``
    (an adjacent pair and a one-block ``blocks`` entry are one pair) and for
    the removal sweep: the model without block ``i`` resumes at block
    ``i + 1`` on the chunk's ``X_i``, so with the sweep a chunk runs
    ``L + L(L-1)/2`` blocks. Each chunk's mean NLL is weighted by its share
    of the samples, and a removal scores ``exp(NLL_i)``.
    """
    spec = spec or AggregationSpec()
    cfg = model.config
    num_layers = cfg.num_layers
    blocks = [(start, length) for start, length in blocks or []]
    for start, length in blocks:
        if length < 1 or start < 0 or start + length > num_layers:
            raise PruneError(f"block ({start}, {length}) out of range for {num_layers} layers")
    calib = np.asarray(calib)
    if calib.ndim != 2 or calib.shape[0] == 0:
        raise DataError("calibration set must be a non-empty [n, seq] token array")
    if include_ppl and num_layers < 2:
        raise PruneError("layer importance needs at least two layers")
    adjacent = {(i, i + 1) for i in range(num_layers)} if include_bi else set()
    cosines = {pair: [] for pair in adjacent | {(s, s + ln) for s, ln in blocks}}
    removals = range(num_layers) if include_ppl else ()
    kept_inputs = set(removals) | {i for pair in cosines for i in pair}
    width = {site: [[] for _ in range(num_layers + 1)]
             for site in ("attn", "mlp_pre", "ln1", "ln2")}
    nll = np.zeros(num_layers)

    def tap(site, layer, value):
        if site == "x":
            return value if layer in kept_inputs else None
        if site in width:
            # Reduced in float64 straight from the float32 activation, in its
            # own memory order (head-major for "attn"), which fixes the
            # summation order; the results equal those of a float64 copy.
            values = value.data
            if site == "attn":
                values = np.sqrt(np.square(values, dtype=np.float64).sum(axis=-1))  # [B,S,H]
            width[site][layer].append(_apply_agg(spec.seq_fn, values, axis=1))
        return None

    n = calib.shape[0]
    with ad.no_grad():
        for i in range(0, n, _CHUNK):
            chunk = calib[i : i + _CHUNK]
            _, inputs = forward(model, chunk, tap=tap)
            for (a, b), rows in cosines.items():
                rows.append(_cosine_rows(inputs[("x", a)].data, inputs[("x", b)].data))
            for layer in removals:
                logits, _ = forward(model, chunk, start=(layer + 1, inputs[("x", layer)]))
                nll[layer] += len(chunk) / n * ad.cross_entropy(logits, chunk[:, 1:]).item()

    def per_layer(site, count):
        return [_apply_agg(spec.batch_fn, np.concatenate(parts), axis=0)
                for parts in width[site][:count]]

    def bi(pair):
        return float(1.0 - np.concatenate(cosines[pair]).mean())

    ln1, ln2 = per_layer("ln1", num_layers + 1), per_layer("ln2", num_layers)
    return ImportanceReport(
        head_scores=np.reshape(per_layer("attn", num_layers), (num_layers, cfg.num_heads)),
        neuron_scores=np.reshape(per_layer("mlp_pre", num_layers), (num_layers, cfg.d_hidden)),
        # Summed in network order: each block's two norms, then the final norm.
        emb_scores=sum(x for pair in zip(ln1, ln2) for x in pair) + ln1[-1],
        layer_scores_ppl=np.array([math.exp(v) for v in nll]) if include_ppl else None,
        layer_scores_bi=(
            np.array([bi((i, i + 1)) for i in range(num_layers)]) if include_bi else None
        ),
        block_bi_scores={(s, ln): bi((s, s + ln)) for s, ln in blocks},
        agg=spec,
        calibration_checksum=calibration_checksum(calib),
    )
