"""Lightweight architecture search under a parameter budget.

Enumeration walks the Cartesian product of the discrete choices, snaps the
MLP width to a multiple of 128, and keeps configurations whose parameter
count sits within ``tolerance * budget`` of the budget. Ranking prunes the
source model to each candidate, retrains it briefly under the objective
``distill`` would give it, and orders them by final evaluation loss; short
retraining is what stabilizes the relative order.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .checkpoint import write_atomic
from .distill import DistillConfig, distill_loop, for_depths
from .errors import DataError, SearchError
from .importance import ImportanceReport
from .model import Model, ModelConfig, _is_finite, _is_int, _is_number, count_params
from .pruning import apply_candidate, resolve_query_groups

MLP_SNAP = 128
COUNT_MODES = ("total", "non_embedding")


@dataclass(frozen=True)
class SearchSpace:
    layer_range: tuple[int, int]  # inclusive
    head_choices: tuple[int, ...]
    mlp_expansion_factors: tuple[float, ...]
    embedding_choices: tuple[int, ...]
    d_head: int
    vocab_size: int
    num_query_groups: int = 8
    max_seq_len: int = 2048
    tie_embeddings: bool = False

    def __post_init__(self):
        lo, hi = self.layer_range
        if not (_is_int(lo, 1) and _is_int(hi, lo)):
            raise SearchError(f"bad layer range {self.layer_range}")
        for name in ("head_choices", "mlp_expansion_factors", "embedding_choices"):
            if not getattr(self, name):
                raise SearchError(f"{name} must be non-empty")
        sizes = (*self.head_choices, *self.embedding_choices, self.num_query_groups)
        if bad := [n for n in sizes if not _is_int(n, 1)]:
            raise SearchError(f"head and embedding choices and num_query_groups must be "
                              f"integers >= 1, got {bad[0]!r}")
        if not all(_is_finite(f) and f > 0 for f in self.mlp_expansion_factors):
            raise SearchError(f"expansion factors must be positive and finite, "
                              f"got {list(self.mlp_expansion_factors)}")

    def to_dict(self) -> dict:
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpace":
        try:
            d = dict(d)
            for name in ("layer_range", "head_choices", "mlp_expansion_factors",
                         "embedding_choices"):
                d[name] = tuple(d[name])
            return cls(**d)
        except (ValueError, KeyError, TypeError) as e:
            raise SearchError(f"bad search space: {e!r}") from e


def snap_mlp_width(factor: float, embedding: int) -> int:
    return max(MLP_SNAP, int(round(factor * embedding / MLP_SNAP)) * MLP_SNAP)


@dataclass
class Candidate:
    config: ModelConfig
    total_params: int
    non_embedding_params: int
    label: str
    eval_loss: float | None = None
    eval_trajectory: list = field(default_factory=list)  # (step, eval_loss)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "config": self.config.to_dict(),
            "total_params": self.total_params,
            "non_embedding_params": self.non_embedding_params,
            "eval_loss": self.eval_loss,
            "eval_trajectory": [list(p) for p in self.eval_trajectory],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Candidate":
        """Checked: a string label, the config's own parameter counts, and
        ``[step >= 0, finite loss]`` trajectory points at increasing steps
        whose last loss is the eval loss (null without points)."""
        config = ModelConfig.from_dict(d["config"])
        if not isinstance(d["label"], str):
            raise TypeError(f"candidate label must be a string, got {d['label']!r}")
        for key, want in zip(("total_params", "non_embedding_params"), count_params(config)):
            if not (_is_int(d[key], 0) and d[key] == want):
                raise ValueError(f"{d['label']}: {key} is {d[key]!r}, its config has {want}")
        eval_loss = d.get("eval_loss")
        if not (eval_loss is None or _is_finite(eval_loss)):
            raise ValueError(f"{d['label']}: eval_loss must be null or finite, got {eval_loss!r}")
        trajectory = [tuple(p) for p in d.get("eval_trajectory", [])]
        for point in trajectory:
            if not (len(point) == 2 and _is_int(point[0], 0) and _is_finite(point[1])):
                raise ValueError(f"{d['label']}: eval_trajectory point {list(point)!r} "
                                 "must be [step >= 0, finite loss]")
        if any(a[0] >= b[0] for a, b in zip(trajectory, trajectory[1:])):
            raise ValueError(f"{d['label']}: eval_trajectory steps must increase")
        if eval_loss != (trajectory[-1][1] if trajectory else None):
            raise ValueError(f"{d['label']}: eval_loss {eval_loss!r} is not the last loss "
                             "of its eval_trajectory (null without one)")
        return cls(config, d["total_params"], d["non_embedding_params"], d["label"],
                   eval_loss, trajectory)


@dataclass
class CandidateSet:
    space: SearchSpace
    budget: float
    tolerance: float
    count_mode: str
    candidates: list[Candidate]

    def assumptions(self) -> dict:
        """The counting convention a budget filter is only meaningful under."""
        return {
            "count_mode": self.count_mode,
            "budget": self.budget,
            "tolerance": self.tolerance,
            "vocab_size": self.space.vocab_size,
            "d_head": self.space.d_head,
            "num_query_groups": self.space.num_query_groups,
            "tie_embeddings": self.space.tie_embeddings,
            "mlp_snap_multiple": MLP_SNAP,
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "space": self.space.to_dict(),
                "assumptions": self.assumptions(),
                "candidates": [c.to_dict() for c in self.candidates],
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "CandidateSet":
        try:
            d = json.loads(text)
            a = d["assumptions"]
            _check_target(a["budget"], a["tolerance"], a["count_mode"])
            result = cls(
                space=SearchSpace.from_dict(d["space"]),
                budget=a["budget"],
                tolerance=a["tolerance"],
                count_mode=a["count_mode"],
                candidates=[Candidate.from_dict(c) for c in d["candidates"]],
            )
            labels = [c.label for c in result.candidates]
            if len(set(labels)) < len(labels):
                raise ValueError(f"candidate labels repeat: {labels}")
            # Compared as JSON text, so 257.0 or 0 does not pass for 257 or false.
            want = result.assumptions()
            if json.dumps(a, sort_keys=True) != json.dumps(want, sort_keys=True):
                raise ValueError(f"assumptions {a!r} contradict the space and "
                                 f"enumeration rules, which give {want!r}")
            return result
        except (ValueError, KeyError, TypeError, OverflowError, SearchError) as e:
            raise DataError(f"malformed candidate manifest: {e!r}") from e

    def save(self, path: str) -> None:
        write_atomic(path, self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "CandidateSet":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(f.read())


def _check_target(budget, tolerance, count_mode) -> None:
    if not (_is_number(tolerance) and 0 < tolerance < 1):
        raise SearchError(f"tolerance must be in (0, 1), got {tolerance}")
    if count_mode not in COUNT_MODES:
        raise SearchError(f"count_mode must be one of {COUNT_MODES}")
    if not (_is_finite(budget) and budget > 0):
        raise SearchError(f"budget must be positive and finite, got {budget}")


def enumerate_candidates(
    space: SearchSpace, budget: float, tolerance: float, count_mode: str = "total"
) -> CandidateSet:
    """All feasible configurations with |count - budget| <= tolerance * budget.

    Deterministic order: layers descending, then head count, then embedding
    width descending, then MLP width. An empty result is reported with a
    warning, not an error; a size that overflows float arithmetic (in the
    MLP width or the budget comparison) is a :class:`SearchError`.
    """
    _check_target(budget, tolerance, count_mode)
    lo, hi = space.layer_range
    rows = []
    choices = itertools.product(range(lo, hi + 1), space.head_choices,
                                space.embedding_choices, space.mlp_expansion_factors)
    try:
        shapes = dict.fromkeys((layers, heads, emb, snap_mlp_width(factor, emb))
                               for layers, heads, emb, factor in choices)  # distinct, in order
        for layers, heads, emb, mlp in shapes:
            cfg = ModelConfig(
                num_layers=layers,
                d_model=emb,
                num_heads=heads,
                num_query_groups=resolve_query_groups(space.num_query_groups, heads),
                d_head=space.d_head,
                d_hidden=mlp,
                vocab_size=space.vocab_size,
                max_seq_len=space.max_seq_len,
                tie_embeddings=space.tie_embeddings,
            )
            counts = count_params(cfg)
            count = counts.total if count_mode == "total" else counts.non_embedding
            if abs(count - budget) <= tolerance * budget:
                rows.append((cfg, counts))
    except OverflowError as e:  # a size too large for float arithmetic
        raise SearchError(f"search space sizes overflow: {e}") from e
    rows.sort(key=lambda r: (-r[0].num_layers, r[0].num_heads, -r[0].d_model, r[0].d_hidden))
    candidates = [
        Candidate(
            config=cfg,
            total_params=counts.total,
            non_embedding_params=counts.non_embedding,
            label=f"L{cfg.num_layers}-H{cfg.num_heads}-M{cfg.d_hidden}-E{cfg.d_model}",
        )
        for cfg, counts in rows
    ]
    if not candidates:
        warnings.warn("no feasible candidates inside the budget window")
    return CandidateSet(space, budget, tolerance, count_mode, candidates)


def rank_candidates(
    model: Model,
    candidate_set: CandidateSet,
    retrain_steps: int,
    distill_cfg: DistillConfig,
    eval_tokens: np.ndarray,
    data,
    report: ImportanceReport,
    seed: int = 0,
    batch_size: int = 8,
    seq_len: int = 32,
) -> CandidateSet:
    """Prune to each candidate, retrain it under ``distill_cfg`` as
    :func:`distill.for_depths` adapts it, order by final eval loss.

    Candidates are processed in label order with a shared seed, so the
    ranking does not depend on the incoming list order. Each run is
    evaluated every ``max(1, retrain_steps // 10)`` steps (every step below
    twenty) and at its last.
    """
    if retrain_steps < 1:
        raise SearchError("retrain_steps must be >= 1")
    ranked: list[Candidate] = []
    for cand in sorted(candidate_set.candidates, key=lambda c: c.label):
        cfg = for_depths(distill_cfg, model.config.num_layers, cand.config.num_layers)
        student, metrics = distill_loop(
            model, apply_candidate(model, cand.config, report), data, cfg, retrain_steps,
            seed=seed, batch_size=batch_size, seq_len=seq_len, eval_data=eval_tokens,
            eval_every=max(1, retrain_steps // 10),
        )
        trajectory = [(m["step"], m["eval_loss"]) for m in metrics if "eval_loss" in m]
        ranked.append(replace(cand, eval_loss=trajectory[-1][1], eval_trajectory=trajectory))
    ranked.sort(key=lambda c: (c.eval_loss, c.label))
    return replace(candidate_set, candidates=ranked)
