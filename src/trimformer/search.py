"""Lightweight architecture search under a parameter budget.

Enumeration walks the Cartesian product of the discrete choices, snaps the
MLP width to a multiple of 128, and keeps configurations whose parameter
count sits within ``tolerance * budget`` of the budget. Ranking prunes the
source model to each candidate, retrains every candidate identically for a
short distillation run, and orders them by final evaluation loss; short
retraining is what stabilizes the relative order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import write_atomic
from .distill import DistillConfig, distill_loop
from .errors import DataError, SearchError
from .importance import ImportanceReport
from .model import Model, ModelConfig, count_params
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
        if lo > hi or lo < 1:
            raise SearchError(f"bad layer range {self.layer_range}")
        for name in ("head_choices", "mlp_expansion_factors", "embedding_choices"):
            if not getattr(self, name):
                raise SearchError(f"{name} must be non-empty")
        if any(f <= 0 for f in self.mlp_expansion_factors):
            raise SearchError("expansion factors must be positive")

    def to_dict(self) -> dict:
        return {
            "layer_range": list(self.layer_range),
            "head_choices": list(self.head_choices),
            "mlp_expansion_factors": list(self.mlp_expansion_factors),
            "embedding_choices": list(self.embedding_choices),
            "d_head": self.d_head,
            "vocab_size": self.vocab_size,
            "num_query_groups": self.num_query_groups,
            "max_seq_len": self.max_seq_len,
            "tie_embeddings": self.tie_embeddings,
        }

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
        return cls(
            config=ModelConfig.from_dict(d["config"]),
            total_params=d["total_params"],
            non_embedding_params=d["non_embedding_params"],
            label=d["label"],
            eval_loss=d.get("eval_loss"),
            eval_trajectory=[tuple(p) for p in d.get("eval_trajectory", [])],
        )


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
            return cls(
                space=SearchSpace.from_dict(d["space"]),
                budget=a["budget"],
                tolerance=a["tolerance"],
                count_mode=a["count_mode"],
                candidates=[Candidate.from_dict(c) for c in d["candidates"]],
            )
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"malformed candidate manifest: {e!r}") from e

    def save(self, path: str) -> None:
        write_atomic(path, self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "CandidateSet":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(f.read())


def enumerate_candidates(
    space: SearchSpace, budget: float, tolerance: float, count_mode: str = "total"
) -> CandidateSet:
    """All feasible configurations with |count - budget| <= tolerance * budget.

    Deterministic order: layers descending, then head count, then embedding
    width descending, then MLP width. An empty result is reported with a
    warning, not an error.
    """
    if not 0 < tolerance < 1:
        raise SearchError(f"tolerance must be in (0, 1), got {tolerance}")
    if count_mode not in COUNT_MODES:
        raise SearchError(f"count_mode must be one of {COUNT_MODES}")
    if budget <= 0:
        raise SearchError("budget must be positive")
    lo, hi = space.layer_range
    seen = set()
    rows = []
    for layers in range(lo, hi + 1):
        for heads in space.head_choices:
            for emb in space.embedding_choices:
                for factor in space.mlp_expansion_factors:
                    mlp = snap_mlp_width(factor, emb)
                    key = (layers, heads, emb, mlp)
                    if key in seen:
                        continue
                    seen.add(key)
                    cfg = ModelConfig(
                        num_layers=layers,
                        d_model=emb,
                        num_heads=heads,
                        num_query_groups=resolve_query_groups(
                            space.num_query_groups, heads
                        ),
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
    eval_every: int = 0,
    merge_heads: bool = False,
) -> CandidateSet:
    """Prune to each candidate, retrain identically, order by final eval loss.

    Candidates are processed in label order with a shared seed, so the
    ranking does not depend on the incoming list order.
    """
    if retrain_steps < 1:
        raise SearchError("retrain_steps must be >= 1")
    eval_every = eval_every or max(1, retrain_steps // 10)
    ranked: list[Candidate] = []
    for cand in sorted(candidate_set.candidates, key=lambda c: c.label):
        student = apply_candidate(model, cand.config, report, merge_heads=merge_heads)
        student, metrics = distill_loop(
            model,
            student,
            data,
            distill_cfg,
            retrain_steps,
            seed=seed,
            batch_size=batch_size,
            seq_len=seq_len,
            eval_data=eval_tokens,
            eval_every=eval_every,
        )
        trajectory = [(m["step"], m["eval_loss"]) for m in metrics if "eval_loss" in m]
        ranked.append(
            Candidate(
                config=cand.config,
                total_params=cand.total_params,
                non_embedding_params=cand.non_embedding_params,
                label=cand.label,
                eval_loss=trajectory[-1][1],
                eval_trajectory=trajectory,
            )
        )
    ranked.sort(key=lambda c: (c.eval_loss, c.label))
    return CandidateSet(
        candidate_set.space,
        candidate_set.budget,
        candidate_set.tolerance,
        candidate_set.count_mode,
        ranked,
    )
