"""Structured pruning and distillation toolkit for small decoder-only
transformers: activation-based importance scoring, head/neuron/embedding/
depth trimming, budgeted architecture search, and distillation retraining,
all on a self-contained numpy autodiff core."""

from .autodiff import Tape, Tensor, backward, no_grad
from .data import TokenDataset, ingest_text, sample_calibration
from .distill import (
    DistillConfig,
    SharedProjection,
    TrainState,
    conventional_loop,
    distill_loop,
    intermediate_loss,
    logit_loss,
    softmax_t,
    total_loss,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    PruneError,
    SearchError,
    ShapeError,
    TapeError,
    TrimformerError,
)
from .importance import (
    AggregationSpec,
    ImportanceReport,
    aggregate,
    block_bi,
    compute_importance_report,
    emb_importance,
    head_importance,
    iterative_importance,
    layer_importance_bi,
    layer_importance_ppl,
    neuron_importance,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .model import (
    Model,
    ModelConfig,
    build_model,
    count_flops_per_step,
    count_params,
    forward,
    lm_loss,
    perplexity,
)
from .pruning import apply_candidate, prune_depth, prune_width
from .search import CandidateSet, SearchSpace, enumerate_candidates, rank_candidates

__version__ = "0.1.0"
