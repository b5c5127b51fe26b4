"""The recipe's headline claims at toy scale, end to end: a pruned model
briefly distilled from its teacher beats the pruned model left as it is, which
beats the same shape trained from scratch for as many steps; and keeping what
the activation scores rank highest beats keeping what they rank lowest."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from trimformer.data import ingest_text, sample_calibration, synthetic_markov_text
from trimformer.distill import DistillConfig, conventional_loop, distill_loop, for_depths
from trimformer.importance import compute_importance_report
from trimformer.model import build_model, lm_loss
from trimformer.pruning import apply_candidate, resolve_query_groups

SEED, LOOP = 1, dict(seed=1, batch_size=8, seq_len=32)


@pytest.fixture(scope="module")
def recipe(tmp_path_factory, toy_config):
    """rank-toy's teacher shape and corpus at seed 1, a 100-step teacher, its
    importance report and the eval batch."""
    path = tmp_path_factory.mktemp("recipe") / "corpus.txt"
    path.write_text(synthetic_markov_text(n_docs=120, doc_len=240, seed=SEED))
    corpus = ingest_text(str(path), seed=SEED)
    teacher, _ = conventional_loop(build_model(toy_config, seed=SEED), corpus, 100, **LOOP)
    report = compute_importance_report(
        teacher, sample_calibration(corpus, 16, 32, SEED), include_bi=False
    )
    eval_tokens = sample_calibration(corpus, 16, 32, SEED, split="val")
    return SimpleNamespace(corpus=corpus, teacher=teacher, report=report, eval_tokens=eval_tokens)


def _arms(recipe, target, cfg):
    """Eval losses of ``target`` pruned by the report then distilled 20 steps
    under ``cfg``, pruned only, and trained from scratch for 20 steps."""
    pruned = apply_candidate(recipe.teacher, target, recipe.report)
    distilled, _ = distill_loop(recipe.teacher, pruned.copy(), recipe.corpus, cfg, 20, **LOOP)
    scratch, _ = conventional_loop(build_model(target, seed=SEED), recipe.corpus, 20, **LOOP)
    return tuple(lm_loss(m, recipe.eval_tokens).item() for m in (distilled, pruned, scratch))


def test_width_pruning_plus_distillation_beats_training_from_scratch(recipe, toy_config):
    # The E48 H4 M128 width target. Measured eval losses: 2.70 distilled,
    # 3.02 pruned only, 4.72 from scratch, and 3.16 pruned by the negated
    # scores.
    target = toy_config.with_(
        d_model=48, num_heads=4, d_hidden=128,
        num_query_groups=resolve_query_groups(toy_config.num_query_groups, 4),
    )
    report = recipe.report
    inverted = replace(report, head_scores=-report.head_scores,
                       neuron_scores=-report.neuron_scores, emb_scores=-report.emb_scores)
    worst_kept = lm_loss(apply_candidate(recipe.teacher, target, inverted),
                         recipe.eval_tokens).item()
    losses = _arms(recipe, target, DistillConfig())
    assert losses[0] < losses[1] < losses[2], losses
    assert losses[1] < worst_kept, (losses[1], worst_kept)


def test_depth_pruning_plus_distillation_beats_training_from_scratch(recipe, toy_config):
    # L4 -> L2 by the report's ppl ranking, distilled under the default
    # objective's depth rule (KLD plus emb/o terms). Measured eval losses:
    # 2.421 distilled, 2.542 pruned only, 4.416 from scratch (KLD alone
    # reaches 2.433).
    cfg = for_depths(DistillConfig(), toy_config.num_layers, 2)
    assert cfg.is_components == ("emb", "o")
    losses = _arms(recipe, toy_config.with_(num_layers=2), cfg)
    assert losses[0] < losses[1] < losses[2], losses
