"""The recipe's headline claims at toy scale, end to end: a pruned model
briefly distilled from its teacher beats the pruned model left as it is, which
beats the same shape trained from scratch for as many steps; and keeping what
the activation scores rank highest beats keeping what they rank lowest."""

from dataclasses import replace

from trimformer.data import ingest_text, sample_calibration, synthetic_markov_text
from trimformer.distill import DistillConfig, conventional_loop, distill_loop
from trimformer.importance import compute_importance_report
from trimformer.model import build_model, lm_loss
from trimformer.pruning import apply_candidate, resolve_query_groups


def test_width_pruning_plus_distillation_beats_training_from_scratch(tmp_path, toy_config):
    # rank-toy's teacher shape and corpus, a 100-step teacher, 20 retrain
    # steps per arm, the E48 H4 M128 width target, seed 1. Measured eval
    # losses: 2.70 distilled, 3.02 pruned only, 4.72 from scratch, and 3.16
    # pruned by the negated scores.
    seed, loop = 1, dict(seed=1, batch_size=8, seq_len=32)
    path = tmp_path / "corpus.txt"
    path.write_text(synthetic_markov_text(n_docs=120, doc_len=240, seed=seed))
    corpus = ingest_text(str(path), seed=seed)
    teacher, _ = conventional_loop(build_model(toy_config, seed=seed), corpus, 100, **loop)
    report = compute_importance_report(
        teacher, sample_calibration(corpus, 16, 32, seed), include_ppl=False, include_bi=False
    )
    target = toy_config.with_(
        d_model=48, num_heads=4, d_hidden=128,
        num_query_groups=resolve_query_groups(toy_config.num_query_groups, 4),
    )
    eval_tokens = sample_calibration(corpus, 16, 32, seed, split="val")

    inverted = replace(report, head_scores=-report.head_scores,
                       neuron_scores=-report.neuron_scores, emb_scores=-report.emb_scores)
    worst_kept = lm_loss(apply_candidate(teacher, target, inverted), eval_tokens).item()
    pruned = apply_candidate(teacher, target, report)
    pruned_only = lm_loss(pruned, eval_tokens).item()
    distilled, _ = distill_loop(teacher, pruned, corpus, DistillConfig(), 20, **loop)
    scratch, _ = conventional_loop(build_model(target, seed=seed), corpus, 20, **loop)

    losses = (lm_loss(distilled, eval_tokens).item(), pruned_only,
              lm_loss(scratch, eval_tokens).item())
    assert losses[0] < losses[1] < losses[2], losses
    assert losses[1] < worst_kept, (losses[1], worst_kept)
