import numpy as np
import pytest

from trimformer.errors import ConfigError, PruneError
from trimformer.importance import ImportanceReport, compute_importance_report
from trimformer.model import ModelConfig, _layer_param_shapes, build_model, count_params, forward
from trimformer.pruning import (
    apply_candidate,
    merge_pairs,
    resolve_query_groups,
)


def small_config(**kw):
    base = dict(
        num_layers=2, d_model=16, num_heads=4, num_query_groups=2, d_head=4,
        d_hidden=32, vocab_size=19, max_seq_len=16,
    )
    base.update(kw)
    return ModelConfig(**base)


def report_for(model, seed=0, n=4, s=8):
    calib = np.random.default_rng(seed).integers(0, model.config.vocab_size, size=(n, s))
    deep = model.config.num_layers >= 2
    return compute_importance_report(model, calib, include_ppl=deep, include_bi=deep)


def assert_bit_identical(a, b):
    assert a.config == b.config
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def remove_layers(model, layers):
    """``model`` without the blocks ``layers``, pruned through
    :func:`apply_candidate` with an explicit list."""
    target = model.config.with_(num_layers=model.config.num_layers - len(set(layers)))
    return apply_candidate(model, target, None, layers_to_remove=layers)


def assert_blocks_from(pruned, source, kept):
    """Every tensor of ``pruned`` is the source's, block ``i`` being source
    block ``kept[i]``."""
    assert list(pruned.params) == [name for name, _ in _layer_param_shapes(pruned.config)]
    for name, p in pruned.params.items():
        if name.startswith("layers."):
            _, i, local = name.split(".", 2)
            name_in_source = f"layers.{kept[int(i)]}.{local}"
        else:
            name_in_source = name
        assert np.array_equal(p.data, source.params[name_in_source].data), name


# ---------------------------------------------------------------- identity


@pytest.mark.parametrize("num_layers", [0, 2])
def test_prune_to_self_is_bit_identity(num_layers):
    m = build_model(small_config(num_layers=num_layers), seed=0)
    pruned = apply_candidate(m, m.config, None)
    assert_bit_identical(m, pruned)
    # With merge requested the no-op path must still be the identity.
    rep = report_for(m)
    pruned2 = apply_candidate(m, m.config, rep, merge_heads=True)
    assert_bit_identical(m, pruned2)


def test_apply_candidate_identity():
    m = build_model(small_config(), seed=1)
    out = apply_candidate(m, m.config, None)
    assert_bit_identical(m, out)


# ---------------------------------------------------------------- dead units


def test_dead_neurons_prune_exactly():
    m = build_model(small_config(), seed=2, dtype=np.float64)
    dead = [3, 8, 20]
    for layer in range(2):
        m.params[f"layers.{layer}.mlp.w1"].data[dead] = 0.0
    rep = report_for(m)
    target = m.config.with_(d_hidden=29)
    pruned = apply_candidate(m, target, rep)
    toks = np.random.default_rng(3).integers(0, 19, size=(2, 8))
    base, _ = forward(m, toks)
    after, _ = forward(pruned, toks)
    assert np.abs(base.data - after.data).max() <= 1e-9


def test_dead_heads_prune_exactly():
    m = build_model(small_config(), seed=4, dtype=np.float64)
    dh = m.config.d_head
    # one head per group dead: value slices zeroed through wv rows use
    # per-group slices, so zero the head's query instead of the shared value;
    # a zero attention output needs the value path, so zero wo rows per head.
    for layer in range(2):
        wo = m.params[f"layers.{layer}.attn.wo"].data
        wo[1 * dh : 2 * dh] = 0.0  # head 1 (group 0)
        wo[3 * dh : 4 * dh] = 0.0  # head 3 (group 1)
    rep = report_for(m)
    # force the dead heads to rank last inside their groups
    rep.head_scores[:, 1] = 0.0
    rep.head_scores[:, 3] = 0.0
    target = m.config.with_(num_heads=2)
    pruned = apply_candidate(m, target, rep)
    toks = np.random.default_rng(5).integers(0, 19, size=(2, 8))
    base, _ = forward(m, toks)
    after, _ = forward(pruned, toks)
    assert np.abs(base.data - after.data).max() <= 1e-9


def test_dead_embedding_channels_prune_exactly():
    # Norm statistics divide by the channel count, so removing even an
    # all-zero channel perturbs every other channel unless the scales are
    # zero. Affine-only norms (gamma == 0) nullify the statistics and make
    # channel removal exact; this is precisely why real embedding pruning
    # needs retraining afterwards.
    m = build_model(small_config(), seed=6, dtype=np.float64)
    dead = [2, 9]
    for name, p in m.params.items():
        if name.endswith("gamma"):
            p.data[:] = 0.0
        if name.endswith("beta"):
            p.data[:] = np.random.default_rng(7).normal(size=p.data.shape)
            p.data[dead] = 0.0
    m.params["embedding"].data[:, dead] = 0.0
    for layer in range(2):
        m.params[f"layers.{layer}.attn.wo"].data[:, dead] = 0.0
        m.params[f"layers.{layer}.mlp.w2"].data[:, dead] = 0.0
    rep = report_for(m)
    assert rep.emb_scores[dead[0]] == 0.0 and rep.emb_scores[dead[1]] == 0.0
    target = m.config.with_(d_model=14)
    pruned = apply_candidate(m, target, rep)
    toks = np.random.default_rng(8).integers(0, 19, size=(2, 8))
    base, _ = forward(m, toks)
    after, _ = forward(pruned, toks)
    assert np.abs(base.data - after.data).max() <= 1e-9


def test_removing_passthrough_layer_is_bit_exact():
    m = build_model(small_config(num_layers=3), seed=9)
    m.params["layers.1.attn.wo"].data[:] = 0
    m.params["layers.1.mlp.w2"].data[:] = 0
    toks = np.random.default_rng(10).integers(0, 19, size=(2, 8))
    base, _ = forward(m, toks)
    after, _ = forward(remove_layers(m, [1]), toks)
    assert np.array_equal(base.data, after.data)


# ---------------------------------------------------------------- slicing oracle


def test_prune_width_matches_independent_slicing():
    m = build_model(small_config(), seed=11)
    rep = report_for(m)
    target = small_config(d_model=10, num_heads=2, d_hidden=20)
    pruned = apply_candidate(m, target, rep)

    # Independent selection: top-k per axis, original order preserved.
    def top(scores, k):
        return np.sort(np.argsort(-scores, kind="stable")[:k])

    kept_emb = top(rep.emb_scores, 10)
    for layer in range(2):
        per_group = 4 // 2
        kept_heads = []
        for g in range(2):
            member = rep.head_scores[layer][g * per_group : (g + 1) * per_group]
            kept_heads.extend(g * per_group + i for i in top(member, 1))
        kept_neurons = top(rep.neuron_scores[layer], 20)
        dh = 4
        rows = np.concatenate([np.arange(h * dh, (h + 1) * dh) for h in kept_heads])
        p = f"layers.{layer}."
        want_wq = m.params[p + "attn.wq"].data[rows][:, kept_emb]
        assert np.array_equal(pruned.params[p + "attn.wq"].data, want_wq)
        want_w1 = m.params[p + "mlp.w1"].data[kept_neurons][:, kept_emb]
        assert np.array_equal(pruned.params[p + "mlp.w1"].data, want_w1)
        want_wo = m.params[p + "attn.wo"].data[rows][:, kept_emb]
        assert np.array_equal(pruned.params[p + "attn.wo"].data, want_wo)
    assert np.array_equal(
        pruned.params["embedding"].data, m.params["embedding"].data[:, kept_emb]
    )
    assert np.array_equal(
        pruned.params["final_ln.gamma"].data, m.params["final_ln.gamma"].data[kept_emb]
    )


def test_pruned_count_matches_target_config():
    m = build_model(small_config(), seed=12)
    rep = report_for(m)
    target = small_config(d_model=8, num_heads=2, d_hidden=16)
    pruned = apply_candidate(m, target, rep)
    walked = sum(int(np.prod(p.data.shape)) for p in pruned.params.values())
    assert walked == count_params(target).total


# ---------------------------------------------------------------- errors


def test_prune_width_validation_errors():
    m = build_model(small_config(), seed=13)
    with pytest.raises(PruneError):
        apply_candidate(m, small_config(d_model=32), None)  # grows
    with pytest.raises(PruneError):
        apply_candidate(m, small_config(d_model=8), None)  # no rankings
    with pytest.raises(PruneError):
        apply_candidate(m, small_config(d_head=2), None)


def test_incomplete_rankings_rejected():
    m = build_model(small_config(), seed=14)
    rep = report_for(m)
    bad = ImportanceReport(
        head_scores=rep.head_scores[:, :2],  # wrong width
        neuron_scores=rep.neuron_scores,
        emb_scores=rep.emb_scores,
        layer_scores_ppl=None,
        layer_scores_bi=None,
        block_bi_scores={},
        agg=rep.agg,
        calibration_checksum=rep.calibration_checksum,
    )
    with pytest.raises(PruneError):
        apply_candidate(m, small_config(num_heads=2), bad)


# ---------------------------------------------------------------- depth


def test_prune_depth_none_is_identity():
    m = build_model(small_config(), seed=15)
    assert_bit_identical(m, remove_layers(m, []))


def test_prune_depth_matches_rebuilt_model():
    m = build_model(small_config(num_layers=4), seed=16)
    pruned = remove_layers(m, [0, 2])
    rebuilt = build_model(small_config(num_layers=2), seed=99)
    surviving = {0: 1, 1: 3}
    for new_i, old_i in surviving.items():
        for name in ("ln1.gamma", "ln1.beta", "attn.wq", "attn.wk", "attn.wv",
                     "attn.wo", "ln2.gamma", "ln2.beta", "mlp.w1", "mlp.w2"):
            rebuilt.params[f"layers.{new_i}.{name}"].data = m.params[
                f"layers.{old_i}.{name}"
            ].data.copy()
    for name in ("embedding", "final_ln.gamma", "final_ln.beta", "lm_head"):
        rebuilt.params[name].data = m.params[name].data.copy()
    toks = np.random.default_rng(17).integers(0, 19, size=(2, 8))
    a, _ = forward(pruned, toks)
    b, _ = forward(rebuilt, toks)
    assert np.array_equal(a.data, b.data)


def test_prune_depth_errors():
    m = build_model(small_config(), seed=18)
    with pytest.raises(PruneError, match="cannot remove every layer"):
        remove_layers(m, [0, 1])
    with pytest.raises(PruneError, match="out of range"):
        remove_layers(m, [5])
    with pytest.raises(PruneError, match="cannot remove every layer"):
        remove_layers(build_model(small_config(num_layers=1), seed=18), [0])


def test_zero_layer_report_prunes_after_a_round_trip(tmp_path):
    # JSON writes a 0-layer report's [0, H] and [0, M] tables as [], which
    # load as [0]; an empty table still covers an axis that has no blocks.
    m = build_model(small_config(num_layers=0), seed=3)
    rep = report_for(m)
    rep.save(str(tmp_path / "report.json"))
    loaded = ImportanceReport.load(str(tmp_path / "report.json"))
    assert loaded.head_scores.shape == (0,) != rep.head_scores.shape
    target = m.config.with_(d_model=8, num_heads=2, d_hidden=16)
    want = apply_candidate(m, target, rep)
    assert want.config == target
    assert_bit_identical(want, apply_candidate(m, target, loaded))


# ---------------------------------------------------------------- merge


def merge_model():
    # one layer, 4 heads, single query group: merge touches only wq
    return build_model(
        small_config(num_layers=1, num_heads=4, num_query_groups=1), seed=19
    )


def test_merge_pairs_formula():
    assert merge_pairs(4, 3) == [(2, 3)]
    assert merge_pairs(4, 2) == [(0, 3), (1, 2)]
    # total 8, kept 6: 1-based i in [5, 6], partners 2K-i+1 in [8, 7]
    assert merge_pairs(8, 6) == [(4, 7), (5, 6)]
    with pytest.raises(PruneError):
        merge_pairs(4, 4)
    with pytest.raises(PruneError):
        merge_pairs(4, 1)  # more than half pruned


def test_merge_four_into_three():
    m = merge_model()
    dh = m.config.d_head
    rep = report_for(m)
    rep.head_scores[0] = np.array([10.0, 9.0, 8.0, 7.0])  # rank == index
    orig = m.params["layers.0.attn.wq"].data.copy()
    target = m.config.with_(num_heads=3)
    pruned = apply_candidate(m, target, rep, merge_heads=True)
    got = pruned.params["layers.0.attn.wq"].data
    assert np.array_equal(got[0:dh], orig[0:dh])
    assert np.array_equal(got[dh : 2 * dh], orig[dh : 2 * dh])
    want_third = 2.0 * orig[2 * dh : 3 * dh] - orig[3 * dh : 4 * dh]
    assert np.allclose(got[2 * dh : 3 * dh], want_third)


def test_merge_with_identical_partner_is_noop():
    m = merge_model()
    dh = m.config.d_head
    wq = m.params["layers.0.attn.wq"].data
    wq[3 * dh : 4 * dh] = wq[2 * dh : 3 * dh]  # pruned partner equals kept head
    rep = report_for(m)
    rep.head_scores[0] = np.array([10.0, 9.0, 8.0, 7.0])
    target = m.config.with_(num_heads=3)
    merged = apply_candidate(m, target, rep, merge_heads=True)
    plain = apply_candidate(m, target, rep)
    assert_bit_identical(merged, plain)


def test_merge_disabled_is_plain_trim():
    m = merge_model()
    rep = report_for(m)
    target = m.config.with_(num_heads=3)
    plain = apply_candidate(m, target, rep)
    dh = m.config.d_head
    kept = np.sort(np.argsort(-rep.head_scores[0], kind="stable")[:3])
    rows = np.concatenate([np.arange(h * dh, (h + 1) * dh) for h in kept])
    assert np.array_equal(
        plain.params["layers.0.attn.wq"].data, m.params["layers.0.attn.wq"].data[rows]
    )


def test_merge_more_than_half_raises():
    m = merge_model()
    rep = report_for(m)
    target = m.config.with_(num_heads=1)
    with pytest.raises(PruneError):
        apply_candidate(m, target, rep, merge_heads=True)


def test_merge_mha_touches_kv_and_output():
    cfg = small_config(num_layers=1, num_heads=4, num_query_groups=4)
    m = build_model(cfg, seed=20)
    dh = cfg.d_head
    rep = report_for(m)
    rep.head_scores[0] = np.array([10.0, 9.0, 8.0, 7.0])
    orig = {n: m.params[f"layers.0.attn.{n}"].data.copy() for n in ("wq", "wk", "wv", "wo")}
    target = cfg.with_(num_heads=3, num_query_groups=3)
    pruned = apply_candidate(m, target, rep, merge_heads=True)
    for n in ("wq", "wk", "wv", "wo"):
        got = pruned.params[f"layers.0.attn.{n}"].data
        want = 2.0 * orig[n][2 * dh : 3 * dh] - orig[n][3 * dh : 4 * dh]
        assert np.allclose(got[2 * dh : 3 * dh], want), n


def test_merge_under_grouped_selection():
    # Group 0 keeps head 0 and group 1 keeps head 3, so the kept set is not
    # the global top-2 (heads 0 and 1). Ranks, kept first: 0, 3 | 1, 2.
    m = build_model(small_config(num_layers=1), seed=28)
    dh = m.config.d_head
    rep = report_for(m)
    rep.head_scores[0] = np.array([10.0, 9.0, 1.0, 2.0])
    wq = m.params["layers.0.attn.wq"].data
    pruned = apply_candidate(m, m.config.with_(num_heads=2), rep, merge_heads=True)
    head = [wq[h * dh : (h + 1) * dh] for h in range(4)]
    want = np.concatenate([2.0 * head[0] - head[2], 2.0 * head[3] - head[1]])
    assert np.array_equal(pruned.params["layers.0.attn.wq"].data, want)
    assert np.array_equal(
        pruned.params["layers.0.attn.wk"].data, m.params["layers.0.attn.wk"].data
    )


# ---------------------------------------------------------------- grouped kv


def test_resolve_query_groups():
    assert resolve_query_groups(8, 24) == 8
    assert resolve_query_groups(8, 12) == 6
    assert resolve_query_groups(4, 3) == 3
    assert resolve_query_groups(2, 7) == 1


def test_group_reduction_prunes_kv():
    m = build_model(small_config(num_layers=1), seed=21)
    rep = report_for(m)
    # make group 1 (heads 2,3) clearly more important
    rep.head_scores[0] = np.array([1.0, 2.0, 10.0, 9.0])
    target = m.config.with_(num_heads=2, num_query_groups=1)
    pruned = apply_candidate(m, target, rep)
    dh = m.config.d_head
    assert np.array_equal(
        pruned.params["layers.0.attn.wk"].data,
        m.params["layers.0.attn.wk"].data[dh : 2 * dh],
    )
    assert np.array_equal(
        pruned.params["layers.0.attn.wq"].data,
        m.params["layers.0.attn.wq"].data[2 * dh : 4 * dh],
    )


# ---------------------------------------------------------------- candidates


def test_apply_candidate_depth_then_width():
    m = build_model(small_config(num_layers=4), seed=22)
    rep = report_for(m)
    candidate = small_config(num_layers=3, d_model=8, num_heads=2, d_hidden=16)
    pruned = apply_candidate(m, candidate, rep)
    assert pruned.config == candidate
    walked = sum(int(np.prod(p.data.shape)) for p in pruned.params.values())
    assert walked == count_params(candidate).total


def test_apply_candidate_depth_and_width_match_independent_slicing():
    m = build_model(small_config(num_layers=4), seed=29)
    rep = report_for(m)
    rep.layer_scores_ppl = np.array([5.0, 1.0, 4.0, 0.5])  # blocks 0 and 2 stay
    # Block 1's head row keeps other heads than block 2's, so a block read
    # from its new index instead of its source index fails.
    rep.head_scores = np.array(
        [[4.0, 3.0, 2.0, 1.0], [2.0, 1.0, 4.0, 3.0], [3.0, 4.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]]
    )
    candidate = small_config(num_layers=2, d_model=10, num_heads=2, d_hidden=20)
    pruned = apply_candidate(m, candidate, rep)

    def top(scores, k):
        return np.sort(np.argsort(-scores, kind="stable")[:k])

    def head_rows(heads):
        return np.concatenate([np.arange(h * 4, (h + 1) * 4) for h in heads])

    kept_emb = top(rep.emb_scores, 10)
    for new_i, old_i in enumerate((0, 2)):
        scores = rep.head_scores[old_i]
        heads = [g * 2 + int(np.argmax(scores[g * 2 : g * 2 + 2])) for g in range(2)]
        neurons = top(rep.neuron_scores[old_i], 20)
        src, dst = f"layers.{old_i}.", f"layers.{new_i}."
        want = {
            "attn.wq": m.params[src + "attn.wq"].data[head_rows(heads)],
            "attn.wk": m.params[src + "attn.wk"].data,
            "attn.wv": m.params[src + "attn.wv"].data,
            "attn.wo": m.params[src + "attn.wo"].data[head_rows(heads)],
            "mlp.w1": m.params[src + "mlp.w1"].data[neurons],
            "mlp.w2": m.params[src + "mlp.w2"].data[neurons],
        }
        for name, rows in want.items():
            assert np.array_equal(pruned.params[dst + name].data, rows[:, kept_emb]), dst + name
        for name in ("ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta"):
            got = pruned.params[dst + name].data
            assert np.array_equal(got, m.params[src + name].data[kept_emb]), dst + name
    for name in ("embedding", "lm_head"):
        assert np.array_equal(pruned.params[name].data, m.params[name].data[:, kept_emb])
    assert list(pruned.params) == [name for name, _ in _layer_param_shapes(candidate)]


def test_depth_scores_must_match_the_model():
    m = build_model(small_config(num_layers=4), seed=30)
    deeper = report_for(build_model(small_config(num_layers=6), seed=30))
    with pytest.raises(PruneError):
        apply_candidate(m, small_config(num_layers=2), deeper)


def test_misspelled_depth_metric_is_rejected():
    m = build_model(small_config(num_layers=4), seed=31)
    rep = report_for(m)
    for metric in ("PPL", "perplexity", ""):
        with pytest.raises(ConfigError):
            apply_candidate(m, small_config(num_layers=3), rep, depth_metric=metric)


def test_apply_candidate_axis_combinations():
    m = build_model(small_config(num_layers=4), seed=23)
    rep = report_for(m)
    depth_only = small_config(num_layers=2)
    width_attn_mlp = small_config(num_layers=4, num_heads=2, d_hidden=16)
    width_all = small_config(num_layers=4, num_heads=2, d_hidden=16, d_model=8)
    for candidate in (depth_only, width_attn_mlp, width_all):
        pruned = apply_candidate(m, candidate, rep)
        assert pruned.config == candidate
        logits, _ = forward(pruned, np.zeros((1, 4), dtype=int))
        assert logits.shape == (1, 4, 19)


def test_apply_candidate_explicit_layers():
    m = build_model(small_config(num_layers=4), seed=24)
    candidate = small_config(num_layers=2)
    pruned = apply_candidate(m, candidate, None, layers_to_remove=[1, 2])
    assert pruned.config == candidate
    assert_blocks_from(pruned, m, [0, 3])
    with pytest.raises(PruneError):
        apply_candidate(m, candidate, None, layers_to_remove=[1])
    with pytest.raises(PruneError):
        apply_candidate(m, candidate, None)  # needs rankings for depth choice


def test_apply_candidate_checks_the_layer_list_at_kept_depth():
    m = build_model(small_config(num_layers=3), seed=24)
    for layers in ([1, 99], [1]):
        with pytest.raises(PruneError):
            apply_candidate(m, m.config, None, layers_to_remove=layers)
    assert_bit_identical(apply_candidate(m, m.config, None, layers_to_remove=[]), m)


def test_apply_candidate_uses_least_important_layers():
    m = build_model(small_config(num_layers=4), seed=25)
    rep = report_for(m)
    rep.layer_scores_ppl = np.array([5.0, 1.0, 4.0, 0.5])
    candidate = small_config(num_layers=2)
    pruned = apply_candidate(m, candidate, rep)
    assert pruned.config == candidate
    assert_blocks_from(pruned, m, [0, 2])


# ---------------------------------------------------------------- permutation


def test_prune_commutes_with_channel_permutation():
    m = build_model(small_config(), seed=26)
    rep = report_for(m)
    perm = np.random.default_rng(27).permutation(m.config.d_model)

    def permute(model):
        out = model.copy()
        for name, p in out.params.items():
            if name.endswith(("gamma", "beta")):
                p.data = p.data[perm]
            else:
                p.data = p.data[:, perm]
        return out

    target = m.config.with_(d_model=10)
    # prune, then permute the *kept* channel positions consistently
    pruned = apply_candidate(m, target, rep)
    permuted = permute(m)
    rep_p = ImportanceReport(
        head_scores=rep.head_scores,
        neuron_scores=rep.neuron_scores,
        emb_scores=rep.emb_scores[perm],
        layer_scores_ppl=None,
        layer_scores_bi=None,
        block_bi_scores={},
        agg=rep.agg,
        calibration_checksum=rep.calibration_checksum,
    )
    pruned_permuted = apply_candidate(permuted, target, rep_p)
    # Both keep the same channel *identities*; order differs by the induced
    # permutation, so compare as sets via sorted channel signatures.
    a = np.sort(pruned.params["embedding"].data, axis=1)
    b = np.sort(pruned_permuted.params["embedding"].data, axis=1)
    assert np.allclose(a, b)
