import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracle
from trimformer import autodiff as ad
from trimformer import importance
from trimformer.errors import ConfigError, DataError, PruneError
from trimformer.importance import (
    AggregationSpec,
    ImportanceReport,
    _apply_agg,
    _cosine_rows,
    compute_importance_report,
)
from trimformer.model import ModelConfig, build_model, forward, lm_loss
from trimformer.pruning import apply_candidate

AGGS = ("mean_abs", "l2", "variance")


def small_model(seed=0, dtype=np.float64, **kw):
    base = dict(
        num_layers=2, d_model=16, num_heads=4, num_query_groups=2, d_head=4,
        d_hidden=32, vocab_size=19, max_seq_len=16,
    )
    base.update(kw)
    return build_model(ModelConfig(**base), seed=seed, dtype=dtype)


def toks(n, s, v=19, seed=0):
    return np.random.default_rng(seed).integers(0, v, size=(n, s))


def report(m, calib, spec=None, include_bi=False, blocks=None):
    """The importance report without the perplexity sweep, and without BI
    unless asked."""
    return compute_importance_report(
        m, calib, spec, include_ppl=False, include_bi=include_bi, blocks=blocks
    )


# ---------------------------------------------------------------- aggregate


def aggregate(scores, spec):
    """The two reductions :func:`compute_importance_report` makes of one
    channel's per-token scores ``[batch, seq]``: ``spec.seq_fn`` over the
    sequence of each sample, then ``spec.batch_fn`` over the samples."""
    per_sample = _apply_agg(spec.seq_fn, np.asarray(scores, dtype=np.float64), axis=1)
    return float(_apply_agg(spec.batch_fn, per_sample, axis=0))


def test_aggregate_hand_computed_sequence():
    row = np.array([[1.0, -2.0, 2.0]])
    # batch axis has one row; mean_abs over one value is the identity.
    assert aggregate(row, AggregationSpec("mean_abs", "mean_abs")) == pytest.approx(5 / 3)
    assert aggregate(row, AggregationSpec("mean_abs", "l2")) == pytest.approx(3.0)
    assert aggregate(row, AggregationSpec("mean_abs", "variance")) == pytest.approx(26 / 9)


def test_aggregate_zeros_and_constant():
    zeros = np.zeros((3, 5))
    const = np.full((2, 6), 1.25)
    for batch_fn in AGGS:
        for seq_fn in AGGS:
            spec = AggregationSpec(batch_fn, seq_fn)
            assert aggregate(zeros, spec) == 0.0
            if seq_fn == "variance":
                assert aggregate(const, spec) == pytest.approx(0.0)


def test_aggregate_alias_names():
    spec = AggregationSpec("l2", "mean")
    assert spec.seq_fn == "mean_abs"
    assert AggregationSpec("var", "var").batch_fn == "variance"
    with pytest.raises(ConfigError):
        AggregationSpec("l3", "mean")


def test_aggregate_empty():
    # An empty calibration set leaves nothing to aggregate.
    with pytest.raises(DataError):
        compute_importance_report(small_model(), np.zeros((0, 6), int))


@given(
    batch_fn=st.sampled_from(AGGS),
    seq_fn=st.sampled_from(AGGS),
    b=st.integers(1, 4),
    s=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_aggregate_matches_formula_oracle(batch_fn, seq_fn, b, s, seed):
    scores = np.random.default_rng(seed).normal(size=(b, s)) * 3
    got = aggregate(scores, AggregationSpec(batch_fn, seq_fn))
    want = oracle.aggregate_oracle(scores, batch_fn, seq_fn)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_aggregate_nonnegative_and_duplication(rng):
    scores = rng.normal(size=(4, 6))
    doubled = np.concatenate([scores, scores])
    for batch_fn in AGGS:
        for seq_fn in AGGS:
            spec = AggregationSpec(batch_fn, seq_fn)
            val = aggregate(scores, spec)
            assert val >= 0
            dup = aggregate(doubled, spec)
            if batch_fn == "l2":
                assert dup == pytest.approx(np.sqrt(2) * val)
            else:
                assert dup == pytest.approx(val)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", AGGS)
@pytest.mark.parametrize("shape,axes,axis", [
    ((4, 9, 6), (0, 1, 2), 1), ((4, 9, 6), (0, 2, 1), 1), ((3, 64, 200), (0, 1, 2), 1),
    ((2, 7, 5, 3), (0, 2, 1, 3), 1), ((33, 17), (0, 1), 0), ((17, 33), (1, 0), 0),
])
def test_aggregate_equals_the_float64_copy_bytes(shape, axes, axis, name, dtype):
    # Contiguous and transposed (head-major) views, reduced over a middle
    # and a leading axis, with float64 accumulation from the source dtype.
    values = np.random.default_rng(1).normal(size=shape).astype(dtype).transpose(axes)
    got = _apply_agg(name, values, axis)
    assert got.dtype == np.float64
    assert got.tobytes() == oracle.float64_copy_aggregate(name, values, axis).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch_fn,seq_fn", [("l2", "mean_abs"), ("mean_abs", "variance"),
                                             ("variance", "l2")])
def test_report_width_scores_equal_the_float64_copy_bytes(batch_fn, seq_fn, dtype):
    # Every tap-reduced report field, against the taps' float64-copy
    # formulation on the same activations (one chunk, so one forward).
    m = small_model(seed=2, dtype=dtype, d_model=24, d_head=8, d_hidden=48, max_seq_len=32)
    calib = toks(12, 32, seed=3)
    got = report(m, calib, AggregationSpec(batch_fn, seq_fn))
    _, acts = forward(m, calib, tap=lambda site, layer, value: value.data
                      if site in ("attn", "mlp_pre", "ln1", "ln2") else None)
    want = oracle.float64_copy_width_scores(acts, seq_fn, batch_fn)
    layers = range(m.config.num_layers)
    emb = np.zeros(m.config.d_model)
    for key in [k for i in layers for k in (("ln1", i), ("ln2", i))] + [("ln1", len(layers))]:
        emb += want[key]
    for field, value in (
        ("head_scores", np.stack([want[("attn", i)] for i in layers])),
        ("neuron_scores", np.stack([want[("mlp_pre", i)] for i in layers])),
        ("emb_scores", emb),
    ):
        assert getattr(got, field).tobytes() == value.tobytes(), field


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("include_bi", [False, True])
def test_zero_layer_report_keeps_its_shapes_and_scores_the_final_norm(include_bi, dtype):
    # With no blocks the per-layer fields are empty [0, width] tables, and
    # the final norm is the one embedding site.
    m = small_model(num_layers=0, dtype=dtype)
    calib = toks(3, 8)
    spec = AggregationSpec("l2", "mean_abs")
    got = report(m, calib, spec, include_bi=include_bi)
    assert got.head_scores.shape == (0, m.config.num_heads)
    assert got.neuron_scores.shape == (0, m.config.d_hidden)
    _, acts = forward(m, calib, tap=lambda site, layer, value: value.data
                      if site == "ln1" else None)
    want = oracle.float64_copy_width_scores(acts, spec.seq_fn, spec.batch_fn)[("ln1", 0)]
    assert got.emb_scores.dtype == np.float64
    assert got.emb_scores.tobytes() == want.tobytes()
    assert got.layer_scores_ppl is None
    if include_bi:
        assert got.layer_scores_bi.shape == (0,)
    else:
        assert got.layer_scores_bi is None


# ---------------------------------------------------------------- width axes


def test_dead_head_scores_zero_and_ranks_last():
    m = small_model()
    dh = m.config.d_head
    # Zero the value projection feeding head 1 (group 0 serves heads 0-1).
    m.params["layers.0.attn.wv"].data[0:dh] = 0.0
    scores = report(m, toks(4, 8), AggregationSpec()).head_scores
    assert scores[0, 0] == 0.0 and scores[0, 1] == 0.0
    report_rank = np.argsort(-scores[0], kind="stable")
    assert set(report_rank[-2:]) == {0, 1}


def test_duplicated_heads_score_identically():
    m = small_model()
    dh = m.config.d_head
    wq = m.params["layers.0.attn.wq"].data
    wq[dh : 2 * dh] = wq[0:dh]  # heads 0 and 1 share group 0's k/v
    scores = report(m, toks(4, 8), AggregationSpec()).head_scores
    assert scores[0, 0] == pytest.approx(scores[0, 1], rel=1e-9)


def test_head_importance_vs_straight_line_recompute():
    m = small_model(num_layers=1)
    calib = toks(3, 6)
    spec = AggregationSpec("l2", "mean_abs")
    scores = report(m, calib, spec).head_scores
    _, trace = oracle.reference_forward(m, calib, return_trace=True)
    per_tok = np.sqrt((trace["attn_head_out"][0] ** 2).sum(axis=-1))  # [B,S,H]
    for h in range(m.config.num_heads):
        want = oracle.aggregate_oracle(per_tok[:, :, h], "l2", "mean_abs")
        assert scores[0, h] == pytest.approx(want, rel=1e-6)


def test_dead_neuron_scores_zero():
    m = small_model()
    m.params["layers.1.mlp.w1"].data[5] = 0.0
    scores = report(m, toks(4, 8), AggregationSpec()).neuron_scores
    assert scores[1, 5] == 0.0
    assert (scores[1, :5] > 0).all()


def test_neuron_score_homogeneity_and_rank_shift():
    m = small_model()
    calib = toks(4, 8)
    for spec in (AggregationSpec("l2", "l2"), AggregationSpec("mean_abs", "mean_abs")):
        base = report(m, calib, spec).neuron_scores
        scaled = small_model()
        scaled.params["layers.0.mlp.w1"].data[7] *= 3.0
        after = report(scaled, calib, spec).neuron_scores
        assert after[0, 7] == pytest.approx(3.0 * base[0, 7], rel=1e-6)
        others = [i for i in range(scaled.config.d_hidden) if i != 7]
        assert np.allclose(after[0, others], base[0, others], rtol=1e-9)
        assert np.sum(after[0] > after[0, 7]) <= np.sum(base[0] > base[0, 7])


def test_neuron_importance_vs_straight_line_recompute():
    m = small_model(num_layers=1)
    calib = toks(2, 5)
    spec = AggregationSpec("variance", "l2")
    scores = report(m, calib, spec).neuron_scores
    _, trace = oracle.reference_forward(m, calib, return_trace=True)
    pre = trace["mlp_pre"][0]
    for i in (0, 9, 31):
        want = oracle.aggregate_oracle(pre[:, :, i], "variance", "l2")
        assert scores[0, i] == pytest.approx(want, rel=1e-6)


def test_dead_embedding_channel_scores_zero():
    m = small_model()
    ch = 3
    for name, p in m.params.items():
        if name.endswith("gamma") or name.endswith("beta"):
            p.data[ch] = 0.0
    scores = report(m, toks(4, 8), AggregationSpec()).emb_scores
    assert scores[ch] == 0.0
    assert (np.delete(scores, ch) > 0).all()


def test_emb_importance_vs_straight_line_recompute():
    m = small_model(num_layers=1)
    calib = toks(2, 5)
    spec = AggregationSpec("l2", "mean_abs")
    scores = report(m, calib, spec).emb_scores
    _, trace = oracle.reference_forward(m, calib, return_trace=True)
    for ch in (0, 7, 15):
        want = 0.0
        for site in (trace["ln1"][0], trace["ln2"][0], trace["final_ln"]):
            want += oracle.aggregate_oracle(site[:, :, ch], "l2", "mean_abs")
        assert scores[ch] == pytest.approx(want, rel=1e-6)


def _permute_embedding_channels(model, perm):
    out = model.copy()
    for name, p in out.params.items():
        if name.endswith(("gamma", "beta")):
            p.data = p.data[perm]
        elif name in ("embedding", "lm_head"):
            p.data = p.data[:, perm]
        else:
            p.data = p.data[:, perm]  # all projections face d_model on axis 1
    return out


def test_emb_scores_permutation_equivariant():
    m = small_model()
    calib = toks(4, 8)
    perm = np.random.default_rng(2).permutation(m.config.d_model)
    permuted = _permute_embedding_channels(m, perm)
    base = report(m, calib, AggregationSpec()).emb_scores
    moved = report(permuted, calib, AggregationSpec()).emb_scores
    assert np.allclose(moved, base[perm], rtol=1e-9)
    assert np.array_equal(np.argsort(-moved, kind="stable"), _inverse_rank(base, perm))


def _inverse_rank(base, perm):
    # ranking of permuted scores = positions in perm of the base ranking
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv[np.argsort(-base, kind="stable")]


def test_head_scores_permutation_equivariant_within_group():
    m = small_model()
    calib = toks(4, 8)
    dh = m.config.d_head
    base = report(m, calib, AggregationSpec()).head_scores
    swapped = m.copy()
    wq = swapped.params["layers.0.attn.wq"].data
    wo = swapped.params["layers.0.attn.wo"].data
    # swap heads 0 and 1 (same group): q rows and output-projection rows
    wq[[*range(0, dh), *range(dh, 2 * dh)]] = wq[[*range(dh, 2 * dh), *range(0, dh)]]
    wo[[*range(0, dh), *range(dh, 2 * dh)]] = wo[[*range(dh, 2 * dh), *range(0, dh)]]
    after = report(swapped, calib, AggregationSpec()).head_scores
    assert after[0, 0] == pytest.approx(base[0, 1], rel=1e-9)
    assert after[0, 1] == pytest.approx(base[0, 0], rel=1e-9)


# ---------------------------------------------------------------- depth


def ppl_scores(m, calib, include_bi=False):
    """The report's perplexity sweep, without BI unless asked."""
    return compute_importance_report(m, calib, include_bi=include_bi).layer_scores_ppl


def _assert_ppl_scores_match_remove_and_eval(dtype, n, sweep=ppl_scores):
    # The depth-pruned model evaluated chunk by chunk, each 32-sample chunk's
    # mean NLL weighted by its share of the samples as the sweep does; one
    # chunk gets weight 1.0, so there this is the whole-set lm_loss.
    m = small_model(num_layers=3, dtype=dtype)
    calib = toks(n, 8)
    scores = sweep(m, calib)
    for i in range(3):
        removed = apply_candidate(m, m.config.with_(num_layers=2), None, layers_to_remove=[i])
        nll = 0.0
        for start in range(0, n, 32):
            chunk = calib[start : start + 32]
            nll += len(chunk) / n * lm_loss(removed, chunk).item()
        assert scores[i] == math.exp(nll)


def test_ppl_importance_matches_remove_and_eval_loop():
    _assert_ppl_scores_match_remove_and_eval(np.float64, 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [4, 33, 70])  # one chunk; two; three, the last partial
def test_ppl_importance_matches_remove_and_eval_loop_per_dtype_and_size(dtype, n):
    def sweep(m, calib):  # every axis, block BI included
        return compute_importance_report(m, calib, blocks=[(0, 2)]).layer_scores_ppl

    _assert_ppl_scores_match_remove_and_eval(dtype, n, sweep)


@pytest.mark.parametrize("include_bi", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [4, 33, 70])
def test_report_ppl_scores_match_remove_and_eval_loop(dtype, n, include_bi):
    def sweep(m, calib):
        return ppl_scores(m, calib, include_bi=include_bi)

    _assert_ppl_scores_match_remove_and_eval(dtype, n, sweep)


@pytest.mark.parametrize("copies", [2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ppl_of_repeated_chunks_equals_one_chunk(copies, dtype):
    # Each copy's NLL is weighted 1/copies, exactly, and sums back to the
    # one-chunk NLL.
    m = small_model(num_layers=3, dtype=dtype)
    chunk = toks(32, 8)
    want = ppl_scores(m, chunk)
    assert np.array_equal(ppl_scores(m, np.concatenate([chunk] * copies)), want)


def test_report_forwards_at_most_one_chunk(monkeypatch):
    # Every forward, plain or resumed, sees one chunk of at most 32 samples,
    # so the pass holds no buffer that grows with the calibration set.
    sizes = []
    real = importance.forward

    def recording(model, tokens, **kw):
        sizes.append(len(tokens))
        return real(model, tokens, **kw)

    monkeypatch.setattr(importance, "forward", recording)
    compute_importance_report(small_model(num_layers=3), toks(70, 8), blocks=[(0, 2)])
    assert sizes == [32] * 8 + [6] * 4  # 1 + L forwards per chunk


@pytest.mark.parametrize("include_bi", [True, False])
@pytest.mark.parametrize("n, chunks", [(1, 1), (32, 1), (33, 2)])
def test_report_ppl_sweep_block_count(n, chunks, include_bi, monkeypatch):
    # Each chunk runs one forward and resumes the sweep from its block
    # inputs: L + L(L-1)/2 blocks per chunk.
    num_layers = 4
    calls = []
    real = ad.squared_relu_matmul
    monkeypatch.setattr(ad, "squared_relu_matmul", lambda a, w: calls.append(1) or real(a, w))
    compute_importance_report(small_model(num_layers=num_layers), toks(n, 6),
                              include_bi=include_bi)
    assert len(calls) == chunks * (num_layers + num_layers * (num_layers - 1) // 2)


@pytest.mark.parametrize("num_layers", [4, 5])
def test_ppl_sweep_runs_each_prefix_of_blocks_once(num_layers, monkeypatch):
    # Every evaluated block makes one squared_relu_matmul call: the plain pass runs
    # L blocks and the resumed pass without block i runs the L - 1 - i after
    # it, L + L(L-1)/2 in all (L(L-1) when each removal reruns its prefix).
    calls = []
    real = ad.squared_relu_matmul
    monkeypatch.setattr(ad, "squared_relu_matmul", lambda a, w: calls.append(1) or real(a, w))
    ppl_scores(small_model(num_layers=num_layers), toks(2, 6))
    assert len(calls) == num_layers + num_layers * (num_layers - 1) // 2


def test_ppl_importance_exactly_removable_layer(toy_teacher, calib):
    # On a trained model every real layer helps, so the pass-through layer's
    # removal perplexity (= the unpruned perplexity) is strictly minimal.
    m = toy_teacher.copy()
    m.params["layers.1.attn.wo"].data[:] = 0
    m.params["layers.1.mlp.w2"].data[:] = 0
    base_ppl = math.exp(lm_loss(m, calib).item())
    scores = ppl_scores(m, calib)
    assert scores[1] == base_ppl  # removal changes nothing
    others = np.delete(scores, 1)
    assert (others > scores[1]).all()


def test_ppl_importance_single_layer_error(monkeypatch):
    # Raised before any forward runs.
    monkeypatch.setattr(importance, "forward", None)
    with pytest.raises(PruneError):
        ppl_scores(small_model(num_layers=1), toks(2, 6))


def test_ppl_importance_deterministic():
    m = small_model()
    calib = toks(4, 8)
    assert np.array_equal(ppl_scores(m, calib), ppl_scores(m, calib))


def test_bi_identity_block_is_zero():
    m = small_model(num_layers=3)
    m.params["layers.1.attn.wo"].data[:] = 0
    m.params["layers.1.mlp.w2"].data[:] = 0
    scores = report(m, toks(4, 8), include_bi=True).layer_scores_bi
    assert abs(scores[1]) < 1e-9
    assert scores[0] > 1e-4 and scores[2] > 1e-4


def test_cosine_distance_extremes(rng):
    a = rng.normal(size=(5, 8))
    assert np.allclose(1.0 - _cosine_rows(a, a), 0.0, atol=1e-12)
    assert np.allclose(1.0 - _cosine_rows(a, -a), 2.0, atol=1e-12)


def test_block_bi_vs_direct_cosine_oracle():
    m = small_model(num_layers=3)
    calib = toks(3, 6)
    _, trace = oracle.reference_forward(m, calib, return_trace=True)
    for start, length in ((0, 1), (1, 2), (0, 3)):
        got = report(m, calib, blocks=[(start, length)]).block_bi_scores[(start, length)]
        a = trace["block_inputs"][start].reshape(-1, 16)
        b = trace["block_inputs"][start + length].reshape(-1, 16)
        cos = [
            float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
            for x, y in zip(a, b)
        ]
        assert got == pytest.approx(1.0 - np.mean(cos), rel=1e-9)
    assert report(m, calib, include_bi=True).layer_scores_bi[1] == pytest.approx(
        report(m, calib, blocks=[(1, 1)]).block_bi_scores[(1, 1)], rel=1e-12
    )


def test_block_bi_range_errors():
    m = small_model()
    with pytest.raises(PruneError):
        report(m, toks(2, 6), blocks=[(1, 2)])
    with pytest.raises(PruneError):
        report(m, toks(2, 6), blocks=[(-1, 1)])


# ---------------------------------------------------------------- tape guard


def test_importance_under_an_active_tape_records_nothing():
    # The pass hides the caller's tape, as the teacher's forward does: the
    # report is the tape-free one and the tape is left as it was.
    m = small_model()
    calib = toks(2, 6)
    want = compute_importance_report(m, calib, blocks=[(0, 2)]).to_json()
    before = ad.nodes_recorded_total()
    with ad.Tape() as tape:
        got = compute_importance_report(m, calib, blocks=[(0, 2)]).to_json()
        assert ad.active_tape() is tape
    assert got == want
    assert tape.nodes == [] and ad.nodes_recorded_total() == before


def test_importance_records_no_tape_nodes():
    m = small_model()
    calib = toks(2, 6)
    before = ad.nodes_recorded_total()
    compute_importance_report(m, calib)
    assert ad.nodes_recorded_total() == before


# ---------------------------------------------------------------- report io


def test_report_roundtrip(tmp_path):
    m = small_model()
    calib = toks(4, 8)
    report = compute_importance_report(m, calib, blocks=[(0, 2)])
    path = tmp_path / "report.json"
    report.save(str(path))
    loaded = ImportanceReport.load(str(path))
    assert np.array_equal(loaded.head_scores, report.head_scores)
    assert np.array_equal(loaded.neuron_scores, report.neuron_scores)
    assert np.array_equal(loaded.emb_scores, report.emb_scores)
    assert np.array_equal(loaded.layer_scores_ppl, report.layer_scores_ppl)
    assert loaded.block_bi_scores == report.block_bi_scores
    assert loaded.agg == report.agg
    assert loaded.calibration_checksum == report.calibration_checksum


def test_report_stores_no_rankings_and_ignores_stored_ones():
    # Reports written before rankings were dropped carry a "rankings" object.
    text = compute_importance_report(small_model(), toks(4, 8), blocks=[(0, 2)]).to_json()
    d = json.loads(text)
    assert "rankings" not in d
    d["rankings"] = {"heads": [[1, 0, 3, 2]] * 2, "neurons": "unread", "emb": None}
    assert ImportanceReport.from_json(json.dumps(d)).to_json() == text


@pytest.mark.parametrize("bad", ["1.5", True, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", [
    "head_scores", "neuron_scores", "emb_scores", "layer_scores_ppl", "layer_scores_bi",
    "block_bi",
])
def test_report_scores_must_be_finite_numbers(field, bad):
    text = compute_importance_report(small_model(), toks(2, 6), blocks=[(0, 2)]).to_json()
    assert ImportanceReport.from_json(text).to_json() == text
    d = json.loads(text)
    if field == "block_bi":
        d[field][0]["score"] = bad
    elif field in ("head_scores", "neuron_scores"):
        d[field][0][0] = bad
    else:
        d[field][0] = bad
    with pytest.raises(DataError):
        ImportanceReport.from_json(json.dumps(d))


@pytest.mark.parametrize("edit", [
    lambda d: d.update(calibration_checksum=123),
    lambda d: d.update(calibration_checksum=[1, 2]),
    lambda d: d.update(calibration_checksum=d["calibration_checksum"].upper()),
    lambda d: d.update(calibration_checksum=d["calibration_checksum"][:-1]),
    lambda d: d.update(calibration_checksum="g" * 64),
    lambda d: d["block_bi"].append(dict(d["block_bi"][0], score=0.5)),
], ids=["int_checksum", "list_checksum", "uppercase_checksum", "short_checksum",
        "non_hex_checksum", "repeated_block"])
def test_report_checksum_and_block_keys_are_checked(edit):
    # The checksum is a sha256 hex digest; a repeated block_bi (start, length)
    # would silently replace the first.
    text = compute_importance_report(small_model(), toks(2, 6), blocks=[(0, 2)]).to_json()
    assert ImportanceReport.from_json(text).to_json() == text
    d = json.loads(text)
    edit(d)
    with pytest.raises(DataError):
        ImportanceReport.from_json(json.dumps(d))


@pytest.mark.parametrize("key", ["batch_fn", "seq_fn"])
@pytest.mark.parametrize("bad", ["bogus", 5, None])
def test_report_aggregation_must_be_a_known_reduction(key, bad):
    text = compute_importance_report(small_model(), toks(2, 6)).to_json()
    d = json.loads(text)
    d["aggregation"][key] = bad
    with pytest.raises(DataError, match="malformed importance report"):
        ImportanceReport.from_json(json.dumps(d))


def test_report_block_must_end_within_the_report_depth():
    # The report's depth is the extent of head_scores; a block past it is one
    # compute_importance_report refuses to score.
    text = compute_importance_report(small_model(num_layers=3), toks(2, 6),
                                     blocks=[(1, 2)]).to_json()
    assert ImportanceReport.from_json(text).block_bi_scores.keys() == {(1, 2)}
    d = json.loads(text)
    d["block_bi"].append({"start": 7, "length": 5, "score": 0.5})
    with pytest.raises(DataError, match="inside the report's 3 layers"):
        ImportanceReport.from_json(json.dumps(d))


@pytest.mark.parametrize("field", ["neuron_scores", "layer_scores_ppl", "layer_scores_bi"])
def test_report_per_layer_tables_share_one_depth(field):
    text = compute_importance_report(small_model(num_layers=3), toks(2, 6),
                                     include_bi=True).to_json()
    d = json.loads(text)
    d[field] = d[field][:-1]
    with pytest.raises(DataError, match=f"{field} has 2 layers, head_scores 3"):
        ImportanceReport.from_json(json.dumps(d))


def test_report_from_a_list_calibration_set_equals_the_array():
    # The report chunks the calibration set as one token array, whatever
    # its container.
    m = small_model(dtype=np.float32)
    calib = toks(5, 8)
    want = compute_importance_report(m, calib, blocks=[(0, 2)])
    got = compute_importance_report(m, calib.tolist(), blocks=[(0, 2)])
    assert got.to_json() == want.to_json()
