import math
import tracemalloc

import numpy as np
import pytest

import _oracles as oracle
from trimformer import autodiff as ad
from trimformer.errors import ConfigError, DataError
from trimformer.model import (
    ModelConfig,
    build_model,
    count_params,
    forward,
    lm_loss,
)
from trimformer.pruning import apply_candidate

NEMOTRON_15B = ModelConfig(32, 6144, 48, 8, 128, 24576, 256000, max_seq_len=4096)
DERIVED_8B = ModelConfig(32, 4096, 48, 8, 128, 16384, 256000, max_seq_len=4096)
DERIVED_4B = ModelConfig(32, 3072, 24, 8, 128, 9216, 256000, max_seq_len=4096)


def small_config(**kw):
    base = dict(
        num_layers=2, d_model=16, num_heads=4, num_query_groups=2, d_head=4,
        d_hidden=32, vocab_size=19, max_seq_len=16,
    )
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(num_heads=3, num_query_groups=2)
    with pytest.raises(ConfigError):
        small_config(d_model=0)
    with pytest.raises(ConfigError):
        small_config(num_layers=-1)


@pytest.mark.parametrize("d_head", [1, 7])
def test_odd_head_width_is_a_config_error(d_head):
    # Rotary positions rotate channel pairs, so the config itself refuses an
    # odd width, before any model is built or loaded.
    with pytest.raises(ConfigError, match="d_head must be even"):
        small_config(d_head=d_head)


def test_config_roundtrip():
    cfg = small_config()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------- build


def test_build_deterministic(toy_config):
    a = build_model(toy_config, seed=5)
    b = build_model(toy_config, seed=5)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    c = build_model(toy_config, seed=6)
    assert not np.array_equal(a.params["embedding"].data, c.params["embedding"].data)


def test_tied_embeddings_have_no_head():
    m = build_model(small_config(tie_embeddings=True), seed=0)
    assert "lm_head" not in m.params
    logits, _ = forward(m, np.array([[1, 2]]))
    assert logits.shape == (1, 2, 19)


def test_count_params_matches_tensor_walk(toy_config):
    m = build_model(toy_config, seed=0)
    walked = sum(int(np.prod(p.data.shape)) for p in m.params.values())
    emb = int(np.prod(m.params["embedding"].data.shape))
    head = 0 if toy_config.tie_embeddings else int(np.prod(m.params["lm_head"].data.shape))
    counts = count_params(toy_config)
    assert counts.total == walked
    assert counts.non_embedding == walked - emb - head
    zero_layer = small_config(num_layers=0)
    assert count_params(zero_layer).non_embedding == 2 * zero_layer.d_model


@pytest.mark.parametrize(
    "config,total,non_emb",
    [
        (NEMOTRON_15B, 15.6e9, 12.5e9),
        (DERIVED_8B, 8.27e9, 6.2e9),
        (DERIVED_4B, 4.19e9, 2.6e9),
    ],
)
def test_count_params_published_sizes(config, total, non_emb):
    counts = count_params(config)
    assert abs(counts.total - total) / total < 0.01
    assert abs(counts.non_embedding - non_emb) / non_emb < 0.01


# ---------------------------------------------------------------- forward


def test_single_token_logits_shape():
    m = build_model(small_config(), seed=0)
    logits, _ = forward(m, np.array([[7]]))
    assert logits.shape == (1, 1, 19)


def test_forward_errors():
    m = build_model(small_config(max_seq_len=4), seed=0)
    with pytest.raises(DataError):
        forward(m, np.zeros((1, 5), dtype=int))
    with pytest.raises(DataError):
        forward(m, np.array([[25]]))


@pytest.mark.parametrize("groups", [1, 2, 4])
def test_forward_matches_reference(groups):
    cfg = small_config(num_layers=1, num_query_groups=groups)
    m = build_model(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    toks = rng.integers(0, 19, size=(2, 7))
    got, _ = forward(m, toks)
    want = oracle.reference_forward(m, toks)
    assert np.abs(got.data - want).max() < 1e-5


def test_gqa_one_group_per_head_is_mha():
    # num_query_groups == num_heads exercises the no-repeat path against the
    # grouped reference, i.e. plain multi-head attention.
    cfg = small_config(num_layers=1, num_query_groups=4)
    m = build_model(cfg, seed=6, dtype=np.float64)
    toks = np.array([[3, 1, 4, 1, 5]])
    got, _ = forward(m, toks)
    assert np.abs(got.data - oracle.reference_forward(m, toks)).max() < 1e-5


def test_causality():
    m = build_model(small_config(), seed=1)
    rng = np.random.default_rng(5)
    toks = rng.integers(0, 19, size=(1, 8))
    base, _ = forward(m, toks)
    for t in (2, 5):
        changed = toks.copy()
        changed[0, t] = (changed[0, t] + 1) % 19
        new, _ = forward(m, changed)
        assert np.array_equal(new.data[0, :t], base.data[0, :t])
        assert not np.array_equal(new.data[0, t:], base.data[0, t:])


def test_zeroed_layer_is_exactly_removable():
    cfg = small_config(num_layers=3)
    m = build_model(cfg, seed=2)
    m.params["layers.1.attn.wo"].data[:] = 0
    m.params["layers.1.mlp.w2"].data[:] = 0
    toks = np.array([[1, 2, 3, 4, 5, 6]])
    full, _ = forward(m, toks)
    pruned = apply_candidate(m, cfg.with_(num_layers=2), None, layers_to_remove=[1])
    removed, _ = forward(pruned, toks)
    assert np.array_equal(full.data, removed.data)


def keep_all(site, layer, value):
    return value


def test_capture_shapes(toy_config):
    m = build_model(toy_config, seed=0)
    toks = np.zeros((2, 6), dtype=int)
    logits, acts = forward(m, toks, tap=keep_all)
    h, g, dh = toy_config.num_heads, toy_config.num_query_groups, toy_config.d_head
    n = toy_config.num_layers
    assert acts[("attn", 0)].shape == (2, 6, h, dh)
    q, k, v = acts[("qkv", 1)]
    assert q.shape == (2, 6, h, dh) and k.shape == (2, 6, g, dh) == v.shape
    assert acts[("mlp_pre", 2)].shape == (2, 6, toy_config.d_hidden)
    assert acts[("ln1", 3)].shape == (2, 6, toy_config.d_model)
    assert sorted(i for site, i in acts if site == "x") == list(range(n + 1))
    assert acts[("x", 0)].shape == (2, 6, toy_config.d_model)
    final = acts[("ln1", n)]
    assert final.shape == (2, 6, toy_config.d_model)
    # The last ln1 site is the final norm: the logits are read from it.
    assert np.array_equal(final.data @ m.output_head().data.T, logits.data)


def test_capture_site_conventions(toy_config):
    m = build_model(toy_config, seed=1)
    toks = np.arange(12).reshape(2, 6)
    _, acts = forward(m, toks, tap=keep_all)
    n = toy_config.num_layers
    assert np.array_equal(acts[("x", 0)].data, m["embedding"].data[toks])
    assert sorted(i for site, i in acts if site == "ln1") == list(range(n + 1))
    assert sorted(i for site, i in acts if site == "ln2") == list(range(n))


def test_resumed_forward_equals_the_plain_pass(toy_config):
    m = build_model(toy_config, seed=3)
    toks = np.arange(12).reshape(2, 6)
    full, acts = forward(m, toks, tap=keep_all)
    n = toy_config.num_layers
    for i in range(n + 1):
        logits, resumed = forward(m, toks, tap=keep_all, start=(i, acts[("x", i)]))
        assert np.array_equal(logits.data, full.data)
        assert sorted(j for site, j in resumed if site == "x") == list(range(i, n + 1))


def test_forward_without_tap_captures_nothing(toy_config):
    m = build_model(toy_config, seed=0)
    assert forward(m, np.zeros((1, 4), dtype=int))[1] == {}


def test_capture_layer_filter():
    m = build_model(small_config(), seed=0)
    _, acts = forward(
        m, np.zeros((1, 4), dtype=int),
        tap=lambda site, layer, value: value if (site, layer) == ("ln2", 1) else None,
    )
    assert set(acts) == {("ln2", 1)}


def test_capture_only_records_no_gradient_state(toy_config):
    m = build_model(toy_config, seed=0)
    before = ad.nodes_recorded_total()
    _, acts = forward(
        m, np.zeros((1, 4), dtype=int),
        tap=lambda site, layer, value: value if site == "ln1" else None,
    )
    assert acts and ad.nodes_recorded_total() == before


# ---------------------------------------------------------------- loss / ppl


def test_perplexity_near_vocab_at_init(toy_config):
    m = build_model(toy_config, seed=0)
    toks = np.random.default_rng(0).integers(0, 257, size=(4, 24))
    ppl = math.exp(lm_loss(m, toks).item())
    assert abs(ppl - 257) / 257 < 0.2


def test_perplexity_empty_dataset():
    m = build_model(small_config(), seed=0)
    with pytest.raises(DataError):
        lm_loss(m, [])


def test_forced_bigram_model_hits_entropy_exponential():
    # Uniform-over-two-successors bigram: every realized transition has
    # probability 1/2, so perplexity must equal exp(ln 2) = 2 exactly.
    v = 4
    cfg = ModelConfig(0, v, 1, 1, 2, 1, v, max_seq_len=64)
    m = build_model(cfg, seed=0, dtype=np.float64)
    m.params["embedding"].data = np.eye(v)
    # Solve the output head so logits(a) = 40 * allowed_next(a) - 20.
    u = np.zeros((v, v))
    for a in range(v):
        e = np.eye(v)[a]
        u[a] = (e - e.mean()) / np.sqrt(e.var() + 1e-5)
    targets = np.zeros((v, v))
    for a in range(v):
        targets[a, (a + 1) % v] = 40.0
        targets[a, (a + 2) % v] = 40.0
    targets -= 20.0
    head_t, *_ = np.linalg.lstsq(u, targets, rcond=None)
    m.params["lm_head"].data = head_t.T
    logits, _ = forward(m, np.arange(v)[None, :])
    assert np.abs(logits.data[0] - targets).max() < 1e-6

    rng = np.random.default_rng(8)
    seqs = []
    for _ in range(8):
        seq = [int(rng.integers(0, v))]
        for _ in range(31):
            seq.append((seq[-1] + int(rng.choice([1, 2]))) % v)
        seqs.append(seq)
    ppl = math.exp(lm_loss(m, np.array(seqs)).item())
    assert abs(ppl - 2.0) < 1e-6


# ---------------------------------------------------------------- gradients


def test_full_transformer_gradient_vs_finite_differences():
    # Every parameter of a 2-layer model in float64. h=1e-5 keeps the
    # central-difference oracle accurate across the squared-ReLU kink.
    cfg = small_config()
    m = build_model(cfg, seed=1, dtype=np.float64)
    toks = np.random.default_rng(0).integers(0, 19, size=(2, 6))
    with ad.Tape():
        loss = lm_loss(m, toks)
    ad.backward(loss)
    worst = oracle.check_fd(
        lambda: lm_loss(m, toks).item(), m.params, h=1e-5, tol=1e-4
    )
    assert worst < 1e-4


def test_toy_lm_loss_node_count(toy_config):
    # Pins the graph size: one fused attention node and one fused MLP
    # activation-and-product node per block, one linear or matmul node per
    # other weight product and one cross-entropy node on the unsliced logits.
    m = build_model(toy_config, seed=0)
    with ad.Tape() as tape:
        lm_loss(m, np.zeros((2, 8), dtype=int))
    assert len(tape.nodes) == 64


def test_taped_forward_records_no_transpose(toy_config):
    # Attention takes q, k and v per head, [B, S, heads, d_head], and returns
    # that layout; rope views q and k per head itself. The forward's graph
    # holds no transpose, and per block one reshape for v and one for the
    # attention output.
    m = build_model(toy_config, seed=0)
    with ad.Tape() as tape:
        forward(m, np.zeros((2, 8), dtype=int), tap=keep_all)
    ops = [node.fn.__qualname__.split(".")[0] for node in tape.nodes]
    assert ops.count("causal_attention") == ops.count("rope") / 2 == toy_config.num_layers
    assert ops.count("reshape") == 2 * toy_config.num_layers
    assert "transpose" not in ops


def test_tape_keeps_one_hidden_width_array_per_mlp_block():
    # With d_hidden far wider than everything else, the MLP's saved arrays
    # dominate what a taped forward keeps alive: relu(pre), once per block.
    # Everything else (norms, attention, node objects) stays under half of
    # one such array per block here; keeping relu(pre)² as well would double
    # the MLP share.
    cfg = small_config(num_layers=4, num_heads=2, num_query_groups=1, d_head=8,
                       d_hidden=1024, vocab_size=32)
    m = build_model(cfg, seed=0)
    tokens = np.zeros((2, 16), dtype=int)
    lm_loss(m, tokens)  # fills the rotary and mask caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.Tape():
            loss = lm_loss(m, tokens)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    hidden = tokens.size * cfg.d_hidden * m.dtype.itemsize
    assert loss.requires_grad
    assert cfg.num_layers * hidden <= kept < 1.5 * cfg.num_layers * hidden, kept


def test_gqa_forward_caches_one_rope_pair_per_length():
    # Queries (8 heads) and keys (2 groups) rotate by the same tables: one
    # [S, 1, d_head] pair per sequence length, with no head axis.
    m = build_model(small_config(num_heads=8, num_query_groups=2, d_head=8,
                                 max_seq_len=32), seed=0)
    forward(m, np.zeros((2, 12), dtype=int))
    assert list(m._rope_cache) == [12]
    cos, sin = m.rope_tables(12)
    assert cos.shape == sin.shape == (12, 1, 8) and cos.dtype == sin.dtype == m.dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads,groups", [(4, 4), (8, 2)])
def test_rope_on_the_projection_layout_is_bitwise_the_concat_form(dtype, heads, groups):
    # The forward rotates the [B, S, heads·d_head] projection per head with
    # one [S, 1, d_head] pair broadcast over the heads and sin's sign folded
    # in; values and gradients equal the head-major negate-and-concatenate
    # form, because (-a)·b == a·(-b).
    m = build_model(small_config(num_heads=heads, num_query_groups=groups, d_head=8,
                                 max_seq_len=32), seed=0, dtype=dtype)
    rng = np.random.default_rng(5)
    for n in (heads, groups):
        x = ad.Tensor(rng.normal(size=(3, 32, n * 8)).astype(dtype), requires_grad=True)
        g = rng.normal(size=(3, 32, n, 8)).astype(dtype)
        with ad.Tape():
            out = ad.rope(x, *m.rope_tables(32))
            loss = ad.tsum(ad.mul(out, ad.Tensor(g)))  # out's gradient is g exactly
        ad.backward(loss)
        head_major = x.data.reshape(3, 32, n, 8).transpose(0, 2, 1, 3)
        want_out, want_grad = oracle.concat_rope(head_major, g.transpose(0, 2, 1, 3))
        assert out.data.dtype == x.grad.dtype == dtype and x.grad.shape == x.shape
        assert out.data.transpose(0, 2, 1, 3).tobytes() == want_out.tobytes()
        assert x.grad.reshape(3, 32, n, 8).transpose(0, 2, 1, 3).tobytes() == want_grad.tobytes()
