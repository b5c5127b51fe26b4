import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import _oracles as oracle
from trimformer import autodiff as ad
from trimformer.autodiff import Tape, Tensor
from trimformer.distill import (
    DistillConfig,
    SharedProjection,
    conventional_loop,
    cosine_lr,
    default_layer_map,
    distill_loop,
    intermediate_loss,
    logit_loss,
    softmax_t,
    total_loss,
)
from trimformer.errors import ConfigError, DataError, DivergenceError, ShapeError
from trimformer.model import ModelConfig, build_model, forward
from trimformer.importance import compute_importance_report
from trimformer.pruning import apply_candidate


def small_config(**kw):
    base = dict(
        num_layers=2, d_model=16, num_heads=4, num_query_groups=2, d_head=4,
        d_hidden=32, vocab_size=19, max_seq_len=16,
    )
    base.update(kw)
    return ModelConfig(**base)


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------------- softmax_t


def test_softmax_t_unit_temperature_is_plain_softmax(rng):
    x = rng.normal(size=(3, 7))
    assert np.array_equal(softmax_t(t64(x), 1.0).data, ad.softmax(t64(x)).data)


def test_softmax_t_flattens_with_temperature():
    x = np.array([1.0, 0.0])
    gaps = []
    for tau in (1.0, 4.0, 16.0, 64.0):
        p = softmax_t(x, tau)
        gaps.append(abs(p[0] - 0.5))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01


def test_softmax_t_closed_form():
    p = softmax_t(np.array([2.0, 0.0]), 2.0)
    e = math.e
    assert np.allclose(p, [e / (e + 1), 1 / (e + 1)], atol=1e-12)


def test_softmax_t_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        softmax_t(np.zeros(3), 0.0)
    with pytest.raises(ConfigError):
        DistillConfig(temperature=-1.0)


# ---------------------------------------------------------------- logit loss


@pytest.mark.parametrize("loss_name", ["kld", "rkld", "mse", "cosine"])
def test_logit_loss_zero_when_equal(loss_name, rng):
    logits = rng.normal(size=(2, 3, 9))
    cfg = DistillConfig(logit_loss=loss_name)
    val = logit_loss(logits, t64(logits), cfg).item()
    assert abs(val) < 1e-9


def test_kld_closed_form():
    # teacher (1/2, 1/2), student (1/4, 3/4)
    t = np.log(np.array([[[0.5, 0.5]]]))
    s = np.log(np.array([[[0.25, 0.75]]]))
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    got = logit_loss(t, t64(s), DistillConfig(logit_loss="kld")).item()
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(0.143841, abs=1e-6)


def test_kld_rkld_nonnegative(rng):
    for _ in range(20):
        t = rng.normal(size=(1, 2, 6)) * 3
        s = rng.normal(size=(1, 2, 6)) * 3
        for name in ("kld", "rkld"):
            val = logit_loss(t, t64(s), DistillConfig(logit_loss=name)).item()
            assert val >= -1e-12


def test_top_k_full_vocab_is_exactly_identity(rng):
    t = rng.normal(size=(2, 3, 9))
    s = rng.normal(size=(2, 3, 9))
    a = logit_loss(t, t64(s), DistillConfig(logit_loss="kld")).item()
    b = logit_loss(t, t64(s), DistillConfig(logit_loss="kld", top_k=9)).item()
    assert a == b  # bitwise: the restriction path is skipped entirely


def test_top_k_matches_hand_renormalization():
    t_logits = np.array([[[3.0, 2.0, 0.0, -1.0, -2.0]]])
    s_logits = np.array([[[1.0, 0.5, 2.0, 0.0, -3.0]]])
    got = logit_loss(
        t_logits, t64(s_logits), DistillConfig(logit_loss="kld", top_k=2)
    ).item()
    # teacher's top-2 ids are 0 and 1; renormalize both distributions there
    pt = oracle.naive_softmax(t_logits[0, 0])[:2]
    pt = pt / pt.sum()
    ps = oracle.naive_softmax(s_logits[0, 0])[:2]
    ps = ps / ps.sum()
    want = float((pt * (np.log(pt) - np.log(ps))).sum())
    assert got == pytest.approx(want, rel=1e-9)


def test_logit_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        logit_loss(np.zeros((1, 2, 5)), t64(np.zeros((1, 2, 6))), DistillConfig())


def test_logit_loss_gradient_matches_fd(rng):
    t = rng.normal(size=(2, 3, 7))
    for name in ("kld", "rkld", "mse", "cosine"):
        for top_k in (None, 3):
            cfg = DistillConfig(logit_loss=name, top_k=top_k, temperature=1.7)
            s = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
            with Tape():
                loss = logit_loss(t, s, cfg)
            ad.backward(loss)
            oracle.check_fd(
                lambda: logit_loss(t, s, cfg).item(), {"s": s}, h=1e-5, tol=1e-4
            )


# ---------------------------------------------------------------- intermediate


def capture_all(model, toks):
    sites = {"qkv", "ln1", "ln2"}

    def tap(site, layer, value):
        if site in sites or (site, layer) == ("x", 0):
            return value
        return None

    _, acts = forward(model, toks, tap=tap)
    return acts


def test_intermediate_zero_for_identical_models(rng):
    m = build_model(small_config(), seed=0, dtype=np.float64)
    toks = rng.integers(0, 19, size=(2, 6))
    rec_t = capture_all(m, toks)
    rec_s = capture_all(m, toks)
    proj = SharedProjection(16, 16, dtype=np.float64)
    for loss_fn in ("cosine", "mse"):
        cfg = DistillConfig(
            is_components=("emb", "o", "i", "att"),
            layer_map=((1, 1),),
            is_loss_fn=loss_fn,
        )
        val = intermediate_loss(rec_t, rec_s, proj, cfg, d_head=4).item()
        assert abs(val) < 1e-12


def test_shared_projection_truncated_identity():
    proj = SharedProjection(3, 5)
    assert np.array_equal(proj.matrix.data[:, :3], np.eye(3, dtype=np.float32))
    assert np.array_equal(proj.matrix.data[:, 3:], np.zeros((3, 2), dtype=np.float32))


def test_intermediate_cosine_scale_invariance(rng):
    m = build_model(small_config(), seed=1, dtype=np.float64)
    toks = rng.integers(0, 19, size=(1, 5))
    rec_t = capture_all(m, toks)
    m2 = build_model(small_config(), seed=2, dtype=np.float64)
    rec_s = capture_all(m2, toks)
    proj = SharedProjection(16, 16, dtype=np.float64)
    cfg = DistillConfig(is_components=("o",), layer_map=((0, 0),), is_loss_fn="cosine")
    base = intermediate_loss(rec_t, rec_s, proj, cfg, d_head=4).item()

    scaled_t = capture_all(m, toks)
    scaled_t[("ln1", 1)] = Tensor(scaled_t[("ln1", 1)].data * 7.5)
    scaled_s = capture_all(m2, toks)
    scaled_s[("ln1", 1)] = Tensor(scaled_s[("ln1", 1)].data * 3.25)
    val = intermediate_loss(scaled_t, scaled_s, proj, cfg, d_head=4).item()
    assert val == pytest.approx(base, rel=1e-9)


def test_intermediate_single_pair_matches_recompute(rng):
    teacher = build_model(small_config(), seed=3, dtype=np.float64)
    student = build_model(small_config(d_model=8, d_hidden=16), seed=4, dtype=np.float64)
    toks = rng.integers(0, 19, size=(2, 5))
    rec_t = capture_all(teacher, toks)
    rec_s = capture_all(student, toks)
    proj = SharedProjection(8, 16, dtype=np.float64)
    cfg = DistillConfig(is_components=("o",), layer_map=((0, 0),), is_loss_fn="cosine")
    got = intermediate_loss(rec_t, rec_s, proj, cfg, d_head=4).item()
    # straight-line: the layer-0 output state is the next block's first norm
    t_state = rec_t[("ln1", 1)].data
    s_state = rec_s[("ln1", 1)].data @ proj.matrix.data
    cos = []
    for b in range(2):
        for i in range(5):
            a, c = t_state[b, i], s_state[b, i]
            cos.append(a @ c / (np.linalg.norm(a) * np.linalg.norm(c)))
    assert got == pytest.approx(float(np.mean([1 - v for v in cos])), rel=1e-9)


def test_intermediate_requires_layer_map():
    m = build_model(small_config(), seed=5)
    toks = np.zeros((1, 4), dtype=int)
    rec = capture_all(m, toks)
    proj = SharedProjection(16, 16)
    cfg = DistillConfig(is_components=("o",))
    with pytest.raises(ConfigError):
        intermediate_loss(rec, rec, proj, cfg, d_head=4)


def test_intermediate_layer_map_past_last_block():
    m = build_model(small_config(), seed=5)
    acts = capture_all(m, np.zeros((1, 4), dtype=int))
    proj = SharedProjection(16, 16)
    # Block 1 is the last: its output is the final norm, ("ln1", 2).
    assert intermediate_loss(
        acts, acts, proj, DistillConfig(is_components=("o",), layer_map=((1, 1),)), d_head=4
    ).item() == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(DataError):
        intermediate_loss(
            acts, acts, proj, DistillConfig(is_components=("o",), layer_map=((2, 2),)), d_head=4
        )


def test_intermediate_dimension_mismatch():
    teacher = build_model(small_config(), seed=6)
    student = build_model(small_config(d_model=8), seed=7)
    toks = np.zeros((1, 4), dtype=int)
    rec_t = capture_all(teacher, toks)
    rec_s = capture_all(student, toks)
    wrong = SharedProjection(8, 12)  # teacher is 16 wide
    cfg = DistillConfig(is_components=("emb",))
    with pytest.raises(ShapeError):
        intermediate_loss(rec_t, rec_s, wrong, cfg, d_head=4)


def test_default_layer_map():
    assert default_layer_map(32, 16) == ((29, 13),)
    assert default_layer_map(2, 2) == ((0, 0),)


# ---------------------------------------------------------------- total loss


def make_pair(seed=0, dtype=np.float64):
    teacher = build_model(small_config(), seed=seed, dtype=dtype)
    student = build_model(
        small_config(d_model=8, d_hidden=16, num_heads=2), seed=seed + 1, dtype=dtype
    )
    return teacher, student


def full_cfg(**kw):
    base = dict(
        logit_loss="kld",
        use_clm=True,
        is_components=("emb", "o", "i", "att"),
        layer_map=((1, 1),),
        is_loss_fn="cosine",
        alpha_mode="dynamic",
    )
    base.update(kw)
    return DistillConfig(**base)


def test_total_loss_components_sum(rng):
    teacher, student = make_pair()
    proj = SharedProjection(8, 16, dtype=np.float64)
    batch = rng.integers(0, 19, size=(2, 6))
    loss, comps = total_loss(batch, teacher, student, full_cfg(), proj)
    want = comps["loss_clm"] + comps["loss_logits"] + comps["alpha"] * comps["loss_is"]
    assert loss.item() == pytest.approx(want, rel=1e-12)
    assert abs(comps["alpha_times_is"] - comps["loss_logits"]) <= 1e-9


def test_total_loss_logits_only(rng):
    teacher, student = make_pair(seed=2)
    batch = rng.integers(0, 19, size=(2, 6))
    loss, comps = total_loss(batch, teacher, student, DistillConfig())
    assert comps["loss_clm"] == 0.0 and comps["loss_is"] == 0.0
    assert loss.item() == comps["loss_logits"]


def test_total_loss_constant_alpha(rng):
    teacher, student = make_pair(seed=3)
    proj = SharedProjection(8, 16, dtype=np.float64)
    batch = rng.integers(0, 19, size=(2, 6))
    cfg = full_cfg(alpha_mode="constant", alpha_const=0.37)
    _, comps = total_loss(batch, teacher, student, cfg, proj)
    assert comps["alpha"] == 0.37


def test_total_loss_zero_is_warns_and_zeroes_alpha(rng):
    # identical models with mse state loss: L_is is exactly zero
    m = build_model(small_config(), seed=4, dtype=np.float64)
    batch = rng.integers(0, 19, size=(1, 5))
    proj = SharedProjection(16, 16, dtype=np.float64)
    cfg = full_cfg(is_loss_fn="mse", is_components=("i",), use_clm=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, comps = total_loss(batch, m, m, cfg, proj)
    assert comps["loss_is"] == 0.0 and comps["alpha"] == 0.0
    assert any("alpha" in str(w.message) for w in caught)


def test_total_loss_gradient_matches_fd(rng):
    # Every student parameter plus the shared projection, all loss terms on,
    # alpha pinned to its step value exactly as the training update does.
    teacher, student = make_pair(seed=5)
    proj = SharedProjection(8, 16, dtype=np.float64)
    batch = rng.integers(0, 19, size=(1, 5))
    _, comps = total_loss(batch, teacher, student, full_cfg(), proj)
    alpha0 = comps["alpha"]

    def compute():
        loss, _ = total_loss(
            batch, teacher, student, full_cfg(), proj, alpha_override=alpha0
        )
        return loss

    with Tape():
        loss = compute()
    ad.backward(loss)
    params = dict(student.trainable())
    params["projection"] = proj.matrix
    oracle.check_fd(lambda: compute().item(), params, h=1e-5, tol=1e-4)


# ---------------------------------------------------------------- schedules


def test_cosine_lr_bounds_and_endpoints():
    lrs = [cosine_lr(s, 100, 1e-3, 1e-5) for s in range(100)]
    assert lrs[0] == 1e-3 and lrs[-1] == pytest.approx(1e-5, rel=1e-9)
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert all(1e-5 - 1e-12 <= lr <= 1e-3 + 1e-12 for lr in lrs)


# ---------------------------------------------------------------- loops


def test_zero_steps_leaves_student_unchanged(corpus):
    teacher, student = make_pair(seed=6, dtype=np.float32)
    before = {k: v.data.copy() for k, v in student.params.items()}
    student, metrics = distill_loop(teacher, student, corpus, DistillConfig(), steps=0)
    assert metrics == []
    for k in before:
        assert np.array_equal(student.params[k].data, before[k])


def test_self_distillation_is_a_fixed_point(corpus):
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=7)
    student = teacher.copy()
    student, metrics = distill_loop(
        teacher, student, corpus, DistillConfig(), steps=5, lr_max=1e-4, lr_min=1e-4
    )
    for m in metrics:
        assert m["loss_logits"] == 0.0
    for k in teacher.params:
        assert np.array_equal(student.params[k].data, teacher.params[k].data)


def test_teacher_untouched_by_distillation(corpus, toy_teacher, calib):
    snapshot = {k: v.data.copy() for k, v in toy_teacher.params.items()}
    report = compute_importance_report(toy_teacher, calib, include_ppl=False, include_bi=False)
    target = toy_teacher.config.with_(d_model=32, d_hidden=128, num_heads=4)
    student = apply_candidate(toy_teacher, target, report)
    distill_loop(toy_teacher, student, corpus, DistillConfig(), steps=10)
    for k in snapshot:
        assert np.array_equal(toy_teacher.params[k].data, snapshot[k])


def test_conventional_loss_decreases(corpus):
    model = build_model(small_config(vocab_size=257, max_seq_len=64), seed=8)
    model, metrics = conventional_loop(model, corpus, steps=200, seed=0)
    first = np.mean([m["loss_total"] for m in metrics[:10]])
    last = np.mean([m["loss_total"] for m in metrics[-10:]])
    assert last < first * 0.8


def test_training_steps_free_their_graphs_without_gc(corpus, toy_config):
    """A consumed tape leaves no reference cycles behind, so the graph of
    every step is freed at once even with the cycle collector off."""
    corpus.split_ids("train")  # cached before tracing

    def live_bytes_after(steps):
        model = build_model(toy_config, seed=0)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            model = conventional_loop(model, corpus, steps=steps, seed=0)[0]
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()

    # One toy step's graph is about 20 MB; the slack covers interpreter
    # free lists, which differ by a few KB between identical runs.
    assert live_bytes_after(10) <= live_bytes_after(2) + 64 * 1024


def test_conventional_equals_distill_with_clm_only(corpus):
    a = build_model(small_config(vocab_size=257, max_seq_len=64), seed=9)
    b = build_model(small_config(vocab_size=257, max_seq_len=64), seed=9)
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=10)
    a, ma = conventional_loop(a, corpus, steps=8, seed=1)
    cfg = DistillConfig(logit_loss=None, use_clm=True)
    b, mb = distill_loop(teacher, b, corpus, cfg, steps=8, seed=1)
    assert ma == mb
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)


def test_metrics_bit_identical_across_runs(corpus):
    runs = []
    for _ in range(2):
        teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=11)
        student = build_model(
            small_config(vocab_size=257, max_seq_len=64, d_model=8, d_hidden=16, num_heads=2), seed=12
        )
        _, metrics = distill_loop(teacher, student, corpus, DistillConfig(), steps=6, seed=4)
        runs.append(metrics)
    assert runs[0] == runs[1]


def test_dynamic_alpha_equality_logged_every_step(corpus):
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=13)
    student = build_model(
        small_config(vocab_size=257, max_seq_len=64, d_model=8, d_hidden=16, num_heads=2), seed=14
    )
    cfg = DistillConfig(
        is_components=("emb", "o"), layer_map=default_layer_map(2, 2)
    )
    _, metrics = distill_loop(teacher, student, corpus, cfg, steps=6, seed=5)
    for m in metrics:
        assert abs(m["alpha_times_is"] - m["loss_logits"]) <= 1e-9 * max(
            1.0, abs(m["loss_logits"])
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_state_dump(corpus):
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=15)
    student = build_model(small_config(vocab_size=257, max_seq_len=64), seed=16)
    student.params["lm_head"].data[:] = 1e38  # logits overflow on the first step
    with pytest.raises(DivergenceError) as err:
        distill_loop(teacher, student, corpus, DistillConfig(), steps=3)
    assert err.value.state_dump.get("step") == 0


def test_config_roundtrips_and_validates():
    cfg = full_cfg(top_k=5)
    assert DistillConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        DistillConfig(logit_loss="huber")
    with pytest.raises(ConfigError):
        DistillConfig(is_components=("bogus",))
    with pytest.raises(ConfigError):
        DistillConfig(logit_loss=None, use_clm=False)
