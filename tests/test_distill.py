import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import _oracles as oracle
from trimformer import autodiff as ad
from trimformer import distill
from trimformer.autodiff import Tape, Tensor
from trimformer.data import sample_batch
from trimformer.distill import (
    ADAM_EPS,
    BETA1,
    BETA2,
    CLM_ONLY,
    LOGIT_LOSSES,
    DistillConfig,
    TrainState,
    conventional_loop,
    cosine_lr,
    default_layer_map,
    distill_loop,
    for_depths,
    intermediate_loss,
    logit_loss,
    teacher_targets,
    total_loss,
)
from trimformer.errors import ConfigError, DataError, DivergenceError, ShapeError
from trimformer.model import ModelConfig, build_model, count_params, forward, lm_loss
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


def projection(d_student, d_teacher, dtype=np.float32):
    """The shared projection as :func:`distill_loop` starts it."""
    return Tensor(np.eye(d_student, d_teacher, dtype=dtype), requires_grad=True)


def stand_in_targets(cfg, logits=np.zeros((1, 1, 2)), acts=None):
    """:func:`teacher_targets` of a stand-in teacher whose forward returns
    ``logits`` and the activations ``acts``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distill, "forward", lambda *args, **kw: (Tensor(logits), acts or {}))
        return teacher_targets(None, None, cfg)


# ---------------------------------------------------------------- logit loss


@pytest.mark.parametrize("loss_name", ["kld", "rkld", "mse", "cosine"])
def test_logit_loss_zero_when_equal(loss_name, rng):
    logits = rng.normal(size=(2, 3, 9))
    cfg = DistillConfig(logit_loss=loss_name)
    val = logit_loss(stand_in_targets(cfg, logits), t64(logits), cfg).item()
    assert abs(val) < 1e-9


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("top_k", [None, 4])
@pytest.mark.parametrize("temperature", [1.0, 2.0, 3.0, 0.7])
def test_identical_logits_give_exactly_zero_divergence(dtype, top_k, temperature, rng):
    # Teacher and student log-probabilities come from one kernel, so equal
    # logits give bitwise-equal rows: kld and mse are exactly zero with an
    # exactly-zero gradient, rkld exactly zero.
    logits = (rng.normal(size=(2, 3, 9)) * 3).astype(dtype)
    for name in ("kld", "rkld", "mse"):
        s = Tensor(logits.copy(), requires_grad=True)
        cfg = DistillConfig(logit_loss=name, temperature=temperature, top_k=top_k)
        with Tape():
            loss = logit_loss(stand_in_targets(cfg, logits), s, cfg)
        assert loss.item() == 0.0
        ad.backward(loss)
        if name != "rkld":
            assert not np.any(s.grad)


def test_kld_closed_form():
    # teacher (1/2, 1/2), student (1/4, 3/4)
    t = np.log(np.array([[[0.5, 0.5]]]))
    s = np.log(np.array([[[0.25, 0.75]]]))
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    cfg = DistillConfig(logit_loss="kld")
    got = logit_loss(stand_in_targets(cfg, t), t64(s), cfg).item()
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(0.143841, abs=1e-6)


def test_kld_rkld_nonnegative(rng):
    for _ in range(20):
        t = rng.normal(size=(1, 2, 6)) * 3
        s = rng.normal(size=(1, 2, 6)) * 3
        for name in ("kld", "rkld"):
            cfg = DistillConfig(logit_loss=name)
            val = logit_loss(stand_in_targets(cfg, t), t64(s), cfg).item()
            assert val >= -1e-12


def test_top_k_full_vocab_is_exactly_identity(rng):
    t = rng.normal(size=(2, 3, 9))
    s = rng.normal(size=(2, 3, 9))
    full, top9 = DistillConfig(logit_loss="kld"), DistillConfig(logit_loss="kld", top_k=9)
    a = logit_loss(stand_in_targets(full, t), t64(s), full).item()
    b = logit_loss(stand_in_targets(top9, t), t64(s), top9).item()
    assert a == b  # bitwise: the restriction path is skipped entirely


def test_top_k_matches_hand_renormalization():
    t_logits = np.array([[[3.0, 2.0, 0.0, -1.0, -2.0]]])
    s_logits = np.array([[[1.0, 0.5, 2.0, 0.0, -3.0]]])
    cfg = DistillConfig(logit_loss="kld", top_k=2)
    got = logit_loss(stand_in_targets(cfg, t_logits), t64(s_logits), cfg).item()
    # teacher's top-2 ids are 0 and 1; renormalize both distributions there
    pt = oracle.naive_softmax(t_logits[0, 0])[:2]
    pt = pt / pt.sum()
    ps = oracle.naive_softmax(s_logits[0, 0])[:2]
    ps = ps / ps.sum()
    want = float((pt * (np.log(pt) - np.log(ps))).sum())
    assert got == pytest.approx(want, rel=1e-9)


def test_logit_loss_shape_mismatch():
    targets = stand_in_targets(DistillConfig(), np.zeros((1, 2, 5)))
    with pytest.raises(ShapeError):
        logit_loss(targets, t64(np.zeros((1, 2, 6))), DistillConfig())


def test_logit_loss_gradient_matches_fd(rng):
    t = rng.normal(size=(2, 3, 7))
    for name in ("kld", "rkld", "mse", "cosine"):
        for top_k in (None, 3):
            cfg = DistillConfig(logit_loss=name, top_k=top_k, temperature=1.7)
            targets = stand_in_targets(cfg, t)
            s = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
            with Tape():
                loss = logit_loss(targets, s, cfg)
            ad.backward(loss)
            oracle.check_fd(
                lambda: logit_loss(targets, s, cfg).item(), {"s": s}, h=1e-5, tol=1e-4
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
    rec_s = capture_all(m, toks)
    proj = projection(16, 16, dtype=np.float64)
    for loss_fn in ("cosine", "mse"):
        cfg = DistillConfig(
            is_components=("emb", "o", "i", "att"),
            layer_map=((1, 1),),
            is_loss_fn=loss_fn,
        )
        states = teacher_targets(m, toks, cfg)["states"]
        val = intermediate_loss(states, rec_s, proj, cfg, d_head=4).item()
        assert abs(val) < 1e-12


def test_intermediate_cosine_scale_invariance(rng):
    m = build_model(small_config(), seed=1, dtype=np.float64)
    toks = rng.integers(0, 19, size=(1, 5))
    rec_t = capture_all(m, toks)
    m2 = build_model(small_config(), seed=2, dtype=np.float64)
    rec_s = capture_all(m2, toks)
    proj = projection(16, 16, dtype=np.float64)
    cfg = DistillConfig(is_components=("o",), layer_map=((0, 0),), is_loss_fn="cosine")
    states = stand_in_targets(cfg, acts=rec_t)["states"]
    base = intermediate_loss(states, rec_s, proj, cfg, d_head=4).item()

    scaled_t = capture_all(m, toks)
    scaled_t[("ln1", 1)] = Tensor(scaled_t[("ln1", 1)].data * 7.5)
    scaled_s = capture_all(m2, toks)
    scaled_s[("ln1", 1)] = Tensor(scaled_s[("ln1", 1)].data * 3.25)
    states = stand_in_targets(cfg, acts=scaled_t)["states"]
    val = intermediate_loss(states, scaled_s, proj, cfg, d_head=4).item()
    assert val == pytest.approx(base, rel=1e-9)


def test_intermediate_single_pair_matches_recompute(rng):
    teacher = build_model(small_config(), seed=3, dtype=np.float64)
    student = build_model(small_config(d_model=8, d_hidden=16), seed=4, dtype=np.float64)
    toks = rng.integers(0, 19, size=(2, 5))
    rec_t = capture_all(teacher, toks)
    rec_s = capture_all(student, toks)
    proj = projection(8, 16, dtype=np.float64)
    cfg = DistillConfig(is_components=("o",), layer_map=((0, 0),), is_loss_fn="cosine")
    states = teacher_targets(teacher, toks, cfg)["states"]
    got = intermediate_loss(states, rec_s, proj, cfg, d_head=4).item()
    # straight-line: the layer-0 output state is the next block's first norm
    t_state = rec_t[("ln1", 1)].data
    s_state = rec_s[("ln1", 1)].data @ proj.data
    cos = []
    for b in range(2):
        for i in range(5):
            a, c = t_state[b, i], s_state[b, i]
            cos.append(a @ c / (np.linalg.norm(a) * np.linalg.norm(c)))
    assert got == pytest.approx(float(np.mean([1 - v for v in cos])), rel=1e-9)


def test_intermediate_requires_layer_map():
    for comps in (("o",), ("i",), ("emb", "att")):
        with pytest.raises(ConfigError, match="need a teacher:student layer_map"):
            DistillConfig(is_components=comps)
    assert DistillConfig(is_components=("emb",)).layer_map == ()


def test_intermediate_layer_map_past_last_block():
    m = build_model(small_config(), seed=5)
    toks = np.zeros((1, 4), dtype=int)
    acts = capture_all(m, toks)
    proj = projection(16, 16)

    def loss(layer_map):
        cfg = DistillConfig(is_components=("o",), layer_map=layer_map)
        return intermediate_loss(teacher_targets(m, toks, cfg)["states"], acts, proj, cfg, 4)

    # Block 1 is the last: its output is the final norm, ("ln1", 2).
    assert loss(((1, 1),)).item() == pytest.approx(0.0, abs=1e-6)
    for past in (((2, 2),), ((2, 1),), ((1, 2),)):  # teacher, student or both
        with pytest.raises(DataError):
            loss(past)


def test_intermediate_dimension_mismatch():
    teacher = build_model(small_config(), seed=6)
    student = build_model(small_config(d_model=8), seed=7)
    toks = np.zeros((1, 4), dtype=int)
    rec_t = capture_all(teacher, toks)
    rec_s = capture_all(student, toks)
    wrong = projection(8, 12)  # teacher is 16 wide
    cfg = DistillConfig(is_components=("emb",))
    states = stand_in_targets(cfg, acts=rec_t)["states"]
    with pytest.raises(ShapeError):
        intermediate_loss(states, rec_s, wrong, cfg, d_head=4)


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
    proj = projection(8, 16, dtype=np.float64)
    batch = rng.integers(0, 19, size=(2, 6))
    targets = teacher_targets(teacher, batch, full_cfg())
    loss, comps = total_loss(batch, targets, student, full_cfg(), proj)
    want = comps["loss_clm"] + comps["loss_logits"] + comps["alpha"] * comps["loss_is"]
    assert loss.item() == pytest.approx(want, rel=1e-12)
    assert abs(comps["alpha_times_is"] - comps["loss_logits"]) <= 1e-9


def test_total_loss_logits_only(rng):
    teacher, student = make_pair(seed=2)
    batch = rng.integers(0, 19, size=(2, 6))
    targets = teacher_targets(teacher, batch, DistillConfig())
    loss, comps = total_loss(batch, targets, student, DistillConfig())
    assert comps["loss_clm"] == 0.0 and comps["loss_is"] == 0.0
    assert loss.item() == comps["loss_logits"]


def test_total_loss_constant_alpha(rng):
    teacher, student = make_pair(seed=3)
    proj = projection(8, 16, dtype=np.float64)
    batch = rng.integers(0, 19, size=(2, 6))
    cfg = full_cfg(alpha_mode="constant", alpha_const=0.37)
    _, comps = total_loss(batch, teacher_targets(teacher, batch, cfg), student, cfg, proj)
    assert comps["alpha"] == 0.37


def test_total_loss_zero_is_warns_and_zeroes_alpha(rng):
    # identical models with mse state loss: L_is is exactly zero
    m = build_model(small_config(), seed=4, dtype=np.float64)
    batch = rng.integers(0, 19, size=(1, 5))
    proj = projection(16, 16, dtype=np.float64)
    cfg = full_cfg(is_loss_fn="mse", is_components=("i",), use_clm=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, comps = total_loss(batch, teacher_targets(m, batch, cfg), m, cfg, proj)
    assert comps["loss_is"] == 0.0 and comps["alpha"] == 0.0
    assert any("alpha" in str(w.message) for w in caught)


def test_total_loss_gradient_matches_fd(rng):
    # Every student parameter plus the shared projection, all loss terms on,
    # alpha pinned to its step value exactly as the training update does.
    teacher, student = make_pair(seed=5)
    proj = projection(8, 16, dtype=np.float64)
    batch = rng.integers(0, 19, size=(1, 5))
    targets = teacher_targets(teacher, batch, full_cfg())
    _, comps = total_loss(batch, targets, student, full_cfg(), proj)
    pinned = full_cfg(alpha_mode="constant", alpha_const=comps["alpha"])

    def compute():
        loss, _ = total_loss(batch, targets, student, pinned, proj)
        return loss

    with Tape():
        loss = compute()
    ad.backward(loss)
    params = {**student.params, "projection": proj}
    oracle.check_fd(lambda: compute().item(), params, h=1e-5, tol=1e-4)


def test_dynamic_alpha_is_zero_on_rounding_noise():
    """A 1-block student built at a 2-block teacher's seed maps the
    teacher's emb and o states up to float32 rounding, so L_is is noise of
    either sign; dividing L_logits by it gave alpha from about -8.5e5 to
    +4.1e5 here."""
    config = small_config(vocab_size=257)  # the tests/test_cli.py model
    teacher = build_model(config, seed=0)
    student = build_model(config.with_(num_layers=1), seed=0)
    cfg = for_depths(DistillConfig(), 2, 1)
    proj = projection(16, 16)
    rng = np.random.default_rng(0)
    noise = []
    for _ in range(6):
        batch = rng.integers(0, 257, size=(2, 8))
        with pytest.warns(UserWarning, match="alpha"):
            _, comps = total_loss(batch, teacher_targets(teacher, batch, cfg), student, cfg, proj)
        assert comps["alpha"] == 0.0 and comps["alpha_times_is"] == 0.0
        noise.append(comps["loss_is"])
    assert max(map(abs, noise)) <= np.finfo(np.float32).eps
    assert min(noise) < 0 < max(noise)


# ---------------------------------------------------------------- teacher targets


def loss_and_grads(compute, params):
    """Loss bytes, components and every parameter's gradient bytes of one
    evaluation of ``compute``."""
    for p in params.values():
        p.grad = None
    with Tape():
        loss, comps = compute()
    ad.backward(loss)
    grads = {k: None if p.grad is None else p.grad.tobytes() for k, p in params.items()}
    return loss.data.tobytes(), comps, grads


COMPONENTS = {
    "none": {},
    "emb_o": {"is_components": ("emb", "o")},
    "all_with_att": {"is_components": ("emb", "o", "i", "att"), "is_loss_fn": "mse"},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("components", list(COMPONENTS))
@pytest.mark.parametrize("temperature", [1.0, 1.7])
@pytest.mark.parametrize("top_k", [None, 3, 19])  # 19 is the vocabulary
@pytest.mark.parametrize("loss_name", LOGIT_LOSSES)
def test_total_loss_equals_the_teacher_in_loss_reference(
    loss_name, top_k, temperature, components, dtype, rng
):
    teacher = build_model(small_config(), seed=0, dtype=dtype)
    student = build_model(  # a width and a depth cut at once
        small_config(num_layers=1, d_model=8, num_heads=2, d_hidden=16), seed=1, dtype=dtype
    )
    cfg = DistillConfig(
        logit_loss=loss_name, top_k=top_k, temperature=temperature, use_clm=True,
        layer_map=((1, 0),), **COMPONENTS[components],
    )
    proj = projection(8, 16, dtype=dtype)
    params = {**student.params, "projection": proj}
    batch = rng.integers(0, 19, size=(2, 6))
    want = loss_and_grads(
        lambda: oracle.teacher_in_loss_total_loss(batch, teacher, student, cfg, proj), params
    )
    got = loss_and_grads(
        lambda: total_loss(batch, teacher_targets(teacher, batch, cfg), student, cfg, proj), params
    )
    assert got == want


@pytest.mark.parametrize("top_k", [None, 3])
def test_vocab_mismatch_raises_shape_error_as_the_reference_does(top_k):
    teacher = build_model(small_config(), seed=0)
    student = build_model(small_config(vocab_size=20), seed=1)
    cfg = DistillConfig(top_k=top_k)
    batch = np.zeros((1, 4), dtype=int)
    with pytest.raises(ShapeError):
        oracle.teacher_in_loss_total_loss(batch, teacher, student, cfg)
    with pytest.raises(ShapeError):
        total_loss(batch, teacher_targets(teacher, batch, cfg), student, cfg)


def leaves(value) -> list:
    """Every leaf of a targets value, arrays as bytes, in a fixed order."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in leaves(value[key])]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in leaves(item)]
    assert value is None or isinstance(value, (int, np.ndarray)), type(value)
    return [value.tobytes() if isinstance(value, np.ndarray) else value]


def test_one_targets_value_serves_a_width_and_a_depth_cut(corpus, monkeypatch):
    """The teacher's side depends on no student: one value, computed under
    the depth cut's objective, gives a width cut and a depth cut the loss,
    gradients and Adam update that fresh targets give, and no step writes
    to it."""
    config = small_config(vocab_size=257, max_seq_len=64)
    teacher = build_model(config, seed=20)
    students = [build_model(config.with_(d_model=8, num_heads=2, d_hidden=16), seed=21),
                build_model(config.with_(num_layers=1), seed=22)]
    cfgs = [for_depths(DistillConfig(top_k=5), 2, s.config.num_layers) for s in students]
    assert [c.is_components for c in cfgs] == [(), ("emb", "o")]
    batch = sample_batch(corpus, np.random.default_rng(0), 4, 16)
    shared = teacher_targets(teacher, batch, cfgs[1])
    before = leaves(shared)
    assert teacher_targets(teacher, batch, CLM_ONLY) is None

    def step(student, targets, cfg):
        student = student.copy()
        params = dict(student.params)
        proj = projection(student.config.d_model, 16) if cfg.is_components else None
        if proj is not None:
            params["projection"] = proj
        got = loss_and_grads(lambda: total_loss(batch, targets, student, cfg, proj), params)
        TrainState().adam_update(params, 1e-3)
        return got, {k: p.data.tobytes() for k, p in params.items()}

    for student, cfg in zip(students, cfgs):
        fresh = teacher_targets(teacher, batch, cfg)
        assert step(student, shared, cfg) == step(student, fresh, cfg)
    assert leaves(shared) == before

    real_forward, calls = distill.forward, []

    def forward(model, *args, **kw):
        calls.append("teacher" if model is teacher else "student")
        return real_forward(model, *args, **kw)

    monkeypatch.setattr(distill, "forward", forward)
    distill_loop(teacher, students[1], corpus, cfgs[1], steps=3, batch_size=4, seq_len=16)
    assert calls == ["teacher", "student"] * 3


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


def test_conventional_loop_matches_straight_line_reference(corpus):
    """The reference is LM-loss Adam training written out step by step; the
    records log each step's cosine rate and the tokens seen through it."""
    config = small_config(vocab_size=257, max_seq_len=64)
    model, metrics = conventional_loop(build_model(config, seed=9), corpus, steps=8, seed=1)

    ref = build_model(config, seed=9)
    state = TrainState()
    rng = np.random.default_rng(1)
    for step in range(8):
        batch = sample_batch(corpus, rng, 8, 32)
        with Tape():
            loss = lm_loss(ref, batch)
        ad.backward(loss)
        lr = cosine_lr(step, 8, 1e-3, 1e-5)
        state.adam_update(ref.params, lr)
        assert metrics[step]["loss_total"] == metrics[step]["loss_clm"] == loss.item()
        assert metrics[step]["lr"] == lr and metrics[step]["tokens"] == (step + 1) * 8 * 32
    assert len(metrics) == 8
    for k in ref.params:
        assert np.array_equal(model.params[k].data, ref.params[k].data)


@pytest.mark.parametrize("order", ["C", "F"])
def test_adam_update_equals_the_straight_line_expression(order):
    # In-place moments and one fresh parameter array give the bytes of the
    # textbook expression, whatever the gradient's memory order.
    rng = np.random.default_rng(3)
    start = rng.normal(size=(6, 5)).astype(np.float32)
    p = Tensor(start.copy(), requires_grad=True)
    shared = p.data
    state = TrainState()
    ref, m, v = start, np.zeros_like(start), np.zeros_like(start)
    for t in (1, 2, 3):
        g = np.asarray(rng.normal(size=start.shape).astype(np.float32), order=order)
        lr = cosine_lr(t - 1, 3, 1e-2, 1e-3)
        p.grad = g
        state.adam_update({"w": p}, lr)
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * (g * g)
        ref = ref - lr * (m / (1 - BETA1**t)) / (np.sqrt(v / (1 - BETA2**t)) + ADAM_EPS)
        assert p.data.dtype == np.float32 and p.data.tobytes() == ref.tobytes()
        assert state.m["w"].tobytes() == m.tobytes() and state.v["w"].tobytes() == v.tobytes()
    assert np.array_equal(shared, start)  # the first parameter array was never written


def test_frozen_parameter_is_left_alone(corpus, monkeypatch):
    # A parameter that asks for no gradient gets none, so Adam neither moves
    # it nor keeps moments for it.
    config = small_config(vocab_size=257, max_seq_len=64)
    teacher, student = build_model(config, seed=6), build_model(config, seed=7)
    frozen = student.params["layers.0.mlp.w1"]
    frozen.requires_grad = False
    before = frozen.data.copy()
    real_update, states = TrainState.adam_update, []

    def adam_update(self, params, lr):
        states.append(self)
        real_update(self, params, lr)

    monkeypatch.setattr(TrainState, "adam_update", adam_update)
    student, _ = distill_loop(teacher, student, corpus, DistillConfig(), steps=2,
                              batch_size=2, seq_len=8)
    assert frozen.data.tobytes() == before.tobytes()
    assert "layers.0.mlp.w1" not in states[-1].m and "layers.0.mlp.w2" in states[-1].m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loop_starts_the_projection_at_the_truncated_identity(corpus, monkeypatch, dtype):
    config = small_config(vocab_size=257, max_seq_len=64)
    teacher = build_model(config, seed=6, dtype=dtype)
    student = build_model(config.with_(d_model=8, num_heads=2, d_hidden=16), seed=7, dtype=dtype)
    real_loss, seen = distill.total_loss, []

    def total_loss(*args):
        seen.append(args[-1].data.copy())
        return real_loss(*args)

    monkeypatch.setattr(distill, "total_loss", total_loss)
    cfg = DistillConfig(is_components=("emb",))
    distill_loop(teacher, student, corpus, cfg, steps=2, batch_size=2, seq_len=8)
    assert seen[0].dtype == dtype and np.array_equal(seen[0], np.eye(8, 16))
    assert not np.array_equal(seen[1], seen[0])  # trained


def test_loop_without_teacher_rejects_teacher_terms(corpus):
    student = build_model(small_config(vocab_size=257, max_seq_len=64), seed=9)
    only_is = DistillConfig(logit_loss=None, is_components=("emb",), alpha_mode="constant")
    for cfg in (DistillConfig(), only_is):
        with pytest.raises(ConfigError, match="need a teacher"):
            distill_loop(None, student, corpus, cfg, steps=1)


@pytest.mark.parametrize("components", [("o",), ("i",), ("emb", "att")])
def test_loop_rejects_a_layer_map_past_either_depth(corpus, components, monkeypatch):
    # Refused before the teacher's first forward, naming the pair and both depths.
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64, num_layers=3), seed=9)
    student = build_model(small_config(vocab_size=257, max_seq_len=64), seed=10)
    monkeypatch.setattr(distill, "forward", None)
    for pair in ((3, 0), (0, 2), (9, 9)):
        cfg = DistillConfig(is_components=components, layer_map=(pair,))
        with pytest.raises(ConfigError, match=rf"pair \[{pair[0]}, {pair[1]}\] .* "
                                              "3-block teacher and a 2-block student"):
            distill_loop(teacher, student, corpus, cfg, steps=1)
    # emb reads no block, so its map is not read either.
    monkeypatch.undo()
    cfg = DistillConfig(is_components=("emb",), layer_map=((9, 9),))
    assert len(distill_loop(teacher, student, corpus, cfg, steps=1, seq_len=8)[1]) == 1


def test_metrics_file_is_opened_at_the_first_record(corpus, tmp_path):
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=11)
    other_vocab = build_model(small_config(vocab_size=300, max_seq_len=64), seed=12)
    path = tmp_path / "m.jsonl"
    with pytest.raises(ShapeError):  # fails inside step 0
        distill_loop(teacher, other_vocab, corpus, DistillConfig(), steps=2,
                     metrics_path=str(path))
    assert not path.exists()
    distill_loop(teacher, teacher.copy(), corpus, DistillConfig(), steps=0, metrics_path=str(path))
    assert path.read_text() == ""  # a zero-step run still writes its (empty) file


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


def test_non_finite_gradient_aborts_before_the_update(corpus, monkeypatch):
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=15)
    student = build_model(small_config(vocab_size=257, max_seq_len=64), seed=16)
    before = {k: v.data.copy() for k, v in student.params.items()}
    names = list(student.params)
    real_backward = ad.backward

    def backward(loss):
        real_backward(loss)
        for name in names[2:4]:
            student.params[name].grad.flat[0] = np.nan

    monkeypatch.setattr(ad, "backward", backward)
    with pytest.raises(DivergenceError, match=f"{names[2]} at step 0") as err:
        distill_loop(teacher, student, corpus, DistillConfig(), steps=3)
    assert err.value.state_dump["param"] == names[2]
    assert math.isfinite(err.value.state_dump["loss_total"])
    for k in before:
        assert np.array_equal(student.params[k].data, before[k])


@pytest.mark.parametrize("diverge_at", [None, 0, 1])
def test_loop_leaves_no_gradient_on_the_student(corpus, monkeypatch, diverge_at):
    # Gradients live from backward to the update: neither the returned
    # student nor one a DivergenceError leaves behind holds any.
    teacher = build_model(small_config(vocab_size=257, max_seq_len=64), seed=15)
    student = build_model(small_config(vocab_size=257, max_seq_len=64), seed=16)
    real_backward, calls = ad.backward, []

    def backward(loss):
        real_backward(loss)
        if len(calls) == diverge_at:
            student.params["lm_head"].grad.flat[0] = np.nan
        calls.append(loss)

    monkeypatch.setattr(ad, "backward", backward)
    cfg = DistillConfig(is_components=("emb",))
    if diverge_at is None:
        assert distill_loop(teacher, student, corpus, cfg, steps=3)[0] is student
    else:
        with pytest.raises(DivergenceError, match=f"at step {diverge_at}"):
            distill_loop(teacher, student, corpus, cfg, steps=3)
    assert [k for k, p in student.params.items() if p.grad is not None] == []


def test_returned_student_retains_about_its_parameter_bytes(corpus):
    # Traced memory left after the loop is the student it returns: its
    # weights (the loop replaces every array it was built with), the
    # metric records and the rotary and mask caches. Keeping the last
    # step's gradients would add the parameter bytes a second time.
    config = small_config(num_layers=2, d_model=64, num_heads=4, d_head=16, d_hidden=256,
                          vocab_size=257, max_seq_len=64)
    param_bytes = count_params(config).total * np.dtype(np.float32).itemsize
    teacher = build_model(config, seed=15)
    gc.collect()
    tracemalloc.start()
    try:
        student, metrics = distill_loop(
            teacher, build_model(config, seed=16), corpus, DistillConfig(), steps=3
        )
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(metrics) == 3
    assert param_bytes <= retained < 1.25 * param_bytes, (retained, param_bytes)


def test_backward_peak_stays_near_the_live_forward(corpus, monkeypatch):
    """Backward frees each node's saved arrays once its closure has read
    them, so its peak sits near the memory live when it starts: about 10 %
    of the forward graph above it here. A tape that kept every node, its
    saved arrays and its output gradient to the end of the sweep adds about
    70 %."""
    import trimformer.distill as distill

    config = small_config(num_layers=4, d_model=64, d_head=16, d_hidden=256,
                          vocab_size=257, max_seq_len=64)
    teacher, student = build_model(config, seed=17), build_model(config, seed=18)
    corpus.split_ids("train")  # cached before tracing
    marks = {}
    real_loss, real_backward = distill.total_loss, ad.backward

    def traced_loss(*args):
        marks["start"] = tracemalloc.get_traced_memory()[0]
        return real_loss(*args)

    def traced_backward(loss):
        marks["live"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real_backward(loss)
        marks["peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(distill, "total_loss", traced_loss)
    monkeypatch.setattr(ad, "backward", traced_backward)
    tracemalloc.start()
    try:
        distill_loop(teacher, student, corpus, DistillConfig(), steps=1,
                     batch_size=4, seq_len=64)
    finally:
        tracemalloc.stop()
    graph = marks["live"] - marks["start"]
    assert marks["peak"] - marks["live"] < 0.25 * graph, marks


def test_dynamic_alpha_needs_a_logit_loss():
    # Dynamic alpha is L_logits / L_is: without a logit loss it is always 0
    # and the intermediate terms would silently train nothing.
    for use_clm in (False, True):
        with pytest.raises(ConfigError, match="dynamic alpha"):
            DistillConfig(logit_loss=None, use_clm=use_clm, is_components=("emb",))
        DistillConfig(logit_loss=None, use_clm=use_clm, is_components=("emb",),
                      alpha_mode="constant")


def test_config_roundtrips_and_validates():
    cfg = full_cfg(top_k=5)
    assert DistillConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        DistillConfig(logit_loss="huber")
    with pytest.raises(ConfigError):
        DistillConfig(is_components=("bogus",))
    with pytest.raises(ConfigError):
        DistillConfig(logit_loss=None, use_clm=False)
    with pytest.raises(ConfigError):
        DistillConfig(temperature=-1.0)
    for bad in (
        {"layer_map": [[1, 2, 3]]},
        {"layer_map": [["a", 1]]},
        {"layer_map": [[-1, 0]], "is_components": ["o"]},
        {"layer_map": [[True, 0]]},
        {"top_k": "5"},
        {"top_k": 2.5},
        {"top_k": 0},
        {"alpha_const": "x"},
        {"alpha_const": math.nan},
        {"alpha_const": math.inf},
        {"temperature": math.inf},
        {"temperature": math.nan},
        {"use_clm": "yes"},
        {"temperature": "1"},
        {"is_components": "emb"},
    ):
        with pytest.raises(ConfigError):
            DistillConfig.from_dict(bad)
