import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimformer.distill import DistillConfig, distill_loop, for_depths
from trimformer.errors import DataError, SearchError
from trimformer.importance import compute_importance_report
from trimformer.model import ModelConfig, build_model, count_params
from trimformer.pruning import apply_candidate
from trimformer.search import (
    COUNT_MODES,
    Candidate,
    CandidateSet,
    SearchSpace,
    enumerate_candidates,
    rank_candidates,
    snap_mlp_width,
)


def subset(choices):
    return st.lists(st.sampled_from(choices), min_size=1, max_size=len(choices), unique=True)


@st.composite
def spaces(draw):
    lo = draw(st.integers(1, 4))
    return SearchSpace(
        layer_range=(lo, draw(st.integers(lo, 6))),
        head_choices=tuple(draw(subset([1, 2, 4, 6, 8]))),
        mlp_expansion_factors=tuple(draw(subset([1.0, 1.5, 2.0, 2.5, 4.0]))),
        embedding_choices=tuple(draw(subset([32, 64, 96, 128, 192]))),
        d_head=draw(st.sampled_from([8, 16])),
        vocab_size=draw(st.sampled_from([257, 1000])),
        num_query_groups=draw(st.sampled_from([1, 2, 4])),
        tie_embeddings=draw(st.booleans()),
    )


def grid_counts(space, count_mode):
    """Every grid point (layers, heads, emb, snapped mlp) with its count,
    computed independently of the enumeration loop."""
    lo, hi = space.layer_range
    points = {}
    for layers, heads, emb, factor in itertools.product(
        range(lo, hi + 1), space.head_choices, space.embedding_choices,
        space.mlp_expansion_factors,
    ):
        groups = max(g for g in range(1, min(space.num_query_groups, heads) + 1) if heads % g == 0)
        cfg = ModelConfig(
            num_layers=layers, d_model=emb, num_heads=heads, num_query_groups=groups,
            d_head=space.d_head, d_hidden=snap_mlp_width(factor, emb),
            vocab_size=space.vocab_size, max_seq_len=space.max_seq_len,
            tie_embeddings=space.tie_embeddings,
        )
        counts = count_params(cfg)
        points[cfg] = counts.total if count_mode == "total" else counts.non_embedding
    return points


def quiet_enumerate(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return enumerate_candidates(*args)


@st.composite
def searches(draw):
    """A space, and a budget near the count of one of its grid points, so
    that the window edge cuts through the grid."""
    space = draw(spaces())
    count_mode = draw(st.sampled_from(COUNT_MODES))
    anchor = draw(st.sampled_from(sorted(grid_counts(space, count_mode).values())))
    budget = anchor * draw(st.floats(0.7, 1.3))
    return space, budget, draw(st.floats(0.01, 0.5)), count_mode


@given(searches())
def test_enumeration_keeps_exactly_the_grid_points_inside_the_window(search):
    space, budget, tolerance, count_mode = search
    result = quiet_enumerate(space, budget, tolerance, count_mode)
    kept = {c.config for c in result.candidates}
    for c in result.candidates:
        count = c.total_params if count_mode == "total" else c.non_embedding_params
        assert abs(count - budget) <= tolerance * budget
    for cfg, count in grid_counts(space, count_mode).items():
        assert (cfg in kept) == (abs(count - budget) <= tolerance * budget)
    assert len(kept) == len(result.candidates)  # no duplicates


@given(searches())
def test_enumeration_order_is_deterministic(search):
    first = quiet_enumerate(*search)
    again = quiet_enumerate(*search)
    assert [c.label for c in first.candidates] == [c.label for c in again.candidates]
    keys = [
        (-c.config.num_layers, c.config.num_heads, -c.config.d_model, c.config.d_hidden)
        for c in first.candidates
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "budget, tolerance, count_mode",
    [(1e5, 0.0, "total"), (1e5, 1.0, "total"), (0.0, 0.1, "total"), (1e5, 0.1, "params")],
)
def test_enumeration_rejects_bad_arguments(budget, tolerance, count_mode):
    space = SearchSpace((1, 2), (2,), (2.0,), (32,), d_head=8, vocab_size=257)
    with pytest.raises(SearchError):
        enumerate_candidates(space, budget, tolerance, count_mode)


@pytest.mark.parametrize("key, value", [
    ("budget", math.inf), ("budget", math.nan), ("budget", "6500"), ("budget", True),
    ("budget", 0), ("tolerance", "0.2"), ("tolerance", True), ("tolerance", 1.0),
    ("count_mode", "params"),
    # Copies of the space and of MLP_SNAP must agree with them, type included.
    ("vocab_size", 258), ("vocab_size", 257.0), ("d_head", 8), ("num_query_groups", 1),
    ("tie_embeddings", True), ("tie_embeddings", 0), ("mlp_snap_multiple", 64),
])
def test_manifest_assumptions_follow_the_enumeration_rules(key, value):
    space = SearchSpace((1, 2), (2, 4), (8.0,), (8, 16), d_head=4, vocab_size=257,
                        num_query_groups=2)
    text = enumerate_candidates(space, 6500, 0.2).to_json()
    assert CandidateSet.from_json(text).to_json() == text
    manifest = json.loads(text)
    manifest["assumptions"][key] = value
    with pytest.raises(DataError):
        CandidateSet.from_json(json.dumps(manifest))


@pytest.mark.parametrize("key, value", [
    ("label", 7),
    ("total_params", "count+1"),
    ("total_params", "count.0"),
    ("non_embedding_params", "count+1"),
    ("eval_loss", "low"),
    ("eval_loss", math.nan),
    ("eval_loss", math.inf),
    ("eval_loss", True),
    ("eval_trajectory", [[-1, 1.0]]),
    ("eval_trajectory", [[0.5, 1.0]]),
    ("eval_trajectory", [[0, math.nan]]),
    ("eval_trajectory", [[0]]),
    ("eval_trajectory", [[0, 1.0, 2]]),
    ("eval_loss", 1.0),
    ("eval_loss", None),
    ("eval_trajectory", []),
    ("eval_trajectory", [[3, 1.0], [1, 2.5]]),
    ("eval_trajectory", [[2, 3.0], [2, 2.5]]),
    ("label", "the next candidate's"),
])
def test_manifest_candidates_are_checked(key, value):
    space = SearchSpace((1, 2), (2, 4), (8.0,), (8, 16), d_head=4, vocab_size=257,
                        num_query_groups=2)
    ranked = enumerate_candidates(space, 6500, 0.2)
    for cand in ranked.candidates:
        cand.eval_loss, cand.eval_trajectory = 2.5, [(0, 3.0), (2, 2.5)]
    text = ranked.to_json()
    assert CandidateSet.from_json(text).to_json() == text
    manifest = json.loads(text)
    cand = manifest["candidates"][0]
    if value == "count+1":
        value = cand[key] + 1
    elif value == "count.0":
        value = float(cand[key])
    elif value == "the next candidate's":
        value = manifest["candidates"][1][key]
    cand[key] = value
    with pytest.raises(DataError):
        CandidateSet.from_json(json.dumps(manifest))


@pytest.mark.parametrize("edit", [{"d_head": 3}, {"num_heads": 3}, {"num_layers": -1}])
def test_manifest_candidate_configs_fail_as_malformed_data(edit):
    # A config ModelConfig refuses is a malformed manifest, not a config error.
    space = SearchSpace((1, 2), (2, 4), (8.0,), (8, 16), d_head=4, vocab_size=257,
                        num_query_groups=2)
    manifest = json.loads(enumerate_candidates(space, 6500, 0.2).to_json())
    manifest["candidates"][0]["config"].update(edit)
    with pytest.raises(DataError, match="malformed candidate manifest"):
        CandidateSet.from_json(json.dumps(manifest))


def test_rank_candidates_ignores_input_order(corpus):
    cfg = ModelConfig(3, 32, 4, 2, 8, 128, 257, max_seq_len=32)
    teacher = build_model(cfg, seed=0)
    calib = np.random.default_rng(0).integers(0, 257, size=(4, 16))
    report = compute_importance_report(teacher, calib)
    space = SearchSpace(
        layer_range=(2, 3), head_choices=(2, 4), mlp_expansion_factors=(2.0, 4.0),
        embedding_choices=(24, 32), d_head=8, vocab_size=257, num_query_groups=2,
        max_seq_len=32,
    )
    enumerated = enumerate_candidates(space, count_params(cfg).total * 0.85, 0.15)
    assert len(enumerated.candidates) >= 3
    eval_tokens = np.random.default_rng(1).integers(0, 257, size=(4, 16))

    def rank(candidates):
        enumerated.candidates = candidates
        ranked = rank_candidates(
            teacher, enumerated, 2, DistillConfig(), eval_tokens, corpus, report,
            seed=3, batch_size=2, seq_len=16,
        )
        return [(c.label, c.eval_loss, c.eval_trajectory) for c in ranked.candidates]

    forward = list(enumerated.candidates)
    # The depth-only cut maps its block 0, an unchanged copy of the
    # teacher's, so its first L_is is rounding noise and alpha is set to 0.
    with pytest.warns(UserWarning, match="dynamic alpha forced to 0"):
        assert rank(forward) == rank(forward[::-1])


def test_rank_candidates_retrains_each_candidate_as_distill_would(corpus):
    """Ranking under the default objective gives a depth-cut candidate the
    emb/o terms that ``distill`` would, and a width-only one plain KLD: each
    trajectory is, float for float, that of the run ``prune`` + ``distill``
    would make with as many steps."""
    cfg = ModelConfig(4, 32, 4, 2, 8, 128, 257, max_seq_len=32)
    teacher = build_model(cfg, seed=0)
    report = compute_importance_report(teacher, np.random.default_rng(0).integers(0, 257, (4, 16)))
    eval_tokens = np.random.default_rng(1).integers(0, 257, size=(4, 16))
    depth_cut, width_only = cfg.with_(num_layers=2), cfg.with_(d_hidden=64)
    space = SearchSpace(layer_range=(2, 4), head_choices=(4,), mlp_expansion_factors=(2.0,),
                        embedding_choices=(32,), d_head=8, vocab_size=257, num_query_groups=2)
    candidates = [Candidate(c, *count_params(c), label) for c, label in
                  ((depth_cut, "depth"), (width_only, "width"))]
    steps, loop = 3, dict(seed=3, batch_size=2, seq_len=16)
    ranked = rank_candidates(teacher, CandidateSet(space, 1e5, 0.5, "total", candidates), steps,
                             DistillConfig(), eval_tokens, corpus, report, **loop)

    assert sorted(c.label for c in ranked.candidates) == ["depth", "width"]
    deep = for_depths(DistillConfig(), 4, 2)
    assert (deep.is_components, deep.layer_map) == (("emb", "o"), ((1, 0),))
    want = {"depth": (depth_cut, deep), "width": (width_only, DistillConfig())}
    for cand in ranked.candidates:
        target, distill_cfg = want[cand.label]
        _, metrics = distill_loop(teacher, apply_candidate(teacher, target, report), corpus,
                                  distill_cfg, steps, eval_data=eval_tokens, eval_every=1, **loop)
        assert cand.eval_trajectory == [(m["step"], m["eval_loss"]) for m in metrics]


@pytest.mark.parametrize("steps,evaluated", [
    (5, list(range(5))),
    (12, list(range(12))),
    (25, [*range(1, 24, 2), 24]),
])
def test_rank_candidates_evaluates_every_tenth_step_and_the_last(corpus, steps, evaluated):
    # max(1, steps // 10) is 1 for every count below twenty.
    cfg = ModelConfig(2, 16, 2, 1, 8, 32, 257, max_seq_len=16)
    teacher = build_model(cfg, seed=0)
    report = compute_importance_report(teacher, np.random.default_rng(0).integers(0, 257, (2, 8)))
    space = SearchSpace(layer_range=(2, 2), head_choices=(2,), mlp_expansion_factors=(2.0,),
                        embedding_choices=(16,), d_head=8, vocab_size=257, num_query_groups=1)
    candidates = [Candidate(cfg, *count_params(cfg), "self")]
    ranked = rank_candidates(teacher, CandidateSet(space, 1e5, 0.5, "total", candidates), steps,
                             DistillConfig(), np.zeros((2, 8), dtype=int), corpus, report,
                             batch_size=2, seq_len=8)
    assert [step for step, _ in ranked.candidates[0].eval_trajectory] == evaluated
