import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimformer.distill import DistillConfig
from trimformer.errors import SearchError
from trimformer.importance import compute_importance_report
from trimformer.model import ModelConfig, build_model, count_params
from trimformer.search import (
    COUNT_MODES,
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
    assert rank(forward) == rank(forward[::-1])
