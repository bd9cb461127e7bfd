"""The graph core against independent routes, over random radii and sources.

Distances and parents read off the ball's sparse adjacency are compared
with a plain breadth-first search over ``model.neighbors`` written here;
prefix views and enlarged balls are compared field by field with balls
freshly enumerated by a new model of the same spec.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pharmonic import BudgetError, build_group
from pharmonic.roughiso import _bfs_parents, _pair_distances

# (spec, largest radius drawn) -- radii keep every ball below a few thousand vertices
SPECS = [
    ({"family": "free_abelian", "params": {"d": 2}}, 8),
    ({"family": "free", "params": {"k": 2}}, 5),
    ({"family": "free_product_z2", "params": {"m": 3}}, 6),
    ({"family": "lamplighter", "params": {}}, 6),
    ({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}}, 4),
]

spec_and_radius = st.sampled_from(SPECS).flatmap(
    lambda sr: st.tuples(st.just(sr[0]), st.integers(1, sr[1]))
)


def plain_bfs(model, ball, source):
    """Distances inside the ball from one vertex, -1 where unreached."""
    dist = {ball.vertices[source]: 0}
    queue = deque([ball.vertices[source]])
    while queue:
        g = queue.popleft()
        for h in model.neighbors(g):
            if h in ball.index and h not in dist:
                dist[h] = dist[g] + 1
                queue.append(h)
    return np.array([dist.get(g, -1) for g in ball.vertices])


def assert_same_ball(got, want):
    assert got.radius == want.radius
    assert got.vertices == want.vertices
    assert got.index == want.index
    assert got.n_interior == want.n_interior
    assert np.array_equal(got.depth, want.depth)
    assert np.array_equal(got.adj, want.adj)
    assert np.array_equal(got.full_adj(), want.full_adj())
    for a, b in zip(got.arcs(), want.arcs()):
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(spec_and_radius, st.integers(0, 10**9))
def test_distances_and_parents_match_plain_bfs(sr, salt):
    spec, radius = sr
    model = build_group(spec)
    ball = model.ball(radius)
    source = salt % len(ball)
    want = plain_bfs(model, ball, source)
    dist, parent = _bfs_parents(ball, source)
    assert np.array_equal(dist, want)
    for v, g in enumerate(ball.vertices):
        closer = [ball.index[h] for h in model.neighbors(g) if h in ball.index and want[ball.index[h]] == want[v] - 1]
        assert parent[v] == (min(closer) if want[v] > 0 else -1)
    targets = np.arange(len(ball))
    assert np.array_equal(_pair_distances(ball, np.full(len(ball), source), targets), want)


@settings(max_examples=25, deadline=None)
@given(spec_and_radius, st.integers(0, 3))
def test_prefix_view_and_enlarged_ball_match_fresh_enumeration(sr, extra):
    spec, radius = sr
    model = build_group(spec)
    big = model.ball(radius + extra)
    small = model.ball(radius)  # a prefix view of the cached ball unless extra == 0
    assert_same_ball(small, build_group(spec).ball(radius))
    larger = model.ball(radius + extra + 1)  # continues the cached ball's pass
    assert_same_ball(larger, build_group(spec).ball(radius + extra + 1))


@settings(max_examples=15, deadline=None)
@given(spec_and_radius)
def test_budget_error_while_enlarging_leaves_model_usable(sr):
    spec, radius = sr
    model = build_group(spec)
    ball = model.ball(radius)
    with pytest.raises(BudgetError):
        model.ball(radius + 3, budget=len(ball) + 1)
    assert model.ball(radius) is ball
    assert_same_ball(model.ball(radius + 1), build_group(spec).ball(radius + 1))
    if radius > 1:
        assert_same_ball(model.ball(radius - 1), build_group(spec).ball(radius - 1))


@pytest.mark.parametrize("cached, requested", [(6, 5), (5, 7)])
def test_budget_error_text_matches_a_fresh_enumeration(cached, requested):
    # no closed-form size: the budget is checked against the cached ball
    lamp = build_group("lamplighter")
    budget = len(build_group("lamplighter").ball(5)) - 1
    lamp.ball(cached)
    with pytest.raises(BudgetError) as got:
        lamp.ball(requested, budget=budget)
    with pytest.raises(BudgetError) as want:
        build_group("lamplighter").ball(requested, budget=budget)
    assert str(got.value) == str(want.value)


def test_word_length_reads_the_cached_ball():
    lamp = build_group("lamplighter")
    far = lamp.reduce(["a", "t"] * 5)
    assert lamp.word_length(far) == 10  # five toggles and five moves
    ball = lamp.ball(4)
    for g in ball.vertices:
        assert lamp.word_length(g) == ball.depth[ball.index[g]]
    # Z with generators 1 and 2: word length ceil(n / 2), searched up to radius 64
    z12 = build_group({"family": "free_abelian", "params": {"d": 1, "extra_generators": [["x1", "x1"]]}})
    assert z12.word_length((127,)) == 64
    with pytest.raises(ValueError, match="radius 64"):
        z12.word_length((129,))

