"""The graph core against independent routes, over random radii and sources.

Distances and parents read off the ball's sparse adjacency are compared
with a plain breadth-first search over ``model.neighbors`` written here;
prefix views are compared field by field with balls freshly enumerated by a
new model of the same spec.
"""

import json
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pharmonic import BudgetError, CoarseMap, ScalarField, build_group, groups
from pharmonic.cli import main
from pharmonic.roughiso import _bfs_parents, _pair_distances, rough_inverse
from pharmonic.tilf import difference_approximation, translate

from conftest import closed_form_word_length

# (spec, largest radius drawn) -- radii keep every ball below a few thousand vertices
SPECS = [
    ({"family": "free_abelian", "params": {"d": 2}}, 8),
    ({"family": "free", "params": {"k": 2}}, 5),
    ({"family": "free_product_z2", "params": {"m": 3}}, 6),
    ({"family": "lamplighter", "params": {}}, 6),
    ({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}}, 4),
]

# the lamplighter with an extra generator: distances inside its balls overshoot the word metric
LAMP_TA = ({"family": "lamplighter", "params": {"extra_generators": [["t", "a"]]}}, 5)


def _radius_up_to(sr):
    return st.tuples(st.just(sr[0]), st.integers(1, sr[1]))


spec_and_radius = st.sampled_from(SPECS).flatmap(_radius_up_to)
with_lamp_ta = st.sampled_from(SPECS + [LAMP_TA]).flatmap(_radius_up_to)


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


def plain_ball(model, radius):
    """Vertex-by-vertex breadth-first enumeration over ``model.neighbors``:
    the vertex list, depths and adjacency rows (-1 outside the ball)."""
    e = model.identity()
    vertices, index, depth, rows = [e], {e: 0}, [0], []
    for g, d in zip(vertices, depth):
        nbrs = model.neighbors(g)
        if d < radius:
            for h in nbrs:
                if h not in index:
                    index[h] = len(vertices)
                    vertices.append(h)
                    depth.append(d + 1)
        rows.append([index.get(h, -1) for h in nbrs])
    return vertices, depth, rows


def assert_same_ball(got, want):
    assert got.radius == want.radius
    assert got.vertices == want.vertices
    assert got.index == want.index
    assert got.n_interior == want.n_interior
    assert np.array_equal(got.depth, want.depth)
    assert np.array_equal(got.adj, want.adj)
    assert np.array_equal(got.full_adj(), want.full_adj())
    assert np.array_equal(got.hops(len(want) - 1), want.hops(len(want) - 1))
    for a, b in zip(got.arcs(), want.arcs()):
        assert np.array_equal(a, b)
    # the rows agree up to zero columns, and each ball finds the other's rows
    ids = np.arange(len(want))
    assert np.array_equal(got.locate(want.codes), ids)
    assert np.array_equal(want.locate(got.codes), ids)
    width = min(got.codes.shape[1], want.codes.shape[1])
    assert np.array_equal(got.codes[:, :width], want.codes[:, :width])
    assert not got.codes[:, width:].any() and not want.codes[:, width:].any()


@settings(max_examples=25, deadline=None)
@given(with_lamp_ta, st.lists(st.integers(0, 10**9), min_size=1, max_size=4))
def test_distances_and_parents_match_plain_bfs(sr, salts):
    spec, radius = sr
    model = build_group(spec)
    ball = model.ball(radius)
    for salt in salts:
        source = salt % len(ball)
        want = plain_bfs(model, ball, source)
        hops = ball.hops(source)
        assert hops.dtype == np.int64
        assert np.array_equal(hops, want)
        dist, parent = _bfs_parents(ball, source)
        assert np.array_equal(dist, want)
        for v, g in enumerate(ball.vertices):
            closer = [ball.index[h] for h in model.neighbors(g) if h in ball.index and want[ball.index[h]] == want[v] - 1]
            assert parent[v] == (min(closer) if want[v] > 0 else -1)
        targets = np.arange(len(ball))
        assert np.array_equal(_pair_distances(ball, np.full(len(ball), source), targets), want)


@settings(max_examples=25, deadline=None)
@given(spec_and_radius, st.integers(1, 150), st.integers(0, 2**32 - 1))
def test_pair_distances_over_many_sources_in_shuffled_order(sr, n_sources, seed):
    # up to 150 sources: three 64-bit words of searches, the last one partial
    spec, radius = sr
    model = build_group(spec)
    ball = model.ball(radius)
    rng = np.random.default_rng(seed)
    sources = rng.choice(len(ball), size=min(len(ball), n_sources), replace=False)
    ia = np.repeat(sources, 5)
    ib = rng.integers(0, len(ball), size=ia.size)
    ib[::4] = ia[::4]  # some pairs end where they start
    order = rng.permutation(ia.size)
    ia, ib = ia[order], ib[order]
    got = _pair_distances(ball, ia, ib)
    want = {int(s): plain_bfs(model, ball, int(s)) for s in sources}
    assert got.dtype == np.int64
    for s, t, d in zip(ia, ib, got):
        assert d == want[int(s)][t]


@settings(max_examples=25, deadline=None)
@given(with_lamp_ta, st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_hops_from_many_sources_is_the_nearest_source_distance(sr, n_sources, seed):
    spec, radius = sr
    model = build_group(spec)
    ball = model.ball(radius)
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, len(ball), size=n_sources)  # repeats allowed
    # a ball is connected, so no plain distance is -1
    want = np.min([plain_bfs(model, ball, int(s)) for s in sources], axis=0)
    got = ball.hops(sources)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


# each family with its stock and one extended generating set
PREFIX_SPECS = SPECS[:4] + [
    ({"family": "free_abelian", "params": {"d": 2, "extra_generators": [["x1", "x2"]]}}, 6),
    SPECS[4],
    ({"family": "free_product_z2", "params": {"m": 3, "extra_generators": [["s1", "s2"]]}}, 5),
    LAMP_TA,
]


def _radii_up_to(sr):
    return st.integers(1, sr[1]).flatmap(lambda big: st.tuples(st.just(sr[0]), st.just(big), st.integers(1, big)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PREFIX_SPECS).flatmap(_radii_up_to))
def test_prefix_matches_fresh_enumeration(sbr):
    spec, big, radius = sbr
    ball = build_group(spec).ball(big)
    small = ball.prefix(radius)
    if radius < big:
        assert small._rows.max() >= len(small)  # its sphere rows point past its end
    else:
        assert small is ball
    assert_same_ball(small, build_group(spec).ball(radius))


@pytest.mark.parametrize("radius", [0, -1, 5])
def test_prefix_radius_outside_the_ball_is_refused(f2_model, radius):
    with pytest.raises(ValueError, match=r"prefix radius must lie in \[1, 4\]"):
        f2_model.ball(4).prefix(radius)


def test_smaller_balls_keep_the_budget_of_the_ball_they_come_from(monkeypatch):
    # every smaller ball is a prefix of a ball built over the default budget
    monkeypatch.setattr(groups, "DEFAULT_VERTEX_BUDGET", 100)
    z2 = build_group({"family": "free_abelian", "params": {"d": 2}})
    ball = z2.ball(10, budget=1000)
    with pytest.raises(BudgetError):
        z2.ball(9)
    shifted, report = translate(ScalarField.delta(ball, 0), 1)
    assert (report.radius, len(shifted.ball)) == (9, 181)
    _, remainder, report = difference_approximation(ScalarField.delta(ball, 0), 1, 3, 2.0)
    assert (report.radius, len(remainder.ball), report.mass_preserved) == (8, 145, True)
    extended = build_group({"family": "free_abelian", "params": {"d": 2, "extra_generators": [["x1", "x2"]]}})
    psi, report = rough_inverse(CoarseMap.fit(ball, extended.ball(10, budget=1000)))
    assert report.n_scope == len(psi.domain) > 100


def test_vertex_ids_outside_the_ball_are_refused(f2_model):
    # -1 is what locate returns for a row outside the ball
    ball = f2_model.ball(3)
    for bad in (-1, len(ball)):
        with pytest.raises(ValueError, match=f"vertex id {bad} outside \\[0, 53\\)"):
            ball.hops(bad)
        with pytest.raises(ValueError, match=f"vertex id {bad} outside"):
            ball.pair_hops([0, bad], [1, 2])
        with pytest.raises(ValueError, match=f"vertex id {bad} outside"):
            ball.pair_hops([0, 1], [bad, 2])
    assert ball.pair_hops([0], [52]).tolist() == [3]


# every family at the widest rows it takes: long thin balls, the largest
# generating sets, long extra words, and lamps past the first 64-bit word
CODE_EXTREMES = [
    ({"family": "free", "params": {"k": 1}}, 300),
    ({"family": "free_product_z2", "params": {"m": 2}}, 300),
    ({"family": "free", "params": {"k": 3}}, 5),
    ({"family": "free_product_z2", "params": {"m": 4}}, 6),
    ({"family": "free_abelian", "params": {"d": 1}}, 300),
    ({"family": "free_abelian", "params": {"d": 4}}, 6),
    ({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b", "a", "b", "a"]]}}, 7),
    ({"family": "lamplighter", "params": {"extra_generators": [["t", "t", "t", "a"]]}}, 8),
    ({"family": "lamplighter", "params": {"extra_generators": [["t-"] * 40 + ["a"]]}}, 3),
]


def budget_text(model, radius, budget, level):
    projected = model.ball_size(radius)
    if projected is not None:
        return f"ball of radius {radius} on {model.name} has {projected} vertices, over the budget {budget}"
    return (
        f"ball of radius {radius} on {model.name} exceeds the vertex budget {budget} "
        f"(already {budget + 1} vertices at radius {level})"
    )


@pytest.mark.parametrize("spec, radius", CODE_EXTREMES)
def test_coded_ball_matches_plain_bfs_and_budget_names_the_level(spec, radius):
    vertices, depth, rows = plain_ball(build_group(spec), radius)
    model = build_group(spec)
    ball = model.ball(radius)
    assert ball.vertices == vertices
    assert ball.index == {g: i for i, g in enumerate(vertices)}
    assert ball.depth.tolist() == depth
    rows = np.array(rows, dtype=np.int64)
    assert np.array_equal(ball.full_adj(), rows)
    assert np.array_equal(ball.adj, rows[: ball.n_interior])

    # the budget is crossed at `level`
    level = radius // 2 + 1
    budget = depth.index(level)
    with pytest.raises(BudgetError) as err:
        model.ball(radius, budget=budget)
    assert str(err.value) == budget_text(model, radius, budget, level)


def test_thin_balls_of_long_words_exceed_the_code_budget_up_front():
    # linear growth keeps radius 99 999 within the vertex budget, but every
    # row holds a whole word: tens of GB of codes, refused before enumerating
    f1 = {"family": "free", "params": {"k": 1}}
    for spec in (f1, {"family": "free_product_z2", "params": {"m": 2}},
                 {"family": "free", "params": {"k": 1, "extra_generators": [["a", "a"]]}}):
        model = build_group(spec)
        with pytest.raises(BudgetError, match="bytes of codes"):
            model.ball(99_999)
    assert len(build_group(f1).ball(3_000)) == 6_001


def test_thin_extended_balls_are_bounded_by_the_base_ball(capsys):
    # F_1 + [a,a] at radius R lies in F_1 at radius 2R: 4R + 1 rows, not the budget's 200 000
    spec = {"family": "free", "params": {"k": 1, "extra_generators": [["a", "a"]]}}
    assert main(["describe", "--group", json.dumps(spec), "--radius", "600", "--out", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["ball_sizes"][-1] == 2401
    model = build_group(spec)
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="bytes of codes"):
            model.ball(99_999)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1e-3


# each family with its stock and one extended generating set; the extended
# rows are wider, except on Z^d, and the lamplighter's t^8 puts lamps past
# position 31, into a column the stock ball of the same radius does not have
LOCATE_SETS = [
    ({"family": "free_abelian", "params": {"d": 2}}, [["x1", "x2"]], 5),
    ({"family": "free", "params": {"k": 2}}, [["a", "b"]], 4),
    ({"family": "free_product_z2", "params": {"m": 3}}, [["s1", "s2"]], 5),
    ({"family": "lamplighter", "params": {}}, [["t"] * 8], 5),
]


@pytest.mark.parametrize("spec, extra, radius", LOCATE_SETS)
def test_locate_agrees_with_index_across_generating_sets(spec, extra, radius):
    stock = build_group(spec)
    extended = build_group({"family": spec["family"], "params": {**spec["params"], "extra_generators": extra}})
    balls = [stock.ball(radius), extended.ball(radius), stock.ball(radius - 1), extended.ball(radius - 2)]
    absent = 0
    for ball in balls:
        for other in balls:
            want = [ball.index.get(g, -1) for g in other.vertices]
            assert ball.locate(other.codes).tolist() == want
            absent += want.count(-1)
    assert absent > 0
    narrow, wide = balls[0].codes, balls[1].codes
    if spec["family"] != "free_abelian":
        assert narrow.shape[1] < wide.shape[1]
        # some wider rows carry a nonzero extra column, and are absent from the stock ball
        extra_cols = wide[:, narrow.shape[1] :].any(axis=1)
        assert extra_cols.any()
        assert np.all(balls[0].locate(wide[extra_cols]) == -1)
    # a stock row with a nonzero column appended is no vertex
    marked = np.concatenate([narrow, np.ones((len(narrow), 1), dtype=narrow.dtype)], axis=1)
    assert np.all(balls[0].locate(marked) == -1)
    assert balls[1].locate(narrow[:0]).shape == (0,)


def test_lamplighter_word_length_closed_form_matches_depth():
    lamp = build_group("lamplighter")
    ball = lamp.ball(12)
    assert len(ball) == 4167
    for g, d in zip(ball.vertices, ball.depth.tolist()):
        assert closed_form_word_length(lamp, g) == d
    far = lamp.reduce(["a", "t"] * 5)
    assert closed_form_word_length(lamp, far) == ball.depth[ball.index[far]] == 10  # five toggles and five moves
