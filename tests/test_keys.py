"""Packed lookup keys of Cayley balls against an ``np.void`` reference.

A breadth-first pass packs each code row into one ``uint64`` key when the
row's columns fit in 64 bits, and keeps whole-row ``np.void`` keys when
they do not. Every lookup here (``locate``, ``full_adj`` and the pass's
own adjacency rows) is compared with a sorted ``np.void`` index of the
ball's rows built in this file, on balls on both sides of that limit.
"""

import numpy as np
import pytest

from pharmonic import build_group
from pharmonic.groups import _KeyLayout


def void_keys(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).reshape(-1)


def reference_locate(ball, rows: np.ndarray) -> np.ndarray:
    """The vertex id of each row by whole-row ``np.void`` search: rows are
    padded with zero columns or trimmed, and a row with a nonzero trimmed
    column, or a value the ball's dtype cannot hold, is absent (-1)."""
    width = ball.codes.shape[1]
    rows = np.asarray(rows)
    padded = np.zeros((len(rows), max(width, rows.shape[1])), dtype=np.int64)
    padded[:, : rows.shape[1]] = rows
    cast = padded[:, :width].astype(ball.codes.dtype)
    absent = padded[:, width:].any(axis=1) | (cast != padded[:, :width]).any(axis=1)
    index = void_keys(ball.codes)
    order = np.argsort(index)
    keys = void_keys(cast)
    pos = np.minimum(np.searchsorted(index[order], keys), len(ball) - 1)
    ids = np.where(index[order][pos] == keys, order[pos], -1)
    ids[absent] = -1
    return ids


def mutants(ball) -> np.ndarray:
    """Rows of the ball with one column moved off its range: to one past the
    ball's letter capacity (a Z^d coordinate or cursor past its bound, a
    letter code no letter has), and by plus or minus a power of two, which
    leaves the low bits of a column unchanged; plus rows with a nonzero
    column appended."""
    codes = np.concatenate([ball.codes[:200], ball.codes[-200:]]).astype(np.int64)
    capacity = (ball.radius + 1) * ball.model._word_bound
    info = np.iinfo(ball.codes.dtype)
    out = [np.concatenate([codes, np.ones((len(codes), 1), dtype=np.int64)], axis=1)]
    for j in range(codes.shape[1]):
        for value in (capacity + 1, -capacity - 1):
            rows = codes.copy()
            rows[:, j] = value
            out.append(rows)
        for shift in (4, 5, 8, 16, 31, 62):
            for step in (1 << shift, -(1 << shift)):
                rows = codes.copy()
                rows[:, j] += step
                out.append(rows[(rows[:, j] >= info.min) & (rows[:, j] <= info.max)])
    wide = max(len(row) for row in out)
    return np.concatenate([np.pad(rows, ((0, 0), (0, wide - rows.shape[1]))) for rows in out])


# each family with its stock and one extended generating set, at radii given
# with whether the pass packs its keys: 16 letters of a reduced word pack and
# 17 do not; the lamplighter with t^8 at radius 3, and with tat at radius 9,
# has more lamp bits than fit beside its cursor
KEY_SETS = [
    ({"family": "free", "params": {"k": 1}}, [["a", "a", "a"]], [(15, True), (16, False)], [(4, True), (5, False)]),
    ({"family": "free", "params": {"k": 2}}, [["a", "b", "a"]], [(6, True)], [(4, True), (5, False)]),
    (
        {"family": "free_product_z2", "params": {"m": 3}},
        [["s1", "s2", "s3"]],
        [(7, True)],
        [(4, True), (5, False)],
    ),
    ({"family": "free_abelian", "params": {"d": 2}}, [["x1", "x2"]], [(8, True)], [(6, True)]),
    ({"family": "lamplighter", "params": {}}, [["t"] * 8], [(7, True)], [(2, True), (3, False)]),
    ({"family": "lamplighter", "params": {}}, [["t", "a", "t"]], [(7, True)], [(8, True), (9, False)]),
]


@pytest.mark.parametrize("spec, extra, stock_radii, extended_radii", KEY_SETS)
def test_packed_lookups_match_the_void_reference(spec, extra, stock_radii, extended_radii):
    extended = {"family": spec["family"], "params": {**spec["params"], "extra_generators": extra}}
    balls = []
    for group, radii in ((spec, stock_radii), (extended, extended_radii)):
        for radius, packed in radii:
            ball = build_group(group).ball(radius)
            assert ball._layout.packed is packed
            balls.append(ball)
    absent = 0
    for ball in balls:
        model = ball.model
        assert ball.locate(ball.codes).tolist() == list(range(len(ball)))
        # every adjacency slot, sphere included, against the reference
        neighbors = model._neighbor_codes(ball.codes)
        want = reference_locate(ball, neighbors).reshape(-1, model.degree)
        assert np.array_equal(ball.full_adj(), want)
        # sphere neighbors outside the ball are absent from the whole-ball index too
        outside = want[ball.n_interior :] < 0
        assert outside.any()
        sphere_neighbors = neighbors.reshape(len(ball), model.degree, -1)[ball.n_interior :][outside]
        assert np.all(ball.locate(sphere_neighbors) == -1)
        for other in balls:
            assert np.array_equal(ball.locate(other.codes), reference_locate(ball, other.codes))
        rows = mutants(ball)
        want = reference_locate(ball, rows)
        assert np.array_equal(ball.locate(rows), want)
        absent += int(np.count_nonzero(want < 0))
    assert absent > 0


SWITCHES = [
    ({"family": "free", "params": {"k": 1}}, 10, 300),
    ({"family": "free_product_z2", "params": {"m": 2}}, 10, 300),
    ({"family": "lamplighter", "params": {"extra_generators": [["t", "a", "t"]]}}, 7, 9),
]


@pytest.mark.parametrize("spec, small_radius, large_radius", SWITCHES)
def test_a_continued_pass_switches_from_packed_to_void_keys(spec, small_radius, large_radius):
    model = build_group(spec)
    small = model.ball(small_radius)
    large = model.ball(large_radius)
    assert small._layout.packed and not large._layout.packed
    n, width = len(small), small.codes.shape[1]
    # the pass with void keys numbers the packed pass's vertices alike, as its prefix
    assert np.array_equal(large.codes[:n, :width], small.codes)
    assert not large.codes[:n, width:].any()
    assert np.array_equal(large.depth[:n], small.depth)
    assert np.array_equal(large.adj[: small.n_interior], small.adj)
    size = model.ball_size(large_radius)
    assert size is None or len(large) == size
    fresh = build_group(spec).ball(large_radius)
    assert np.array_equal(large.codes, fresh.codes)
    assert np.array_equal(large.adj, fresh.adj)
    assert np.array_equal(large.full_adj(), fresh.full_adj())
    # both balls locate their own rows and each other's
    assert large.locate(large.codes).tolist() == list(range(len(large)))
    assert small.locate(small.codes).tolist() == list(range(n))
    assert large.locate(small.codes).tolist() == list(range(n))
    assert small.locate(large.codes).tolist() == list(range(n)) + [-1] * (len(large) - n)


@pytest.mark.parametrize("spec, extra, stock_radii, extended_radii", KEY_SETS)
def test_bounds_check_in_the_rows_dtype_matches_int64_comparisons(spec, extra, stock_radii, extended_radii):
    """Rows of the ball's own dtype are checked column by column in that
    dtype; on random rows, values outside the bounds and at the ends of the
    dtype included, that agrees with comparing every column as int64."""
    extended = {"family": spec["family"], "params": {**spec["params"], "extra_generators": extra}}
    rng = np.random.default_rng(23)
    for group, radii in ((spec, stock_radii), (extended, extended_radii)):
        for radius, _ in radii:
            ball = build_group(group).ball(radius)
            layout = ball._layout
            dtype = ball.codes.dtype
            info = np.iinfo(dtype)
            n, width = 3000, ball.codes.shape[1]
            lo, hi = layout._lo, layout._hi
            # a third anywhere in the dtype, a third within 3 of the bounds,
            # a third at the ends of the dtype or on a bound
            anywhere = rng.integers(info.min, info.max, size=(n, width), dtype=dtype, endpoint=True)
            near = np.clip(rng.integers(-3, 4, size=(n, width)) + np.where(rng.random((n, width)) < 0.5, lo, hi),
                           info.min, info.max).astype(dtype)
            ends = np.choose(rng.integers(0, 4, size=(n, width)), [np.full(width, info.min), np.full(width, info.max), lo, hi])
            rows = np.concatenate([anywhere, near, ends.astype(dtype)])
            rows = np.concatenate([rows, ball.codes[rng.integers(0, len(ball), size=n)]])
            wide = rows.astype(np.int64)
            want = ((wide >= lo) & (wide <= hi)).all(axis=1)
            got = layout.inside(rows)
            assert np.array_equal(got, want)
            assert want.any() and not want.all()
            assert np.array_equal(layout.inside(wide), want)
            assert np.array_equal(ball.locate(rows), reference_locate(ball, rows))


@pytest.mark.parametrize("spec, extra, stock_radii, extended_radii", KEY_SETS)
def test_sphere_rows_of_a_fresh_ball_need_no_whole_ball_index(spec, extra, stock_radii, extended_radii):
    """``full_adj`` on a ball straight from its pass, before any ``locate``,
    takes the sphere's neighbours one level in from the recorded rows and
    looks up those on the sphere in an index of the sphere level: the rows
    equal the whole-ball reference, and no whole-ball index is built. Every
    prefix view has the rows of a fresh ball of its radius."""
    extended = {"family": spec["family"], "params": {**spec["params"], "extra_generators": extra}}
    for group, radii in ((spec, stock_radii), (extended, extended_radii)):
        for radius, _ in radii:
            ball = build_group(group).ball(radius)
            degree = ball.model.degree
            want = reference_locate(ball, ball.model._neighbor_codes(ball.codes)).reshape(-1, degree)
            assert np.array_equal(ball.full_adj(), want)
            assert ball._sorted is None
            for r in sorted({1, radius // 2, radius - 1} - {0}):
                fresh = build_group(group).ball(r)
                assert np.array_equal(ball.prefix(r).full_adj(), fresh.full_adj())


# extended sets that KEY_SETS leaves out, at radii where their rows pack:
# the benchmark's roughiso codomain F_2 + [a,b] at R = 7; involutive words,
# of odd length (no two vertices of one depth are adjacent) and of even
# length ([t,a,t-,a] lights lamps 0 and 1, and its sphere has edges of its
# own); and a word equal to a stock letter
EXTENDED_SPHERES = [
    ({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}}, 7),
    ({"family": "free_product_z2", "params": {"m": 3, "extra_generators": [["s1", "s2", "s1"]]}}, 4),
    ({"family": "lamplighter", "params": {"extra_generators": [["t", "a", "t-"]]}}, 7),
    ({"family": "lamplighter", "params": {"extra_generators": [["t", "a", "t-", "a"]]}}, 6),
    ({"family": "free", "params": {"k": 2, "extra_generators": [["a"]]}}, 6),
]


@pytest.mark.parametrize("spec, radius", EXTENDED_SPHERES)
@pytest.mark.parametrize("packed", [True, False], ids=["packed", "void"])
def test_sphere_rows_of_extended_sets_match_the_void_reference(spec, radius, packed, monkeypatch):
    """The sphere rows of ``full_adj`` against the reference, with the keys
    of the pass packed and, forced, as whole-row ``np.void``: on a fresh
    ball (which builds no whole-ball index), after a ``locate``, and on
    every prefix view."""
    if not packed:
        init = _KeyLayout.__init__

        def unpacked(self, *args):
            init(self, *args)
            self.packed = False

        monkeypatch.setattr(_KeyLayout, "__init__", unpacked)
    model = build_group(spec)
    fresh, located = model.ball(radius), model.ball(radius)
    assert fresh._layout.packed is packed

    def reference(ball):
        return reference_locate(ball, model._neighbor_codes(ball.codes)).reshape(-1, model.degree)

    want = reference(fresh)
    sphere = want[fresh.n_interior :]
    assert np.any(sphere < 0) and np.all(np.any(sphere >= 0, axis=1))
    # only sets with a word of even length have edges inside the sphere
    assert np.any(fresh.depth[sphere[sphere >= 0]] == radius) is not model._bipartite
    assert np.array_equal(fresh.full_adj(), want)
    assert fresh._sorted is None
    assert located.locate(located.codes[-1:]).tolist() == [len(located) - 1]
    assert np.array_equal(located.full_adj(), want)
    for ball in (fresh, located):
        for r in range(1, radius):
            assert np.array_equal(ball.prefix(r).full_adj(), reference(ball.prefix(r)))
