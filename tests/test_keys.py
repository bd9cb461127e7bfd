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
