"""Ball construction checked against from-scratch enumerations.

Each family gets an independent implementation of its elements and moves
(plain tuples/sets, no package code), a hand-rolled BFS, and a comparison
of sphere sizes and vertex sets through element_to_obj.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pharmonic import BudgetError, CayleyBall, build_group

from conftest import closed_form_word_length, reference_arcs


# ---------------------------------------------------------------------------
# independent element arithmetic, one implementation per family


def zd_neighbors(v):
    for i in range(len(v)):
        for s in (-1, 1):
            w = list(v)
            w[i] += s
            yield tuple(w)


def free_neighbors(word, k=2):
    # letters 1..k and negatives; reduced words as tuples
    letters = [l for i in range(1, k + 1) for l in (i, -i)]
    for l in letters:
        if word and word[-1] == -l:
            yield word[:-1]
        else:
            yield word + (l,)


def zz2_neighbors(word, m=3):
    for l in range(1, m + 1):
        if word and word[-1] == l:
            yield word[:-1]
        else:
            yield word + (l,)


def lamp_neighbors(state):
    lamps, pos = state
    yield (lamps, pos - 1)
    yield (lamps, pos + 1)
    toggled = frozenset(lamps ^ {pos})
    yield (toggled, pos)


def bfs_spheres(start, neighbors, radius):
    """Sphere sizes and the full vertex set, by breadth-first search."""
    seen = {start: 0}
    frontier = [start]
    sizes = [1]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for h in neighbors(g):
                if h not in seen:
                    seen[h] = r
                    nxt.append(h)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes, seen


def as_set(model, ball):
    def freeze(obj):
        if isinstance(obj, list):
            return tuple(freeze(x) for x in obj)
        return obj

    return {freeze(model.element_to_obj(g)) for g in ball.vertices}


# ---------------------------------------------------------------------------
# sphere sizes and vertex sets


def test_zd_ball_matches_enumeration(z2_model):
    radius = 5
    ball = z2_model.ball(radius)
    vol = {tuple(v) for v in itertools.product(range(-radius, radius + 1), repeat=2) if sum(map(abs, v)) <= radius}
    assert as_set(z2_model, ball) == vol
    sizes, _ = bfs_spheres((0, 0), zd_neighbors, radius)
    got = [int(np.sum(ball.depth == r)) for r in range(radius + 1)]
    assert got == sizes


def test_zd_ball_size_formula():
    for d in (1, 2, 3):
        model = build_group({"family": "free_abelian", "params": {"d": d}})
        for r in (1, 2, 4, 7):
            sizes, _ = bfs_spheres(tuple([0] * d), zd_neighbors, r)
            assert model.ball_size(r) == sum(sizes)
            assert len(model.ball(r)) == sum(sizes)


def test_free_group_ball(f2_model):
    radius = 5
    ball = f2_model.ball(radius)
    assert len(ball) == 2 * 3**radius - 1
    sizes, seen = bfs_spheres((), free_neighbors, radius)
    got = [int(np.sum(ball.depth == r)) for r in range(radius + 1)]
    assert got == sizes
    # letters map 1 -> 'a', 2 -> 'b'; compare reduced words as label tuples
    names = {1: "a", -1: "a-", 2: "b", -2: "b-"}
    expected = {tuple(names[l] for l in w) for w in seen}
    assert as_set(f2_model, ball) == expected


def test_free_product_ball(zz2_model):
    radius = 6
    ball = zz2_model.ball(radius)
    sizes, seen = bfs_spheres((), zz2_neighbors, radius)
    got = [int(np.sum(ball.depth == r)) for r in range(radius + 1)]
    assert got == sizes
    # alternating words over s1..s3: 3 * 2^(r-1) on sphere r
    assert sizes[1:] == [3 * 2 ** (r - 1) for r in range(1, radius + 1)]
    expected = {tuple(f"s{l}" for l in w) for w in seen}
    assert as_set(zz2_model, ball) == expected


def test_lamplighter_ball(lamp_model):
    radius = 6
    ball = lamp_model.ball(radius)
    sizes, seen = bfs_spheres((frozenset(), 0), lamp_neighbors, radius)
    got = [int(np.sum(ball.depth == r)) for r in range(radius + 1)]
    assert got == sizes
    expected = {(tuple(sorted(lamps)), pos) for lamps, pos in seen}
    assert as_set(lamp_model, ball) == expected


def test_extended_generators_ball(f2_model):
    ext = build_group({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}})
    assert ext.degree == f2_model.degree + 2

    def ext_neighbors(word):
        yield from free_neighbors(word)
        for extra in ((1, 2), (-2, -1)):
            w = word
            for l in extra:
                if w and w[-1] == -l:
                    w = w[:-1]
                else:
                    w = w + (l,)
            yield w

    radius = 4
    ball = ext.ball(radius)
    sizes, _ = bfs_spheres((), ext_neighbors, radius)
    got = [int(np.sum(ball.depth == r)) for r in range(radius + 1)]
    assert got == sizes
    assert len(ball) == sum(sizes)
    # the shortcut word has length one in the new metric
    ab = ext.element_from_obj(["a", "b"])
    assert ball.depth[ball.index[ab]] == 1


# ---------------------------------------------------------------------------
# structure of the ball object


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "free_abelian", "params": {"d": 2}},
        {"family": "free", "params": {"k": 2}},
        {"family": "free_product_z2", "params": {"m": 3}},
        {"family": "lamplighter", "params": {}},
    ],
)
def test_ball_invariants(spec):
    model = build_group(spec)
    ball = model.ball(4)
    # depth is nondecreasing along the vertex order and matches the closed-form word length
    assert np.all(np.diff(ball.depth) >= 0)
    for i, g in enumerate(ball.vertices):
        assert closed_form_word_length(model, g) == ball.depth[i]
    # interior prefix: exactly the depth < radius vertices
    assert ball.n_interior == int(np.sum(ball.depth < 4))
    assert np.all(ball.depth[: ball.n_interior] < 4)
    # adjacency rows agree with neighbors() and stay inside the ball
    for i in range(ball.n_interior):
        expected = [ball.index[h] for h in model.neighbors(ball.vertices[i])]
        assert list(ball.adj[i]) == expected
    # arcs: two per edge with an interior endpoint, matching the rebuild
    tails, heads = ball.arcs()
    got = set(zip(tails.tolist(), heads.tolist()))
    assert got == set(reference_arcs(ball))
    assert len(tails) == len(got)


def test_prefix_property(f2_model, lamp_model):
    for model in (f2_model, lamp_model):
        big = model.ball(5)
        for r in (2, 3, 4):
            small = model.ball(r)
            assert small.vertices == big.vertices[: len(small)]
            assert np.array_equal(small.depth, big.depth[: len(small)])


def test_full_adj(f2_model):
    ball = f2_model.ball(3)
    full = ball.full_adj()
    assert np.array_equal(full[: ball.n_interior], ball.adj)
    for i in range(ball.n_interior, len(ball)):
        row = [ball.index.get(h, -1) for h in f2_model.neighbors(ball.vertices[i])]
        assert list(full[i]) == row
    # sphere rows must mention at least one out-of-ball neighbor
    assert np.all((full[ball.n_interior:] == -1).any(axis=1))


def test_budget_error(f2_model):
    with pytest.raises(BudgetError):
        f2_model.ball(8, budget=100)
    # a budget that is large enough passes
    ball = f2_model.ball(3, budget=100)
    assert len(ball) == 53


def test_ball_determinism(lamp_model):
    b1 = lamp_model.ball(4)
    b2 = lamp_model.ball(4)
    assert b1.vertices == b2.vertices
    assert np.array_equal(b1.adj, b2.adj)
    assert b1.compatible(b2)


def test_compatible_rejects_mismatch(f2_model, z2_model):
    assert not f2_model.ball(3).compatible(z2_model.ball(3))
    assert not f2_model.ball(3).compatible(f2_model.ball(4))


def test_letter_codes(f2_model, zz2_model):
    assert f2_model.letter_code("a") != f2_model.letter_code("b")
    with pytest.raises(ValueError):
        f2_model.letter_code("q")
    with pytest.raises(ValueError):
        zz2_model.letter_code("a")


def test_build_group_validation():
    with pytest.raises(ValueError):
        build_group({"family": "dihedral", "params": {}})
    with pytest.raises(ValueError):
        build_group({"family": "free", "params": {"k": 9}})
    with pytest.raises(ValueError):
        build_group(42)


def test_describe(z_model):
    info = z_model.describe(5)
    assert info["name"] == "Z"
    assert info["degree"] == 2
    assert info["sphere_sizes"] == [1, 2, 2, 2, 2, 2]


# ---------------------------------------------------------------------------
# group axioms on random words, every family and two extended generating sets

AXIOM_MODELS = [
    build_group(spec)
    for spec in (
        {"family": "free_abelian", "params": {"d": 2}},
        {"family": "free", "params": {"k": 2}},
        {"family": "free_product_z2", "params": {"m": 3}},
        {"family": "lamplighter", "params": {}},
        {"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}},
        {"family": "lamplighter", "params": {"extra_generators": [["t", "a"]]}},
    )
]


@st.composite
def model_and_words(draw):
    model = draw(st.sampled_from(AXIOM_MODELS))
    words = st.lists(st.sampled_from(model.gen_labels), max_size=12)
    return model, draw(words), draw(words)


def times_word(model, codes, word):
    """Code rows right-multiplied by a word of generator labels."""
    return model._times_letters(codes, [letter for s in word for letter in model._letters(s)])


@settings(max_examples=300, deadline=None)
@given(model_and_words())
def test_group_axioms_on_random_words(drawn):
    model, u, v = drawn
    e = model.identity()
    g = model.reduce(u)
    # the row law against the tuple reference: u then v is u + v, u then u^-1 is e
    width = model._code_width(model._word_bound * (len(u) + len(v) + 1))
    row_u = times_word(model, np.zeros((1, width), dtype=model._code_dtype), u)
    assert model._decode(times_word(model, row_u, v)) == [model.reduce(u + v)]
    u_inv = [model._inv_label[s] for s in reversed(u)]
    assert model._decode(times_word(model, row_u, u_inv)) == [e]
    assert model.element_from_obj(model.element_to_obj(g)) == g
    assert model.element_from_obj(json.loads(json.dumps(model.element_to_obj(g)))) == g
    for s in model.gen_labels:
        # the inverse label, found from the group law alone
        (s_inv,) = [t for t in model.gen_labels if model.reduce([s, t]) == e]
        assert model.reduce(u + [s, s_inv]) == g


REDUCED_WORD_MODELS = [
    build_group(spec)
    for spec in (
        {"family": "free", "params": {"k": 1}},
        {"family": "free", "params": {"k": 2}},
        {"family": "free", "params": {"k": 3}},
        {"family": "free_product_z2", "params": {"m": 2}},
        {"family": "free_product_z2", "params": {"m": 3}},
    )
]


def reduced_rows(width, words):
    """Reduced words as code rows of ``width`` letters, padded with zeros."""
    rows = np.zeros((len(words), width), dtype=np.int8)
    for row, word in zip(rows, words):
        row[: len(word)] = word
    return rows


def fold_with_room(model, word, letters, width):
    """The tuple law's product, or None where a partial product, letter by
    letter, would need more than ``width`` letters."""
    for letter in letters:
        word = model._fold(word, [letter])
        if len(word) > width:
            return None
    return word


@st.composite
def reduced_rows_and_product(draw):
    """Rows of reduced words: an empty row first, and, when drawn, a row of
    the full width with an empty row right after it. The product is a word
    of letters, which may start with the inverse of one row's word."""
    model = draw(st.sampled_from(REDUCED_WORD_MODELS))
    letters = sorted(model._codes)
    width = draw(st.integers(1, 6))
    words = [model._fold((), draw(st.lists(st.sampled_from(letters), max_size=2 * width)))[:width]
             for _ in range(draw(st.integers(0, 5)))]
    full = ()
    if draw(st.booleans()):
        while len(full) < width:
            # a prefix of a reduced word is reduced, and so is the next letter that does not cancel
            full += (draw(st.sampled_from([model._codes[x] for x in letters
                                           if not full or model._inv_code[model._codes[x]] != full[-1]])),)
        at = draw(st.integers(0, len(words)))
        words[at:at] = [full, ()]
    words = [()] + words
    product = draw(st.lists(st.sampled_from(letters), max_size=width + 2))
    cancel = draw(st.sampled_from(words))
    if draw(st.booleans()):
        product = [model._labels_by_code[model._inv_code[c]] for c in reversed(cancel)] + product
    return model, width, words, product, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(reduced_rows_and_product())
def test_reduced_word_products_follow_the_tuple_law(drawn):
    """``_times_letters`` on rows of reduced words against ``_fold``, with
    and without the row lengths given: an empty row reads no last letter,
    a product may cancel a whole word, an involutive letter cancels itself,
    and a product with no room in the row raises IndexError."""
    model, width, words, product, given_length = drawn
    codes = reduced_rows(width, words)
    before = codes.copy()
    length = np.array([len(w) for w in words]) if given_length else None
    want = [fold_with_room(model, w, product, width) for w in words]
    if any(w is None for w in want):
        with pytest.raises(IndexError):
            model._times_letters(codes, product, length=length)
    else:
        out = model._times_letters(codes, product, length=length)
        assert out.dtype == codes.dtype
        assert np.array_equal(out, reduced_rows(width, want))
    assert np.array_equal(codes, before)


def test_reduced_word_products_at_the_row_width():
    model = build_group({"family": "free", "params": {"k": 2}})
    # rows: empty, the full-width word ab, empty again
    codes = reduced_rows(2, [(), (1, 2), ()])
    assert model._times_letters(codes, ["b-", "a-"]).tolist() == [[-2, -1], [0, 0], [-2, -1]]
    # ab b does not fit in two letters, and must not spill into the next row
    with pytest.raises(IndexError):
        model._times_letters(codes, ["b"])
    z2 = build_group({"family": "free_product_z2", "params": {"m": 3}})
    assert z2._times_letters(reduced_rows(3, [(1, 2, 3), ()]), ["s3", "s2", "s1"]).tolist() == [[0, 0, 0], [3, 2, 1]]


@pytest.mark.parametrize("model", AXIOM_MODELS, ids=lambda m: m.name)
def test_empty_word_keeps_rows_and_dtype(model):
    codes = model.ball(3).codes
    out = model._times_letters(codes, [])
    assert out.dtype == codes.dtype
    assert np.array_equal(out, codes)


@pytest.mark.parametrize("model", AXIOM_MODELS, ids=lambda m: m.name)
def test_spell_gives_geodesic_words(model):
    ball = model.ball(4)
    for v in range(len(ball)):
        word = ball._spell(v)
        assert len(word) == ball.depth[v]
        assert model.reduce(word) == ball.vertices[v]


@pytest.mark.parametrize(
    "spec, obj",
    [
        ({"family": "free_abelian", "params": {"d": 2}}, [[1], 0]),
        ({"family": "free_abelian", "params": {"d": 2}}, [True, 0]),
        ({"family": "free_abelian", "params": {"d": 2}}, [1, 2, 3]),
        ({"family": "free", "params": {"k": 2}}, [["a"]]),
        ({"family": "free", "params": {"k": 2}}, "ab"),
        # elements stay words over the family's letters, not the generator labels
        ({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}}, ["u1"]),
        ({"family": "free_product_z2", "params": {"m": 3}}, [1]),
        ({"family": "lamplighter", "params": {}}, [3, 0]),
        ({"family": "lamplighter", "params": {}}, [[0.5], 0]),
        ({"family": "lamplighter", "params": {}}, [[0], "1"]),
        ({"family": "lamplighter", "params": {}}, [[1, 1], 0]),
    ],
)
def test_element_from_obj_rejects_malformed_json(spec, obj):
    with pytest.raises(ValueError):
        build_group(spec).element_from_obj(obj)


def test_lamplighter_from_obj_is_canonical(lamp_model):
    g = lamp_model.reduce(["a", "t", "a", "t", "t", "a"])
    assert lamp_model.element_from_obj([[3, 0, 1], 3.0]) == g
    assert lamp_model.element_from_obj(lamp_model.element_to_obj(g)) == g
