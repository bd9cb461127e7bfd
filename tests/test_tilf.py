"""Translation machinery and functionals built from the energy pairing."""

import itertools

import numpy as np
import pytest

from pharmonic import (
    ScalarField,
    boundary_witness,
    build_group,
    difference_approximation,
    invariance_defect,
    p_laplacian,
    pairing,
    phi_p,
    tilf_evaluate,
    translate,
)


def _id(ball, obj):
    """The vertex id of the element with JSON form ``obj``."""
    return ball.index[ball.model.element_from_obj(obj)]


# ---------------------------------------------------------------------------
# translates


def test_translate_shifts_support(z_model):
    ball = z_model.ball(6)
    f = ScalarField.delta(ball, 0)
    fx, report = translate(f, _id(ball, [2]))
    assert report.shift_length == 2
    assert report.radius == 4
    assert fx.value_at(z_model.element_from_obj([2])) == 1.0
    assert fx.values.sum() == 1.0


def test_translate_by_identity_keeps_ball(f2_model):
    ball = f2_model.ball(4)
    rng = np.random.default_rng(20)
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    fx, report = translate(f, 0)
    assert fx.ball is ball
    np.testing.assert_array_equal(fx.values, f.values)
    assert report.shift_length == 0


def test_translate_shrinks_too_far(z_model):
    f = ScalarField.delta(z_model.ball(3), 0)
    with pytest.raises(ValueError, match="leaves no ball"):
        translate(f, _id(f.ball, [3]))
    for outside in (len(f.ball), -1):
        with pytest.raises(ValueError, match="outside"):
            translate(f, outside)


TRANSLATE_MODELS = [
    build_group(spec)
    for spec in (
        {"family": "free_abelian", "params": {"d": 2}},
        {"family": "free", "params": {"k": 2}},
        {"family": "free_product_z2", "params": {"m": 3}},
        {"family": "lamplighter", "params": {}},
        {"family": "lamplighter", "params": {"extra_generators": [["t", "a"]]}},
    )
]


@pytest.mark.parametrize("model", TRANSLATE_MODELS, ids=lambda m: m.name)
def test_translate_matches_the_tuple_reference(model):
    """f_x(g) = f(g x^-1), with g x^-1 folded by apply_gen over the inverse
    word, for every x of word length at most 2."""
    ball = model.ball(4)
    rng = np.random.default_rng(24)
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    for n in range(3):
        for word in itertools.product(model.gen_labels, repeat=n):
            fx, report = translate(f, ball.index[model.reduce(word)])
            expected = []
            for g in fx.ball.vertices:
                for s in reversed(word):
                    g = model.apply_gen(g, model._inv_label[s])
                expected.append(f.value_at(g))
            assert report.shift_length <= n
            np.testing.assert_array_equal(fx.values, expected)


def test_translate_composition(f2_model):
    """Translating by a then b matches translating by ab."""
    ball = f2_model.ball(6)
    rng = np.random.default_rng(21)
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    # ids are prefix-stable: b names the same element on the shrunken ball
    one, _ = translate(f, _id(ball, ["a"]))
    two, _ = translate(one, _id(ball, ["b"]))
    direct, _ = translate(f, _id(ball, ["a", "b"]))
    # two single steps shrink the ball twice, so compare on the smaller
    np.testing.assert_allclose(two.values, direct.restrict(two.ball).values)


# ---------------------------------------------------------------------------
# difference-plus-remainder splits


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_remainder_norm_identity_exact(z_model, p):
    """Disjoint unclipped supports: remainder norm equals n^(1/p-1)||f||_p."""
    ball = z_model.ball(12)
    f = ScalarField.delta(ball, 0)
    difference, remainder, report = difference_approximation(f, _id(ball, [2]), 4, p)
    assert report.mass_preserved
    assert report.remainder_norm == pytest.approx(report.expected_remainder_norm, rel=1e-14)
    assert report.expected_remainder_norm == pytest.approx(4.0 ** (1.0 / p - 1.0), rel=1e-14)
    # the two parts reassemble f on the common ball
    np.testing.assert_allclose(
        difference.values + remainder.values, f.restrict(difference.ball).values, atol=1e-16
    )


def test_remainder_on_free_group(f2_model):
    ball = f2_model.ball(7)
    f = ScalarField.delta(ball, 0)
    difference, remainder, report = difference_approximation(f, _id(ball, ["a"]), 3, 2.0)
    assert report.radius == 5
    assert report.mass_preserved
    assert remainder.value_at(f2_model.element_from_obj(["a", "a"])) == pytest.approx(1.0 / 3.0)
    assert report.remainder_norm == pytest.approx(3.0 ** -0.5, rel=1e-14)


def test_overlapping_translates_rejected(z_model):
    ball = z_model.ball(8)
    f = ScalarField.indicator(ball, lambda g: abs(g[0]) <= 1)
    with pytest.raises(ValueError, match=rf"^translates along x\^0 and x\^1 overlap at vertex id {_id(ball, [0])}$"):
        difference_approximation(f, _id(ball, [1]), 2, 2.0)
    # supports {0, 1, 5}, {2, 3, 7}, {4, 5, 9}: x^2 meets x^0 at 5 only
    ball = z_model.ball(12)
    f = ScalarField.indicator(ball, lambda g: g[0] in (0, 1, 5))
    with pytest.raises(ValueError, match=rf"^translates along x\^0 and x\^2 overlap at vertex id {_id(ball, [5])}$"):
        difference_approximation(f, _id(ball, [2]), 3, 2.0)


def test_clipped_support_flagged(z_model):
    ball = z_model.ball(8)
    f = ScalarField.delta(ball, _id(ball, [6]))
    difference, remainder, report = difference_approximation(f, _id(ball, [2]), 2, 2.0)
    assert not report.mass_preserved
    assert report.remainder_norm < report.expected_remainder_norm


def test_difference_needs_room(z_model):
    f = ScalarField.delta(z_model.ball(4), 0)
    with pytest.raises(ValueError):
        difference_approximation(f, _id(f.ball, [2]), 3, 2.0)


# ---------------------------------------------------------------------------
# evaluating the functional


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_delta_evaluation_identity(f2_model, p):
    """T(delta_x) = -2 (p-laplacian of h at x), by summation by parts."""
    h = boundary_witness(f2_model, p, [5, 6]).field
    ball = h.ball
    for obj in ([], ["a"], ["b", "a-"]):
        v = _id(ball, obj)
        assert tilf_evaluate(h, ScalarField.delta(ball, v), p) == pytest.approx(
            -2.0 * p_laplacian(h, v, p), abs=1e-12
        )


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_subtree_indicator_evaluation(f2_model, p):
    """Only the root edge crosses the a-subtree boundary, so the pairing
    collapses to twice one arc term."""
    h = boundary_witness(f2_model, p, [5, 6]).field
    code_a = f2_model.letter_code("a")
    f = ScalarField.indicator(h.ball, lambda g: len(g) > 0 and g[0] == code_a)
    expected = 2.0 * float(
        phi_p(h.value_at(f2_model.element_from_obj(["a"])) - h.value_at(f2_model.identity()), p)
    )
    assert tilf_evaluate(h, f, p) == pytest.approx(expected, rel=1e-12)


def test_evaluation_harmonic_tolerance(f2_model):
    ball = f2_model.ball(4)
    rng = np.random.default_rng(22)
    rough = ScalarField(ball, rng.standard_normal(len(ball)))
    f = ScalarField.delta(ball, 0)
    with pytest.raises(ValueError):
        tilf_evaluate(rough, f, 2.0, harmonic_tol=1e-6)
    h = boundary_witness(f2_model, 2.0, [3, 4]).field
    value = tilf_evaluate(h, ScalarField.delta(h.ball, 0), 2.0, harmonic_tol=1e-6)
    assert np.isfinite(value)


def test_evaluation_matches_pairing(f2_model):
    h = boundary_witness(f2_model, 2.0, [4, 5]).field
    f = ScalarField(h.ball, (h.ball.depth <= 1).astype(float))
    assert tilf_evaluate(h, f, 2.0) == pairing(h, f, 2.0)


# ---------------------------------------------------------------------------
# invariance


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_invariance_defect_at_machine_level(f2_model, p):
    """Pairing against a harmonic field cannot see a translation of a
    compactly supported input beyond solver and float noise."""
    h = boundary_witness(f2_model, p, [5, 6]).field
    f = ScalarField.delta(h.ball, 0)
    assert invariance_defect(h, f, _id(h.ball, ["a"]), p) <= 1e-10


def test_invariance_defect_positive_for_nonharmonic(f2_model):
    ball = f2_model.ball(6)
    rng = np.random.default_rng(23)
    rough = ScalarField(ball, rng.standard_normal(len(ball)))
    f = ScalarField.delta(ball, 0)
    assert invariance_defect(rough, f, _id(ball, ["a"]), 2.0) > 1e-3
