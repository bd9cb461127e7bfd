"""Field container, truncated energy, and the discrete pairing."""

import numpy as np
import pytest

from pharmonic import (
    P_MAX,
    P_MIN,
    ScalarField,
    bdp_norm,
    check_exponent,
    p_laplacian,
    p_laplacian_interior,
    pairing,
    phi_p,
    seminorm_p,
)

from conftest import reference_arcs, reference_energy


def test_exponent_range():
    assert check_exponent(2.0) == 2.0
    assert check_exponent(P_MIN) == P_MIN
    assert check_exponent(P_MAX) == P_MAX
    for bad in (1.0, 1.05, 8.5, 0.0, -2.0, float("nan")):
        with pytest.raises(ValueError):
            check_exponent(bad)


def test_phi_p():
    d = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(phi_p(d, 2.0), d)
    out = phi_p(d, 3.0)
    np.testing.assert_allclose(out, np.sign(d) * np.abs(d) ** 2)
    # odd function for fractional exponents too, no nan from negatives
    out = phi_p(d, 1.5)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, -phi_p(-d, 1.5))


def test_field_constructors(z_model):
    ball = z_model.ball(3)
    c = ScalarField.constant(ball, 2.5)
    assert c.sup_norm() == 2.5
    d = ScalarField.delta(ball, 0)
    assert d.value_at(z_model.identity()) == 1.0
    assert np.flatnonzero(d.values).tolist() == [0]
    ind = ScalarField.indicator(ball, lambda g: z_model.element_to_obj(g)[0] > 0)
    assert int(ind.values.sum()) == 3
    with pytest.raises(ValueError):
        ScalarField(ball, np.zeros(5))
    with pytest.raises(ValueError):
        ScalarField(ball, np.full(len(ball), np.nan))


def test_delta_rejects_ids_outside_the_ball(z_model):
    # a -1 from CayleyBall.locate must not light the last vertex
    ball = z_model.ball(3)
    for bad in (-1, len(ball), (0,), 1.0):
        with pytest.raises(ValueError):
            ScalarField.delta(ball, bad)
    assert ScalarField.delta(ball, len(ball) - 1).values[-1] == 1.0
    assert ScalarField.delta(ball, np.int64(2)).values[2] == 1.0


def test_value_at_missing_raises(z_model):
    ball = z_model.ball(3)
    f = ScalarField.constant(ball, 1.0)
    outside = z_model.element_from_obj([11])
    with pytest.raises(KeyError):
        f.value_at(outside)


def test_field_arithmetic(z_model):
    ball = z_model.ball(3)
    f = ScalarField.delta(ball, 0)
    g = ScalarField.constant(ball, 1.0)
    np.testing.assert_allclose((f + g).values, f.values + 1.0)
    np.testing.assert_allclose((f - g).values, f.values - 1.0)
    np.testing.assert_allclose((f * 3.0).values, 3.0 * f.values)
    other = ScalarField.constant(z_model.ball(2), 1.0)
    with pytest.raises(ValueError):
        f + other


def test_restrict(f2_model):
    big = f2_model.ball(4)
    small = f2_model.ball(2)
    rng = np.random.default_rng(0)
    f = ScalarField(big, rng.standard_normal(len(big)))
    g = f.restrict(small)
    for h in small.vertices:
        assert g.value_at(h) == f.value_at(h)
    with pytest.raises(ValueError):
        g.restrict(big)


def test_delta_seminorm_oracle(z_model):
    # two edges meet the origin; four arcs of unit difference
    ball = z_model.ball(3)
    d = ScalarField.delta(ball, 0)
    assert seminorm_p(d, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert seminorm_p(d, 3.0) == pytest.approx(4.0 ** (1 / 3), abs=1e-15)
    assert bdp_norm(d, 2.0) == pytest.approx(1.0 + 2.0, abs=1e-15)  # sup plus seminorm


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 8.0])
def test_seminorm_matches_reference(f2_model, p):
    ball = f2_model.ball(3)
    rng = np.random.default_rng(2)
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    assert seminorm_p(f, p) ** p == pytest.approx(reference_energy(ball, f.values, p), rel=1e-12)


def test_affine_is_harmonic_on_z(z_model):
    ball = z_model.ball(5)
    f = ScalarField(ball, np.array([z_model.element_to_obj(g)[0] * 0.7 + 0.1 for g in ball.vertices]))
    for p in (1.5, 2.0, 4.0):
        np.testing.assert_allclose(p_laplacian_interior(f, p), 0.0, atol=1e-15)
        assert p_laplacian(f, 0, p) == pytest.approx(0.0, abs=1e-15)


def test_laplacian_sphere_rejected(z_model):
    ball = z_model.ball(3)
    f = ScalarField.constant(ball, 0.0)
    edge = z_model.element_from_obj([3])
    with pytest.raises(ValueError, match="bounding sphere"):
        p_laplacian(f, ball.index[edge], 2.0)


def test_laplacian_rejects_ids_outside_the_interior(lamp_model):
    # id -1 used to read adj[-1], the last interior row, against values[-1],
    # the last sphere vertex, and return a wrong number
    ball = lamp_model.ball(3)
    f = ScalarField(ball, np.random.default_rng(0).standard_normal(len(ball)))
    assert p_laplacian(f, ball.n_interior - 1, 2.0) == pytest.approx(
        float(np.sum(f.values[ball.adj[-1]] - f.values[ball.n_interior - 1])), rel=1e-12
    )
    for bad in (-1, -len(ball), ball.n_interior, len(ball), len(ball) + 5):
        with pytest.raises(ValueError):
            p_laplacian(f, bad, 2.0)
    with pytest.raises(ValueError):
        p_laplacian(f, lamp_model.identity(), 2.0)


def test_laplacian_matches_loops(lamp_model):
    ball = lamp_model.ball(4)
    rng = np.random.default_rng(3)
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    p = 2.7
    lap = p_laplacian_interior(f, p)
    assert lap.shape == (ball.n_interior,)
    for i in range(0, ball.n_interior, 7):
        g = ball.vertices[i]
        expected = sum(
            phi_p(f.value_at(h) - f.values[i], p) for h in lamp_model.neighbors(g)
        )
        assert lap[i] == pytest.approx(expected, rel=1e-12)
        assert p_laplacian(f, i, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [1.3, 2.0, 3.5])
def test_pairing_identity(f2_model, p):
    """The sum-by-parts form: pairing(h, f) = -2 sum f * (p-laplacian of h)
    whenever f vanishes off the interior."""
    ball = f2_model.ball(4)
    rng = np.random.default_rng(4)
    h = ScalarField(ball, rng.standard_normal(len(ball)))
    mask = ball.depth <= 2
    f = ScalarField(ball, np.where(mask, rng.standard_normal(len(ball)), 0.0))
    lhs = pairing(h, f, p)
    lap = p_laplacian_interior(h, p)
    rhs = -2.0 * float(np.sum(f.values[: ball.n_interior] * lap))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_pairing_linear_in_f(z2_model):
    ball = z2_model.ball(3)
    rng = np.random.default_rng(5)
    h = ScalarField(ball, rng.standard_normal(len(ball)))
    f1 = ScalarField(ball, rng.standard_normal(len(ball)))
    f2 = ScalarField(ball, rng.standard_normal(len(ball)))
    p = 2.4
    lhs = pairing(h, f1 + f2 * 2.0, p)
    assert lhs == pytest.approx(pairing(h, f1, p) + 2.0 * pairing(h, f2, p), rel=1e-12)


def test_pairing_brute_force(z_model):
    ball = z_model.ball(3)
    rng = np.random.default_rng(6)
    h = ScalarField(ball, rng.standard_normal(len(ball)))
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    p = 1.8
    expected = sum(
        phi_p(h.values[j] - h.values[i], p) * (f.values[j] - f.values[i])
        for i, j in reference_arcs(ball)
    )
    assert pairing(h, f, p) == pytest.approx(expected, rel=1e-12)
