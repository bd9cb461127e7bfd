"""Radius-schedule instruments: witnesses, capacity profiles, the
f = u + h split, and escape potentials of marked subsets.

Closed-form references used below all come from series reduction on
radially symmetric networks (see conftest.radial_capacity and the inline
shell counts); trees and Z are the only inputs where that applies, and
they anchor every verdict the instruments can emit.
"""

import numpy as np
import pytest

from pharmonic import (
    DirectionMarking,
    DirichletProblem,
    ScalarField,
    SolverConfig,
    SubsetSpec,
    boundary_witness,
    build_group,
    default_marking,
    half_space_subset,
    inner_potential,
    letter_subtree_subset,
    p_laplacian_interior,
    pairing,
    parabolicity_profile,
    royden_decompose,
    seminorm_p,
    solve_dirichlet,
)


def radial_drop_profile(shell_edge_counts, p):
    """Cumulative drops of the optimal radial potential, normalized to 1."""
    q = 1.0 / (p - 1.0)
    drops = np.array([float(n) ** (-q) for n in shell_edge_counts])
    return np.cumsum(drops) / drops.sum()


# ---------------------------------------------------------------------------
# boundary witness


def test_witness_on_f2_two_thirds_gap(f2_model):
    report = boundary_witness(f2_model, 2.0, [4, 5, 6])
    assert report.verdict == "witness_found"
    assert all(row.converged for row in report.rows)
    # branch symmetry pins the potential at the identity to exactly 1/4:
    # one marked branch at 1, three unmarked pull toward their mirror image
    last = report.rows[-1]
    assert report.field.value_at(f2_model.identity()) == pytest.approx(0.25, abs=1e-7)
    assert last.gap == pytest.approx(2.0 / 3.0, abs=2e-3)
    assert last.marked_count == last.unmarked_count // 3


def test_witness_probe_values_on_f2(f2_model):
    """In the infinite-radius limit u(a) = 3/4 and u(a^-1) = 1/12; by radius
    seven the finite truncation sits within a percent of both."""
    report = boundary_witness(f2_model, 2.0, [6, 7])
    a = f2_model.element_from_obj(["a"])
    a_inv = f2_model.element_from_obj(["a-"])
    assert report.field.value_at(a) == pytest.approx(0.75, abs=0.01)
    assert report.field.value_at(a_inv) == pytest.approx(1.0 / 12.0, abs=0.01)


WITNESS_MODELS = [
    build_group(spec)
    for spec in (
        {"family": "free", "params": {"k": 2}},
        {"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}},
        {"family": "free_product_z2", "params": {"m": 3}},
        {"family": "free_product_z2", "params": {"m": 3, "extra_generators": [["s1", "s2"]]}},
        {"family": "free_abelian", "params": {"d": 2}},
        {"family": "free_abelian", "params": {"d": 3, "extra_generators": [["x1", "x3"]]}},
        {"family": "lamplighter", "params": {}},
        {"family": "lamplighter", "params": {"extra_generators": [["t", "a"]]}},
    )
]


@pytest.mark.parametrize("model", WITNESS_MODELS, ids=lambda m: m.name)
def test_witness_probes_are_the_generator_vertices(model):
    """The probe ids read off the identity's adjacency row are the elements
    of the probe labels, folded by the tuple law, on stock and extended
    generating sets alike."""
    marking = default_marking(model)
    plus, minus = (model.reduce([label]) for label in (marking.plus_probe, marking.minus_probe))
    assert marking.contains(plus) and not marking.contains(minus)
    report = boundary_witness(model, 2.0, [2, 3])
    for row in report.rows:
        assert row.u_plus == row.field.value_at(plus)
        assert row.u_minus == row.field.value_at(minus)


def test_witness_gap_is_one_over_radius_on_z(z_model):
    report = boundary_witness(z_model, 2.0, [4, 8, 16])
    for row in report.rows:
        # the solve is affine between the clamps at -R and R
        assert row.gap == pytest.approx(1.0 / row.radius, abs=1e-9)
    assert report.verdict == "gap_vanishing"


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_witness_gap_on_z_any_exponent(z_model, p):
    report = boundary_witness(z_model, p, [5, 10])
    for row in report.rows:
        assert row.gap == pytest.approx(1.0 / row.radius, abs=1e-8)


def test_witness_vanishes_on_z2(z2_model):
    report = boundary_witness(z2_model, 2.0, [8, 16, 32])
    gaps = [row.gap for row in report.rows]
    assert report.verdict == "gap_vanishing"
    assert gaps[-1] <= 0.55 * gaps[0]
    assert gaps == sorted(gaps, reverse=True)


def test_witness_found_on_free_product(zz2_model):
    report = boundary_witness(zz2_model, 2.0, [5, 6, 7])
    assert report.verdict == "witness_found"
    assert report.rows[-1].gap > 0.05


def test_witness_custom_marking_validation(f2_model):
    everything = DirectionMarking("all", lambda g: True, "a", "a-")
    with pytest.raises(ValueError, match="does not split"):
        boundary_witness(f2_model, 2.0, [3, 4], everything)
    stock = default_marking(f2_model)
    for label in ("x1", "u1", ""):
        bad_probe = DirectionMarking(stock.name, stock.contains, "a", label)
        with pytest.raises(ValueError, match="not generator labels"):
            boundary_witness(f2_model, 2.0, [3, 4], bad_probe)


def test_witness_radii_validation(f2_model):
    with pytest.raises(ValueError):
        boundary_witness(f2_model, 2.0, [4])
    with pytest.raises(ValueError):
        boundary_witness(f2_model, 2.0, [4, 4])
    with pytest.raises(ValueError):
        boundary_witness(f2_model, 2.0, [5, 3])


def test_default_marking_dispatch(f2_model, z2_model, lamp_model):
    from pharmonic import build_group

    for model in (f2_model, z2_model, lamp_model):
        marking = default_marking(model)
        assert marking.contains(model.reduce([marking.plus_probe]))
        assert not marking.contains(model.reduce([marking.minus_probe]))
    ext = build_group({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}})
    base_marking = default_marking(f2_model)
    ext_marking = default_marking(ext)
    ball = ext.ball(3)
    forward = {ext.element_to_obj(g)[0] if ext.element_to_obj(g) else None for g in ball.vertices if ext_marking.contains(g)}
    assert forward == {"a"}
    assert base_marking.name == ext_marking.name


# ---------------------------------------------------------------------------
# parabolicity profile


def test_z_profile_is_parabolic(z_model):
    report = parabolicity_profile(z_model, [4, 8, 16, 32], 2.0)
    assert report.verdict == "parabolic"
    for row in report.rows:
        assert row.capacity == pytest.approx(4.0 / row.radius, rel=1e-8)
    assert report.slope == pytest.approx(-1.0, abs=1e-6)


def test_f2_profile_is_non_parabolic(f2_model):
    report = parabolicity_profile(f2_model, [3, 5, 7], 2.0)
    assert report.verdict == "non_parabolic"
    assert report.rows[-1].capacity == pytest.approx(16.0 / 3.0, rel=1e-3)
    assert report.slope > -0.1


def test_z_profile_any_exponent(z_model):
    report = parabolicity_profile(z_model, [4, 8, 16], 1.5)
    # 4 R^(1-p) with p = 1.5 decays like 1/sqrt(R)
    assert report.slope == pytest.approx(-0.5, abs=1e-6)
    assert report.verdict == "parabolic"


def test_profile_monotone_and_validated(f2_model):
    report = parabolicity_profile(f2_model, [2, 4, 6], 3.0)
    caps = [row.capacity for row in report.rows]
    assert all(b <= a + 1e-9 for a, b in zip(caps, caps[1:]))
    with pytest.raises(ValueError):
        parabolicity_profile(f2_model, [4], 2.0)
    with pytest.raises(ValueError):
        parabolicity_profile(f2_model, [4, 6], 2.0, inner_radius=4)


# ---------------------------------------------------------------------------
# the u + h split


def test_royden_radii_start_at_the_core_radius(f2_model):
    # a radius-1 ball lacks the core the rows compare
    with pytest.raises(ValueError, match="radii must be >= 2"):
        royden_decompose(f2_model, ScalarField.constant(f2_model.ball(3), 0.0), 2.0, [1, 3])


def test_royden_of_compact_bump_is_all_u(f2_model):
    ball = f2_model.ball(5)
    f = ScalarField(ball, (ball.depth <= 1).astype(float))
    u, h, report = royden_decompose(f2_model, f, 2.0, [3, 4, 5])
    np.testing.assert_allclose(h.values, 0.0, atol=1e-12)
    np.testing.assert_allclose(u.values, f.restrict(u.ball).values, atol=1e-12)
    assert report.u_sphere_sup == 0.0


def test_royden_recovers_harmonic_part(f2_model):
    """Witness potential plus a compact bump: the split should hand back
    the witness on the core and leave the bump in u."""
    p = 2.0
    witness = boundary_witness(f2_model, p, [5, 6]).field
    ball = witness.ball
    bump = ScalarField(ball, (ball.depth <= 1).astype(float))
    f = witness + bump
    u, h, report = royden_decompose(f2_model, f, p, [4, 5, 6])
    core = ball.core_indices(2)
    np.testing.assert_allclose(h.values[core], witness.values[core], atol=5e-3)
    assert all(row.converged for row in report.rows)
    # h solves the equation away from the sphere
    np.testing.assert_allclose(p_laplacian_interior(h, p), 0.0, atol=1e-7)
    # energy splits: the harmonic part never exceeds the total
    assert seminorm_p(h, p) <= seminorm_p(f, p) + 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_royden_pairing_orthogonality(f2_model, p):
    """u has compact support inside the final ball, h is p-harmonic there,
    so their pairing must vanish."""
    witness = boundary_witness(f2_model, p, [5, 6]).field
    ball = witness.ball
    bump = ScalarField.delta(ball, 0)
    f = witness + bump
    u, h, report = royden_decompose(f2_model, f, p, [4, 5, 6])
    assert abs(pairing(h, u, p)) <= 1e-8


def test_royden_schedule_invariance(f2_model):
    p = 2.0
    ball = f2_model.ball(6)
    f = ScalarField(ball, (ball.depth <= 2).astype(float)) + (
        boundary_witness(f2_model, p, [5, 6]).field * 0.5
    )
    u1, h1, _ = royden_decompose(f2_model, f, p, [4, 6])
    u2, h2, _ = royden_decompose(f2_model, f, p, [3, 5, 6])
    np.testing.assert_allclose(h1.values, h2.values, atol=1e-9)


def test_royden_refuses_a_callable(z2_model):
    # a field on elements is built as a ScalarField at the edge, then split
    with pytest.raises(TypeError, match="ScalarField"):
        royden_decompose(z2_model, lambda g: 0.0, 2.0, [3, 5])


def test_royden_field_radius_validation(z2_model):
    small = ScalarField.constant(z2_model.ball(3), 1.0)
    with pytest.raises(ValueError):
        royden_decompose(z2_model, small, 2.0, [3, 5])


# ---------------------------------------------------------------------------
# massive subsets


def test_f2_subtree_is_massive(f2_model):
    subset = letter_subtree_subset(f2_model, "a")
    radii = [4, 5, 6, 7]
    field, report = inner_potential(f2_model, subset, radii, 2.0)
    assert report.verdict == "massive"
    a = f2_model.element_from_obj(["a"])
    # shell edge counts 3^(d-1) between depths d-1 and d inside the subtree
    for row, radius in zip(report.rows, radii):
        profile = radial_drop_profile([3 ** (d - 1) for d in range(1, radius + 1)], 2.0)
        assert row.boundary_count == 1
        if radius == radii[-1]:
            assert field.value_at(a) == pytest.approx(profile[0], abs=1e-8)
            # the core sup is attained two letters into the subtree
            assert row.core_sup == pytest.approx(profile[1], abs=1e-8)


def test_f2_subtree_massive_at_p_three_halves(f2_model):
    subset = letter_subtree_subset(f2_model, "a")
    field, report = inner_potential(f2_model, subset, [4, 5, 6], 1.5)
    assert report.verdict == "massive"
    a = f2_model.element_from_obj(["a"])
    profile = radial_drop_profile([3 ** (d - 1) for d in range(1, 7)], 1.5)
    assert profile[0] == pytest.approx((8.0 / 9.0) / (1.0 - 9.0 ** -6), rel=1e-12)
    assert field.value_at(a) == pytest.approx(profile[0], abs=1e-7)


def test_f2_subtree_is_massive_on_an_extended_generating_set(f2_model):
    """Massiveness survives the change of generating set F_2 -> F_2 + [a,b]:
    the same subtree of words starting with a reads massive on both."""
    ext = build_group({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}})
    subset = letter_subtree_subset(ext, "a")
    assert subset.name == letter_subtree_subset(f2_model, "a").name
    _, report = inner_potential(ext, subset, [4, 5, 6], 2.0)
    _, stock = inner_potential(f2_model, letter_subtree_subset(f2_model, "a"), [4, 5, 6], 2.0)
    assert report.verdict == stock.verdict == "massive"
    assert [row.core_sup for row in report.rows] == pytest.approx([0.9412, 0.9384, 0.9377], abs=1e-4)
    with pytest.raises(ValueError):
        letter_subtree_subset(ext, "u1")


def test_half_space_subset_on_an_extended_generating_set(z2_model):
    ext = build_group({"family": "free_abelian", "params": {"d": 2, "extra_generators": [["x1", "x2"]]}})
    subset = half_space_subset(ext)
    assert subset.name == half_space_subset(z2_model).name == "half_space_x2"
    ball = ext.ball(3)
    assert [subset.contains(g) for g in ball.vertices] == [g[1] >= 1 for g in ball.vertices]


def test_z_half_line_is_not_massive(z_model):
    subset = SubsetSpec("positive_ray", lambda g: g[0] >= 1)
    field, report = inner_potential(z_model, subset, [4, 8, 16], 2.0)
    assert report.verdict == "not_massive"
    for row in report.rows:
        # the ramp from 0 at the origin to 1 at the far end: u(2) = 2/R
        assert row.core_sup == pytest.approx(2.0 / row.radius, abs=1e-9)


def test_z2_half_plane_is_not_massive(z2_model):
    subset = half_space_subset(z2_model, coordinate=-1)
    field, report = inner_potential(z2_model, subset, [8, 16, 32], 2.0)
    assert report.verdict == "not_massive"
    sups = [row.core_sup for row in report.rows]
    assert sups[-1] <= 0.55 * sups[0]


def test_subset_validation(f2_model, z_model, z2_model):
    with pytest.raises(ValueError):
        half_space_subset(f2_model)
    with pytest.raises(ValueError):
        letter_subtree_subset(z_model)
    with pytest.raises(ValueError):
        half_space_subset(z2_model, coordinate=5)
    with pytest.raises(ValueError):
        letter_subtree_subset(f2_model, letter="z")


def test_disconnected_subset_rejected(z_model):
    both_rays = SubsetSpec("both_rays", lambda g: g[0] != 0)
    with pytest.raises(ValueError, match="radius"):
        inner_potential(z_model, both_rays, [3, 5], 2.0)


def test_subset_missing_sphere_rejected(z_model):
    bounded = SubsetSpec("bounded_blob", lambda g: 1 <= g[0] <= 2)
    with pytest.raises(ValueError):
        inner_potential(z_model, bounded, [4, 6], 2.0)


def test_royden_decompose_refuses_a_final_solve_of_another_problem(f2_model):
    ball = f2_model.ball(4)
    f = ScalarField(ball, np.linspace(0.0, 1.0, len(ball)))
    h, report = solve_dirichlet(DirichletProblem(ball, default_marking(f2_model).sphere_clamps(ball), 2.0))
    with pytest.raises(ValueError, match="final_solve"):
        royden_decompose(f2_model, f, 2.0, [3, 4], final_solve=(h, report))
