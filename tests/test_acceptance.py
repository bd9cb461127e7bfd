"""Acceptance battery: ten go/no-go checks, one test (and one printed
verdict line) each.

Every check states its tolerances inline and leans on an oracle computed
by a second route: dense numpy solves, series reduction on radial
networks, or identities sharp enough to hold at machine precision.
Run with -s to see the verdict lines; under plain pytest the test names
serve the same purpose.
"""

import time

import numpy as np
import pytest

from pharmonic import (
    CoarseMap,
    DirichletProblem,
    ScalarField,
    SolverConfig,
    SubsetSpec,
    boundary_witness,
    build_group,
    capacity,
    half_space_subset,
    inner_potential,
    letter_subtree_subset,
    p_laplacian_interior,
    pairing,
    pullback,
    rough_inverse,
    royden_decompose,
    seminorm_p,
    solve_dirichlet,
    tilf_evaluate,
    transport_harmonic,
    translate,
    validate_rough_map,
)

from conftest import dense_linear_solve, radial_capacity

FAMILIES = {
    "Z": {"family": "free_abelian", "params": {"d": 1}},
    "Z^2": {"family": "free_abelian", "params": {"d": 2}},
    "F_2": {"family": "free", "params": {"k": 2}},
    "Z2*Z2*Z2": {"family": "free_product_z2", "params": {"m": 3}},
    "Z2wrZ": {"family": "lamplighter", "params": {}},
}

# largest radius per family keeping the ball at or under 2,000 vertices
RADII_UNDER_2000 = {
    "Z": [6, 10, 16, 24, 33, 40],
    "Z^2": [4, 6, 8, 12, 16, 22, 30],
    "F_2": [2, 3, 4, 5, 6],
    "Z2*Z2*Z2": [3, 4, 5, 6, 7, 8, 9],
    "Z2wrZ": [4, 5, 6, 7, 8],
}


def verdict(n, text):
    print(f"criterion {n:2d} PASS - {text}")


def random_sphere_clamps(ball, rng):
    n_sphere = len(ball) - ball.n_interior
    return {
        int(i): float(v)
        for i, v in zip(range(ball.n_interior, len(ball)), rng.uniform(-1.0, 1.0, n_sphere))
    }


def test_criterion_01_linear_solver_matches_dense_oracle():
    """50 randomized 2-harmonic problems per family, balls <= 2,000
    vertices: sup difference against a dense numpy solve <= 1e-8,
    total runtime under 60 s."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    n_runs = 0
    for name, spec in FAMILIES.items():
        model = build_group(spec)
        radii = RADII_UNDER_2000[name]
        balls = {r: model.ball(r) for r in radii}
        for i in range(50):
            ball = balls[radii[i % len(radii)]]
            assert len(ball) <= 2000
            prob = DirichletProblem(ball, random_sphere_clamps(ball, rng), 2.0)
            u, rep = solve_dirichlet(prob)
            assert rep.converged
            gap = float(np.max(np.abs(u.values - dense_linear_solve(prob))))
            worst = max(worst, gap)
            n_runs += 1
    elapsed = time.monotonic() - started
    assert n_runs == 250
    assert worst <= 1e-8
    assert elapsed < 60.0
    verdict(1, f"250 solves, sup gap {worst:.2e} <= 1e-8, {elapsed:.1f}s < 60s")


def maximum_principle_sweep(seed):
    """Criterion 2's 200 randomized solves: returns the run count and the
    worst residual (p >= 2), Newton correction at the returned field
    (p < 2) and gap between the two initializations."""
    cfg = SolverConfig(tolerance=1e-12)
    rng = np.random.default_rng(seed)
    radii = {"Z": 8, "Z^2": 5, "F_2": 4, "Z2*Z2*Z2": 5, "Z2wrZ": 5}
    worst_res, worst_corr, worst_gap = 0.0, 0.0, 0.0
    n_runs = 0
    for name, spec in FAMILIES.items():
        model = build_group(spec)
        ball = model.ball(radii[name])
        for p in (1.3, 1.5, 2.0, 3.0, 4.0):
            for _ in range(8):
                prob = DirichletProblem(ball, random_sphere_clamps(ball, rng), p)
                u1, rep1 = solve_dirichlet(prob, cfg)
                other = prob.clamped_values()
                other[prob.free] = rng.uniform(-1.0, 1.0, prob.free.size)
                u2, rep2 = solve_dirichlet(prob, cfg, initial=other)
                lo, hi = prob.clamped_range()
                assert rep1.converged and rep2.converged
                assert u1.values.min() >= lo - 1e-12 and u1.values.max() <= hi + 1e-12
                if p >= 2.0:
                    worst_res = max(worst_res, rep1.residual, rep2.residual)
                else:
                    # below p = 2 one ulp at a nearly flat arc moves the residual
                    # by about (p-1)|d|^(p-2) ulp; the Newton correction measures
                    # the distance to the minimizer instead
                    for u in (u1, u2):
                        worst_corr = max(worst_corr, float(np.max(np.abs(prob._system.correction(u.values, p)))))
                worst_gap = max(worst_gap, float(np.max(np.abs(u1.values - u2.values))))
                n_runs += 1
    return n_runs, worst_res, worst_corr, worst_gap


def test_criterion_02_maximum_principle_residual_uniqueness():
    """200 randomized solves, p in {1.3, 1.5, 2, 3, 4}: values inside the
    clamped range, residual <= 1e-6 for p >= 2, Newton correction at the
    returned field <= 1e-6 for p < 2, two initializations within 1e-6."""
    n_runs, worst_res, worst_corr, worst_gap = maximum_principle_sweep(202)
    assert n_runs == 200
    assert worst_res <= 1e-6
    assert worst_corr <= 1e-6
    assert worst_gap <= 1e-6
    verdict(
        2,
        f"200 solves, max residual {worst_res:.2e} (p >= 2), max correction {worst_corr:.2e} (p < 2), "
        f"max init gap {worst_gap:.2e} <= 1e-6",
    )


def test_criterion_03_z_capacity_law():
    """capacity(Z.ball(R), 0, p) = 4 R^(1-p) within 1% for R in {8, 16, 32},
    p in {1.5, 2, 3}."""
    z = build_group(FAMILIES["Z"])
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        for radius in (8, 16, 32):
            cap, _, rep = capacity(z.ball(radius), 0, p)
            exact = 4.0 * radius ** (1.0 - p)
            rel = abs(cap - exact) / exact
            assert rep.converged
            assert rel <= 0.01
            worst = max(worst, rel)
    verdict(3, f"nine (R, p) pairs, worst relative error {worst:.2e} <= 1%")


def test_criterion_04_f2_capacity_floor():
    """capacity(F_2.ball(R), 0, 2) >= 2 for every R <= 8 and within 2% of the
    tree-conductance limit 16/3 at R = 8; the series-rule oracle is matched
    along the way."""
    f2 = build_group(FAMILIES["F_2"])
    for radius in range(1, 9):
        cap, _, rep = capacity(f2.ball(radius), 0, 2.0)
        assert rep.converged
        assert cap >= 2.0
        oracle = radial_capacity([4 * 3 ** (r - 1) for r in range(1, radius + 1)], 2.0)
        assert cap == pytest.approx(oracle, rel=1e-6)
    final, _, _ = capacity(f2.ball(8), 0, 2.0)
    assert abs(final - 16.0 / 3.0) / (16.0 / 3.0) <= 0.02
    verdict(4, f"caps >= 2 for R <= 8; cap(8) = {final:.4f} within 2% of 16/3")


def test_criterion_05_witness_dichotomy():
    """F_2 witness_found with stabilized gap >= 0.2 for p in {1.5, 2, 3} at
    radii <= 8; Z gap_vanishing with gap exactly 1/R (1e-6); Z^2 gap(32) <
    0.5 gap(8) at p = 2. Under five minutes."""
    started = time.monotonic()
    f2 = build_group(FAMILIES["F_2"])
    gaps = {}
    for p in (1.5, 2.0, 3.0):
        report = boundary_witness(f2, p, [6, 7, 8])
        assert report.verdict == "witness_found"
        assert report.rows[-1].gap >= 0.2
        assert all(row.converged for row in report.rows)
        gaps[p] = report.rows[-1].gap

    z = build_group(FAMILIES["Z"])
    z_report = boundary_witness(z, 2.0, [4, 6, 8])
    assert z_report.verdict == "gap_vanishing"
    for row in z_report.rows:
        assert abs(row.gap - 1.0 / row.radius) <= 1e-6

    z2 = build_group(FAMILIES["Z^2"])
    z2_report = boundary_witness(z2, 2.0, [8, 16, 32])
    assert z2_report.verdict == "gap_vanishing"
    assert z2_report.rows[-1].gap < 0.5 * z2_report.rows[0].gap
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    verdict(
        5,
        "F_2 gaps "
        + ", ".join(f"{k}: {v:.3f}" for k, v in gaps.items())
        + f"; Z exact 1/R; Z^2 halves; {elapsed:.1f}s < 300s",
    )


def test_criterion_06_royden_consistency():
    """Two radii schedules agree on h within 1e-3 on the core; pairing of h
    against 50 finitely supported test functions <= 1e-6 after Hoelder
    normalization."""
    f2 = build_group(FAMILIES["F_2"])
    p = 2.0
    witness = boundary_witness(f2, p, [5, 6]).field
    ball = witness.ball
    bump = ScalarField(ball, (ball.depth <= 1).astype(float))
    f = witness + bump

    cfg = SolverConfig(tolerance=1e-12)
    _, h1, _ = royden_decompose(f2, f, p, [4, 6], cfg)
    _, h2, _ = royden_decompose(f2, f, p, [3, 5, 6], cfg)
    core = ball.core_indices(2)
    core_gap = float(np.max(np.abs(h1.values[core] - h2.values[core])))
    assert core_gap <= 1e-3

    rng = np.random.default_rng(606)
    h_scale = seminorm_p(h1, p) ** (p - 1.0)
    worst = 0.0
    for _ in range(50):
        values = np.zeros(len(ball))
        support = rng.choice(ball.n_interior, size=12, replace=False)
        values[support] = rng.standard_normal(support.size)
        test_fn = ScalarField(ball, values)
        rel = abs(pairing(h1, test_fn, p)) / (seminorm_p(test_fn, p) * h_scale)
        worst = max(worst, rel)
    assert worst <= 1e-6
    verdict(6, f"schedules agree to {core_gap:.2e} <= 1e-3; worst pairing defect {worst:.2e} <= 1e-6")


def test_criterion_07_inner_potential_trichotomy():
    """Z half-line not_massive with vanishing core values; F_2 a-subtree
    massive with the defining conditions checked on the final truncation;
    Z^2 half-plane not_massive at p = 2."""
    z = build_group(FAMILIES["Z"])
    ray = SubsetSpec("positive_ray", lambda g: g[0] >= 1)
    _, ray_report = inner_potential(z, ray, [4, 8, 16], 2.0)
    assert ray_report.verdict == "not_massive"
    sups = [row.core_sup for row in ray_report.rows]
    assert sups == sorted(sups, reverse=True) and sups[-1] <= 0.15

    f2 = build_group(FAMILIES["F_2"])
    subtree = letter_subtree_subset(f2, "a")
    field, tree_report = inner_potential(f2, subtree, [4, 5, 6, 7], 2.0)
    assert tree_report.verdict == "massive"
    final = tree_report.rows[-1]
    ball = field.ball
    # connected, meets the sphere, and has a vertex boundary
    assert final.connected
    assert final.sphere_count > 0
    assert final.boundary_count >= 1
    # bounded between 0 and 1, vanishing off the subtree
    assert field.values.min() >= -1e-15 and field.values.max() <= 1.0 + 1e-15
    outside = [i for i, g in enumerate(ball.vertices) if not subtree.contains(g)]
    assert float(np.max(np.abs(field.values[outside]))) == 0.0
    # p-harmonic at the free vertices inside the subtree
    lap = p_laplacian_interior(field, 2.0)
    inside_free = [
        i for i in range(ball.n_interior) if subtree.contains(ball.vertices[i])
    ]
    assert float(np.max(np.abs(lap[inside_free]))) <= 1e-6
    assert final.core_sup >= 0.2

    z2 = build_group(FAMILIES["Z^2"])
    _, plane_report = inner_potential(z2, half_space_subset(z2), [8, 16, 32], 2.0)
    assert plane_report.verdict == "not_massive"
    verdict(
        7,
        f"ray core {sups[-1]:.3f} -> not_massive; subtree core {final.core_sup:.3f} massive; half-plane not_massive",
    )


def test_criterion_08_rough_isometry_suite():
    """Generating-set change on F_2: fit (2, 0, 1), 1,000 fresh pairs clean,
    pullback bound with exact k on 20 random fields, and the witness
    roundtrip within 0.05 on the core at radius 7."""
    f2 = build_group(FAMILIES["F_2"])
    ext = build_group({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}})

    cmap4 = CoarseMap.fit(f2.ball(4), ext.ball(4))
    assert (cmap4.a, cmap4.b, cmap4.c) == (2.0, 0, 1)
    checked = validate_rough_map(cmap4, n_pairs=1000, seed=1)
    assert checked["n_pairs"] == 1000
    assert checked["violations_forward"] == 0 and checked["violations_backward"] == 0

    cmap5 = CoarseMap.fit(f2.ball(5), ext.ball(5))
    rng = np.random.default_rng(808)
    for _ in range(20):
        f = ScalarField(cmap5.codomain, rng.standard_normal(len(cmap5.codomain)))
        _, rep = pullback(f, cmap5, 2.0)
        assert rep.holds and rep.k >= 1 and rep.lhs > 0.0

    cmap7 = CoarseMap.fit(f2.ball(7), ext.ball(7))
    psi, inv_report = rough_inverse(cmap7)
    assert inv_report.within_bounds
    h = boundary_witness(f2, 2.0, [6, 7]).field
    scope_r = psi.domain.radius
    radii = [scope_r - 2, scope_r - 1, scope_r]
    moved, t1 = transport_harmonic(h, psi, 2.0, radii)
    back_ball = f2.ball(scope_r)
    back = CoarseMap.fit(back_ball, moved.ball)
    returned, t2 = transport_harmonic(moved, back, 2.0, radii)
    assert all(r.converged for r in t1.royden.rows + t2.royden.rows)
    core = back_ball.core_indices(2)
    err = float(np.max(np.abs(returned.values[core] - h.restrict(back_ball).values[core])))
    assert err <= 0.05
    verdict(8, f"fit (2, 0, 1); 1000 pairs clean; 20 pullbacks hold; roundtrip core error {err:.2e} <= 0.05")


def test_criterion_09_tilf_suite():
    """T(delta_x) <= 1e-5 at interior x; T(first-letter indicator) matches
    2(h(a) - h(e)) to 1e-6 and is far from zero; invariance defects at radii
    5-8 sit below the 1e-10 noise floor; remainder norm identity to 1e-12."""
    f2 = build_group(FAMILIES["F_2"])
    cfg = SolverConfig(tolerance=1e-12)
    h = boundary_witness(f2, 2.0, [5, 6], config=cfg).field
    ball = h.ball

    lap_bound = 2.0 * float(np.max(np.abs(p_laplacian_interior(h, 2.0))))
    assert lap_bound <= 1e-5
    sampled = 0.0
    for i in range(0, ball.n_interior, max(1, ball.n_interior // 25)):
        d = ScalarField.delta(ball, i)
        sampled = max(sampled, abs(tilf_evaluate(h, d, 2.0)))
    assert sampled <= 1e-5

    code_a = f2.letter_code("a")
    indicator = ScalarField.indicator(ball, lambda g: len(g) > 0 and g[0] == code_a)
    t_val = tilf_evaluate(h, indicator, 2.0)
    expected = 2.0 * (h.value_at(f2.element_from_obj(["a"])) - h.value_at(f2.identity()))
    assert t_val == pytest.approx(expected, rel=1e-6)
    assert abs(t_val) >= 0.1

    # ids are prefix-stable: the vertex of a is the same on every ball
    a = ball.index[f2.element_from_obj(["a"])]
    defects = []
    for radius in (5, 6, 7, 8):
        h_r = boundary_witness(f2, 2.0, [radius - 1, radius], config=cfg).field
        f_r = ScalarField.delta(h_r.ball, 0)
        f_shift, _ = translate(f_r, a)
        h_small = h_r.restrict(f_shift.ball)
        defect = abs(
            tilf_evaluate(h_small, f_shift, 2.0)
            - tilf_evaluate(h_small, f_r.restrict(f_shift.ball), 2.0)
        )
        defects.append(defect)
    assert max(defects) <= 1e-10

    from pharmonic import difference_approximation

    z = build_group(FAMILIES["Z"])
    zball = z.ball(12)
    f = ScalarField.delta(zball, 0)
    x = zball.index[z.element_from_obj([2])]
    for p in (1.5, 2.0, 3.0):
        _, _, rep = difference_approximation(f, x, 4, p)
        assert rep.mass_preserved
        assert abs(rep.remainder_norm - rep.expected_remainder_norm) <= 1e-12
    verdict(
        9,
        f"T(delta) <= {max(lap_bound, sampled):.1e}; indicator value {t_val:.4f} matches; "
        f"defects <= {max(defects):.1e}; remainder exact",
    )


def test_criterion_10_identities():
    """pairing(f, f, p) equals seminorm^p to 1e-12 relative; affine fields
    on Z are p-harmonic to residual 1e-10 for p in {1.5, 2, 3}."""
    f2 = build_group(FAMILIES["F_2"])
    lamp = build_group(FAMILIES["Z2wrZ"])
    rng = np.random.default_rng(1010)
    worst = 0.0
    for model in (f2, lamp):
        ball = model.ball(4)
        for p in (1.3, 2.0, 4.0, 8.0):
            f = ScalarField(ball, rng.standard_normal(len(ball)))
            lhs = pairing(f, f, p)
            rhs = seminorm_p(f, p) ** p
            worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst <= 1e-12

    z = build_group(FAMILIES["Z"])
    zball = z.ball(8)
    affine = ScalarField(zball, np.array([0.3 * z.element_to_obj(g)[0] - 0.2 for g in zball.vertices]))
    worst_res = 0.0
    for p in (1.5, 2.0, 3.0):
        res = float(np.max(np.abs(p_laplacian_interior(affine, p))))
        worst_res = max(worst_res, res)
    assert worst_res <= 1e-10
    verdict(10, f"pairing identity to {worst:.1e} <= 1e-12; affine residual {worst_res:.1e} <= 1e-10")
