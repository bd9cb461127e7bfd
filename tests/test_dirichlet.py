"""Clamped-boundary solves checked against second routes.

The 2-harmonic case is compared with a dense linear solve written from
scratch in conftest; other exponents go through scipy.optimize on small
balls and closed forms on radially symmetric networks.
"""

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from pharmonic import (
    DirichletProblem,
    ScalarField,
    SolverConfig,
    build_group,
    capacity,
    linear_dirichlet,
    p_laplacian_interior,
    seminorm_p,
    solve_dirichlet,
)
from pharmonic import dirichlet
from pharmonic.dirichlet import _NewtonStep

from conftest import dense_linear_solve, optimize_energy, radial_capacity, reference_energy


def sphere_clamps(ball, values_fn):
    return {
        int(i): float(values_fn(ball.vertices[int(i)]))
        for i in range(ball.n_interior, len(ball))
    }


def random_clamps(ball, seed):
    rng = np.random.default_rng(seed)
    return {int(i): float(v) for i, v in zip(range(ball.n_interior, len(ball)), rng.uniform(-1, 1, len(ball) - ball.n_interior))}


# ---------------------------------------------------------------------------
# configuration and problem validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_sweeps=0)


def test_problem_validation(z_model):
    ball = z_model.ball(3)
    full = sphere_clamps(ball, lambda g: 0.0)
    with pytest.raises(ValueError):
        DirichletProblem(ball, {}, 2.0)  # sphere unclamped
    with pytest.raises(ValueError):
        DirichletProblem(ball, {**full, 99: 1.0}, 2.0)
    with pytest.raises(ValueError):
        DirichletProblem(ball, {**full, 0: float("nan")}, 2.0)
    with pytest.raises(ValueError):
        DirichletProblem(ball, {i: 0.0 for i in range(len(ball))}, 2.0)  # nothing free
    with pytest.raises(ValueError):
        DirichletProblem(ball, full, 1.0)  # exponent out of range


@pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 8.0])
@pytest.mark.parametrize(
    "spec",
    [
        {"family": "free_abelian", "params": {"d": 2}},
        {"family": "free", "params": {"k": 2}},
        {"family": "lamplighter", "params": {}},
    ],
)
def test_clamped_inner_sphere_leaves_a_pocket_at_its_value(spec, p):
    """A sphere clamped to 1 inside the ball encloses free vertices whose
    whole clamped boundary is 1: they too reach a clamp, and the
    minimizer there is exactly 1."""
    ball = build_group(spec).ball(5)
    clamped = np.where(ball.depth == 2, 1.0, np.nan)
    clamped[ball.n_interior :] = 0.0
    u, rep = solve_dirichlet(DirichletProblem(ball, clamped, p))
    assert rep.converged
    assert u.values.min() >= 0.0 and u.values.max() <= 1.0
    np.testing.assert_allclose(u.values[ball.depth < 2], 1.0, rtol=0.0, atol=1e-12)


def nan_array(ball, clamps):
    """The array form of a clamp mapping: NaN at the free vertices."""
    values = np.full(len(ball), np.nan)
    for i, v in clamps.items():
        values[i] = v
    return values


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_mapping_and_nan_array_clamps_agree(f2_model, p):
    ball = f2_model.ball(4)
    clamps = {**random_clamps(ball, seed=21), 0: 0.25}  # an interior clamp too
    values = nan_array(ball, clamps)
    from_map = DirichletProblem(ball, clamps, p)
    from_array = DirichletProblem(ball, values, p)
    values[:] = 7.0  # the problem keeps its own copy
    assert np.array_equal(from_map.clamped, from_array.clamped, equal_nan=True)
    assert np.array_equal(from_map.clamped_mask, from_array.clamped_mask)
    assert np.array_equal(from_map.free, from_array.free)
    assert np.array_equal(from_map.clamped_values(), from_array.clamped_values())
    assert from_map.clamped_range() == from_array.clamped_range()
    u_map, rep_map = solve_dirichlet(from_map)
    u_array, rep_array = solve_dirichlet(from_array)
    assert np.array_equal(u_map.values.view(np.int64), u_array.values.view(np.int64))
    assert (rep_map.iterations, rep_map.final_energy, rep_map.residual, rep_map.converged) == (
        rep_array.iterations, rep_array.final_energy, rep_array.residual, rep_array.converged
    )


def test_nan_array_validation(z2_model):
    ball = z2_model.ball(3)
    good = np.full(len(ball), np.nan)
    good[ball.n_interior :] = 0.0
    assert DirichletProblem(ball, good, 2.0).free.tolist() == list(range(ball.n_interior))
    with pytest.raises(ValueError, match="shape"):
        DirichletProblem(ball, good[:-1], 2.0)
    for bad_value in (np.inf, -np.inf):
        bad = good.copy()
        bad[1] = bad_value
        with pytest.raises(ValueError, match="not finite"):
            DirichletProblem(ball, bad, 2.0)
    bad = good.copy()
    bad[-1] = np.nan
    with pytest.raises(ValueError, match="sphere vertices must be clamped"):
        DirichletProblem(ball, bad, 2.0)
    with pytest.raises(ValueError, match="no free"):
        DirichletProblem(ball, np.zeros(len(ball)), 2.0)


# ---------------------------------------------------------------------------
# exact solutions


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 8.0])
def test_ramp_on_z(z_model, p):
    """Clamping 0 and 1 at the two endpoints forces the affine ramp."""
    radius = 6
    ball = z_model.ball(radius)
    clamps = sphere_clamps(ball, lambda g: 1.0 if z_model.element_to_obj(g)[0] > 0 else 0.0)
    u, rep = solve_dirichlet(DirichletProblem(ball, clamps, p))
    assert rep.converged
    for g in ball.vertices:
        k = z_model.element_to_obj(g)[0]
        assert u.value_at(g) == pytest.approx((k + radius) / (2 * radius), abs=5e-9)
    assert u.value_at(z_model.identity()) == pytest.approx(0.5, abs=5e-9)


def test_exact_start_converges_immediately(z_model):
    radius = 5
    ball = z_model.ball(radius)
    clamps = sphere_clamps(ball, lambda g: z_model.element_to_obj(g)[0] / radius)
    exact = np.array([z_model.element_to_obj(g)[0] / radius for g in ball.vertices])
    u, rep = solve_dirichlet(DirichletProblem(ball, clamps, 3.0), initial=exact)
    assert rep.converged
    assert rep.iterations == 0
    np.testing.assert_array_equal(u.values, exact)


# ---------------------------------------------------------------------------
# agreement with independent solvers


@pytest.mark.parametrize(
    "family,params,radius",
    [
        ("free_abelian", {"d": 2}, 4),
        ("free", {"k": 2}, 4),
        ("lamplighter", {}, 4),
    ],
)
def test_linear_case_matches_dense_solve(family, params, radius):
    from pharmonic import build_group

    model = build_group({"family": family, "params": params})
    ball = model.ball(radius)
    prob = DirichletProblem(ball, random_clamps(ball, seed=10), 2.0)
    expected = dense_linear_solve(prob)
    u, rep = solve_dirichlet(prob)
    assert rep.converged
    np.testing.assert_allclose(u.values, expected, atol=1e-9)
    np.testing.assert_allclose(linear_dirichlet(prob), expected, atol=1e-11)


@pytest.mark.parametrize("p", [1.3, 2.6, 5.0])
def test_small_ball_matches_scipy(z2_model, p):
    ball = z2_model.ball(2)  # five free vertices
    prob = DirichletProblem(ball, random_clamps(ball, seed=11), p)
    u, rep = solve_dirichlet(prob)
    assert rep.converged
    expected = optimize_energy(prob, x0=u.values[prob.free] + 0.05)
    np.testing.assert_allclose(u.values, expected, atol=2e-5)
    assert reference_energy(ball, u.values, p) <= reference_energy(ball, expected, p) + 1e-10


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 8.0])
@pytest.mark.parametrize(
    "family,params",
    [
        ("free_abelian", {"d": 2}),
        ("free", {"k": 2}),
        ("free_product_z2", {"m": 3}),
        ("lamplighter", {}),
    ],
)
def test_uniqueness_across_inits(family, params, p):
    """Strict convexity: cold start and hot start land on the same values."""
    from pharmonic import build_group

    model = build_group({"family": family, "params": params})
    ball = model.ball(4)
    prob = DirichletProblem(ball, random_clamps(ball, seed=12), p)
    # a loose residual pins values only to tol^(1/(p-1)) when p > 2, so
    # drive the solves hard before comparing
    cfg = SolverConfig(tolerance=1e-13)
    cold = prob.clamped_values()
    cold[prob.free] = np.mean(prob.clamped[prob.clamped_mask])
    u_cold, rep_cold = solve_dirichlet(prob, cfg, initial=cold)
    rng = np.random.default_rng(13)
    hot = prob.clamped_values()
    hot[prob.free] = rng.uniform(-1, 1, prob.free.size)
    u_hot, rep_hot = solve_dirichlet(prob, cfg, initial=hot)
    assert rep_cold.converged and rep_hot.converged
    np.testing.assert_allclose(u_cold.values, u_hot.values, atol=1e-8)
    assert rep_cold.final_energy == pytest.approx(rep_hot.final_energy, rel=1e-12)


# ---------------------------------------------------------------------------
# one fill-reducing order per problem

FOUR_FAMILIES = [
    ({"family": "free", "params": {"k": 2}}, 5),
    ({"family": "free_abelian", "params": {"d": 2}}, 8),
    ({"family": "free_product_z2", "params": {"m": 3}}, 6),
    ({"family": "lamplighter", "params": {}}, 5),
]


def family_ball(spec, radius):
    return build_group(spec).ball(radius)


def zero_sphere_problem(spec, radius):
    ball = family_ball(spec, radius)
    clamped = np.full(len(ball), np.nan)
    clamped[ball.n_interior :] = 0.0
    return DirichletProblem(ball, clamped, 2.0)


def edge_weights(problem, rng):
    """Symmetric positive arc weights spanning 1e-6..1e6, one per edge."""
    x = rng.uniform(0.0, 1.0, len(problem.ball))
    system = problem._system
    return 10.0 ** (12.0 * ((x[system.free, None] + x[system.nbrs]) % 1.0) - 6.0)


def fresh_factor_solve(problem, w, shift, rhs):
    """The Laplacian of a new ``_NewtonStep``, in the order of ``free``,
    factored from scratch in minimum degree order."""
    matrix = _NewtonStep(problem).laplacian(w, shift)
    lu = scipy.sparse.linalg.splu(
        matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    return matrix, lu.solve(rhs)


SPARSE_PANELS = {"relax": dirichlet.SPARSE_FILL_RELAX, "panel_size": dirichlet.SPARSE_FILL_PANEL}


def test_one_minimum_degree_ordering_per_problem(monkeypatch):
    """One MMD_AT_PLUS_A factorization with SuperLU's default panels, then
    NATURAL ones with the problem's chosen panels: the narrow ones on these
    sparse-fill balls, the defaults once the fill limit is forced to 0."""
    calls = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    for limit, panels in ((dirichlet.SPARSE_FILL, SPARSE_PANELS), (0, {})):
        monkeypatch.setattr(dirichlet, "SPARSE_FILL", limit)
        for spec, radius in FOUR_FAMILIES:
            calls.clear()
            ball = family_ball(spec, radius)
            problem = DirichletProblem(ball, random_clamps(ball, 17), 1.2)
            _, rep = solve_dirichlet(problem)
            assert rep.converged
            assert len(calls) > rep.iterations
            specs = [call.get("permc_spec") for call in calls]
            assert [s for s in specs if s != "NATURAL"] == ["MMD_AT_PLUS_A"]
            assert specs[0] == "MMD_AT_PLUS_A"
            assert "relax" not in calls[0] and "panel_size" not in calls[0]
            assert problem._system.panels == panels
            for call in calls[1:]:
                assert {k: call[k] for k in ("relax", "panel_size") if k in call} == panels


@pytest.mark.parametrize(
    "spec,radius,sparse",
    [
        ({"family": "free", "params": {"k": 2}}, 8, True),
        ({"family": "free_product_z2", "params": {"m": 3}}, 9, True),
        ({"family": "lamplighter", "params": {}}, 9, True),
        ({"family": "free_abelian", "params": {"d": 2}}, 30, True),
        ({"family": "free_abelian", "params": {"d": 3}}, 14, True),
        ({"family": "free_abelian", "params": {"d": 3}}, 20, False),
    ],
)
def test_fill_density_chooses_the_panels(spec, radius, sparse):
    """Factors of 4 to 103 nonzeros per free vertex take narrow panels and
    little relaxation; Z^3 R=20 (185 per free vertex) keeps the defaults."""
    problem = zero_sphere_problem(spec, radius)
    linear_dirichlet(problem)
    assert problem._system.panels == (SPARSE_PANELS if sparse else {})


@pytest.mark.parametrize("p", [1.2, 3.0, 8.0])
@pytest.mark.parametrize("spec,radius", FOUR_FAMILIES)
def test_sparse_fill_panels_keep_the_solve(monkeypatch, spec, radius, p):
    """Narrow panels change only the rounding: the same Newton steps, the
    same verdict and the energy to 1e-13 of a solve with the defaults."""
    ball = family_ball(spec, radius)
    problem = DirichletProblem(ball, random_clamps(ball, 21), p)
    _, rep = solve_dirichlet(problem)
    assert problem._system.panels == SPARSE_PANELS
    monkeypatch.setattr(dirichlet, "SPARSE_FILL", 0)
    forced = DirichletProblem(ball, random_clamps(ball, 21), p)
    _, rep_forced = solve_dirichlet(forced)
    assert forced._system.panels == {}
    assert (rep.iterations, rep.converged) == (rep_forced.iterations, rep_forced.converged)
    assert rep.final_energy == pytest.approx(rep_forced.final_energy, rel=1e-13)


@pytest.mark.parametrize("error", [MemoryError, SystemError])
def test_factorization_out_of_memory_names_the_free_vertices(monkeypatch, z2_model, error):
    ball = z2_model.ball(4)
    problem = DirichletProblem(ball, random_clamps(ball, 22), 2.0)

    def failing_splu(*args, **kwargs):
        raise error("failed to allocate")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
    with pytest.raises(MemoryError, match=f"{problem.free.size} free vertices"):
        solve_dirichlet(problem)


@pytest.mark.parametrize("spec,radius", FOUR_FAMILIES)
def test_reordered_factorization_matches_a_fresh_one(spec, radius):
    """The first solve is the fresh minimum degree factorization itself;
    later ones factor the renumbered pattern in natural order. With weights
    spread over twelve decades the system's condition number reaches 1e11,
    so two roundings of it differ in the solution by up to 1e-8 of its size;
    they are compared through the matrix, normwise: |A (x - y)| <= 1e-12 |A| |y|."""
    problem = zero_sphere_problem(spec, radius)
    system = problem._system
    rng = np.random.default_rng(18)
    for call in range(4):
        w = edge_weights(problem, rng)
        shift = 0.0 if call % 2 else 1e-14 * float(w.max())
        rhs = rng.standard_normal(system.n_free)
        x = system.solve(w, shift, rhs)
        matrix, y = fresh_factor_solve(problem, w, shift, rhs)
        if call == 0:
            np.testing.assert_array_equal(x, y)
            assert system.order is not None
        norm = float(abs(matrix).sum(axis=1).max())
        assert np.max(np.abs(matrix @ (x - y))) <= 1e-12 * norm * np.max(np.abs(y))
        assert np.max(np.abs(matrix @ x - rhs)) <= 1e-12 * norm * np.max(np.abs(x))


@pytest.mark.parametrize("spec,radius", FOUR_FAMILIES)
def test_linear_dirichlet_matches_spsolve(spec, radius):
    ball = family_ball(spec, radius)
    problem = DirichletProblem(ball, random_clamps(ball, 19), 2.0)
    system = _NewtonStep(problem)
    u = problem.clamped_values()
    rhs = u[system.nbrs].sum(axis=1)
    expected = scipy.sparse.linalg.spsolve(system.laplacian(np.ones(system.nbrs.shape), 0.0), rhs)
    got = linear_dirichlet(problem)[problem.free]
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))


@pytest.mark.parametrize("first_good", [False, True])
def test_singular_system_gives_nan_without_raising(z2_model, first_good):
    ball = z2_model.ball(4)
    problem = DirichletProblem(ball, random_clamps(ball, 20), 2.0)
    system = problem._system
    rhs = np.ones(system.n_free)
    zero = np.zeros(system.nbrs.shape)
    if first_good:
        assert np.all(np.isfinite(system.solve(np.ones(system.nbrs.shape), 0.0, rhs)))
        assert system.order is not None
    for _ in range(2):
        assert np.all(np.isnan(system.solve(zero, 0.0, rhs)))
    assert np.all(np.isfinite(system.solve(np.ones(system.nbrs.shape), 0.0, rhs)))


def test_maximum_principle(f2_model):
    ball = f2_model.ball(4)
    prob = DirichletProblem(ball, random_clamps(ball, seed=14), 3.0)
    u, rep = solve_dirichlet(prob)
    lo, hi = prob.clamped_range()
    assert rep.converged
    assert u.values.min() >= lo - 1e-12
    assert u.values.max() <= hi + 1e-12
    # interior equation is satisfied pointwise
    lap = p_laplacian_interior(u, 3.0)
    free_lap = lap[[i for i in range(ball.n_interior) if i in set(prob.free.tolist())]]
    np.testing.assert_allclose(free_lap, 0.0, atol=1e-7)


def test_report_fields(z2_model):
    ball = z2_model.ball(3)
    u, rep = solve_dirichlet(DirichletProblem(ball, random_clamps(ball, seed=15), 2.5))
    assert rep.converged
    assert rep.iterations >= 1
    assert rep.residual <= SolverConfig().tolerance
    assert rep.final_energy == pytest.approx(seminorm_p(u, 2.5) ** 2.5, rel=1e-12)
    d = rep.to_dict()
    assert set(d) == {"iterations", "final_energy", "residual", "converged", "elapsed"}


def test_sweep_budget_reports_nonconvergence(lamp_model):
    ball = lamp_model.ball(5)
    prob = DirichletProblem(ball, random_clamps(ball, seed=16), 1.2)
    u, rep = solve_dirichlet(prob, SolverConfig(max_sweeps=2))
    assert not rep.converged
    assert rep.iterations == 2
    assert np.all(np.isfinite(u.values))


# ---------------------------------------------------------------------------
# condenser values


def test_capacity_validation(z_model):
    with pytest.raises(ValueError):
        capacity(z_model.ball(3), 3, 2.0)
    with pytest.raises(ValueError):
        capacity(z_model.ball(3), -1, 2.0)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 6.0])
def test_capacity_on_z(z_model, p):
    """Two independent rays of R unit edges each: value 4 R^(1-p)."""
    for radius in (3, 6, 12):
        cap, field, rep = capacity(z_model.ball(radius), 0, p)
        assert rep.converged
        assert cap == pytest.approx(4.0 * radius ** (1.0 - p), rel=1e-7)
        assert field.value_at(z_model.identity()) == 1.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_capacity_on_f2(f2_model, p):
    """Shell counts 4 * 3^(r-1); series rule gives the condenser value."""
    for radius in (2, 4, 6):
        cap, _, rep = capacity(f2_model.ball(radius), 0, p)
        expected = radial_capacity([4 * 3 ** (r - 1) for r in range(1, radius + 1)], p)
        assert rep.converged
        assert cap == pytest.approx(expected, rel=1e-7)


def test_capacity_on_free_product(zz2_model):
    for p in (2.0, 2.5):
        cap, _, rep = capacity(zz2_model.ball(5), 0, p)
        expected = radial_capacity([3 * 2 ** (r - 1) for r in range(1, 6)], p)
        assert rep.converged
        assert cap == pytest.approx(expected, rel=1e-7)


def test_capacity_inner_radius(f2_model):
    """Clamping a fatter core only removes inner shells from the series."""
    p = 2.0
    cap, field, rep = capacity(f2_model.ball(6), 2, p)
    expected = radial_capacity([4 * 3 ** (r - 1) for r in range(3, 7)], p)
    assert rep.converged
    assert cap == pytest.approx(expected, rel=1e-7)
    for g in f2_model.ball(2).vertices:
        assert field.value_at(g) == 1.0


def test_capacity_small_ball_scipy_check(z2_model):
    """No closed form on the grid: check against direct minimization."""
    p = 2.0
    cap, field, rep = capacity(z2_model.ball(2), 0, p)
    ball = z2_model.ball(2)
    clamps = {ball.index[g]: 0.0 for g in ball.boundary_elements()}
    clamps[ball.index[z2_model.identity()]] = 1.0
    prob = DirichletProblem(ball, clamps, p)
    expected = dense_linear_solve(prob)
    assert rep.converged
    assert cap == pytest.approx(reference_energy(prob.ball, expected, p), rel=1e-9)
