"""Clamped-boundary solves checked against second routes.

The 2-harmonic case is compared with a dense linear solve written from
scratch in conftest; other exponents go through scipy.optimize on small
balls and closed forms on radially symmetric networks.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
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
from pharmonic import dirichlet, exhaustion

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

F2_AB = {"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}}
Z2_3_S1S2 = {"family": "free_product_z2", "params": {"m": 3, "extra_generators": [["s1", "s2"]]}}
LAMP_TA = {"family": "lamplighter", "params": {"extra_generators": [["t", "a"]]}}

# the four families on balls that are no forest, so that every system is
# factored: the trees with one extra generator each
FOUR_FAMILIES = [
    (F2_AB, 5),
    ({"family": "free_abelian", "params": {"d": 2}}, 8),
    (Z2_3_S1S2, 6),
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


def reference_laplacian(problem, w, shift):
    """The Laplacian of arc weights w (one row per free vertex, one column
    per slot of ``ball.adj``) with diagonal shift, assembled here from
    ``ball.adj`` and ``free`` in the order of ``free``."""
    free = problem.free
    nbrs = problem.ball.adj[free]
    position = np.full(len(problem.ball), -1)
    position[free] = np.arange(free.size)
    cols = position[nbrs]
    rows = np.broadcast_to(np.arange(free.size)[:, None], nbrs.shape)
    linked = cols >= 0
    diag = np.arange(free.size)
    matrix = scipy.sparse.csc_matrix(
        (
            np.concatenate([w.sum(axis=1) + shift, -w[linked]]),
            (np.concatenate([diag, rows[linked]]), np.concatenate([diag, cols[linked]])),
        ),
        shape=(free.size, free.size),
    )
    matrix.sum_duplicates()
    return matrix


def fresh_factor_solve(problem, w, shift, rhs):
    """``reference_laplacian`` and its solve by a minimum degree factor
    made from scratch."""
    matrix = reference_laplacian(problem, w, shift)
    lu = scipy.sparse.linalg.splu(
        matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    return matrix, lu.solve(rhs)


NARROW_PANELS = {"relax": dirichlet.NATURAL_RELAX, "panel_size": dirichlet.NATURAL_PANEL}


def counted_splu(monkeypatch):
    """Route every SuperLU factorization through a counter; returns the list
    of their keyword arguments."""
    calls = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


Z = {"family": "free_abelian", "params": {"d": 1}}
Z2 = {"family": "free_abelian", "params": {"d": 2}}
Z3 = {"family": "free_abelian", "params": {"d": 3}}
Z4 = {"family": "free_abelian", "params": {"d": 4}}
F1 = {"family": "free", "params": {"k": 1}}
ZZ2 = {"family": "free_product_z2", "params": {"m": 2}}
Z2_X1X2 = {"family": "free_abelian", "params": {"d": 2, "extra_generators": [["x1", "x2"]]}}
Z2_X1X1X2 = {"family": "free_abelian", "params": {"d": 2, "extra_generators": [["x1", "x1", "x2"]]}}
# the smallest ball of Z^2 past the band: its bandwidth R passes BAND_MAX
Z2_PAST_BAND = dirichlet.BAND_MAX + 1
# the smallest hexagonal ball of Z^2 + [x1 x2] past the band: every order
# gives it a bandwidth of 2R - 1
HEX_PAST_BAND = dirichlet.BAND_MAX // 2 + 1

# the four families on balls that factor every system with SuperLU: those of
# FOUR_FAMILIES, with a degree-2 lattice ball past the band
FACTORED_FAMILIES = [
    (F2_AB, 5),
    (Z2_X1X2, HEX_PAST_BAND),
    (Z2_3_S1S2, 6),
    ({"family": "lamplighter", "params": {}}, 5),
]


def test_one_minimum_degree_ordering_per_problem(monkeypatch):
    """One MMD_AT_PLUS_A factorization with SuperLU's default panels, then
    NATURAL ones, each with the one narrow setting, from 5 nonzeros per free
    vertex to the 185 of Z^3 R=20. That ball is on the CG route, so every
    CG solve is made to fail and the factor takes every system; it runs at
    p = 3, whose 6 steps cost a few factorizations of that ball."""
    monkeypatch.setattr(dirichlet, "_jacobi_cg", lambda *args: None)
    calls = counted_splu(monkeypatch)
    for spec, radius, p in [(spec, radius, 1.2) for spec, radius in FACTORED_FAMILIES] + [(Z3, 20, 3.0)]:
        calls.clear()
        ball = family_ball(spec, radius)
        problem = DirichletProblem(ball, random_clamps(ball, 17), p)
        _, rep = solve_dirichlet(problem)
        assert rep.converged and problem._system.route.name == "factor"
        assert len(calls) > rep.iterations
        first, *later = calls
        assert first == {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}, "permc_spec": "MMD_AT_PLUS_A"}
        assert all(call == {**first, "permc_spec": "NATURAL", **NARROW_PANELS} for call in later)


@pytest.mark.parametrize(
    "spec,radius,route",
    [
        (Z2_3_S1S2, 8, "factor"),
        (F2_AB, 7, "factor"),
        (LAMP_TA, 9, "factor"),
        ({"family": "lamplighter", "params": {}}, 9, "factor"),
        ({"family": "lamplighter", "params": {"extra_generators": [["t", "a", "t"]]}}, 7, "factor"),
        (Z2, 30, "band"),
        (Z2, 300, "factor"),
        (Z3, 12, "factor"),
        (Z3, 14, "cg"),
        (Z3, 20, "cg"),
        (Z4, 8, "cg"),
        (Z, 2000, "band"),
        (Z2_X1X2, 30, "band"),
        (F1, 300, "band"),
        (ZZ2, 300, "band"),
        (Z2, Z2_PAST_BAND - 1, "band"),
        (Z2, Z2_PAST_BAND, "factor"),
        ({"family": "free", "params": {"k": 2}}, 8, "forest"),
        (Z2_X1X1X2, 20, "band"),
        (Z2_X1X2, HEX_PAST_BAND, "factor"),
    ],
)
def test_growth_degree_size_and_bandwidth_choose_the_route(spec, radius, route):
    """The route is fixed when the problem is built, before any solve, by
    four tests in turn. A forest of at least 2^levels free vertices (the
    trees) takes the elimination sweep. A group of growth degree 3 or more
    with at least CG_FREE free vertices takes CG: Z^3 R=14 and R=20 and Z^4
    R=8 (2241 free vertices), not Z^3 R=12 (2047). A group of growth degree
    2 or less (Z, Z^2, F_1, Z2*Z2 and their extended sets) whose free
    vertices have a bandwidth of at most BAND_MAX, in reverse Cuthill-McKee
    order or on Z^2 in a diagonal sweep, takes banded Cholesky: Z^2 up to
    R = 120 (bandwidth R), Z^2 + [x1 x1 x2] R=20 (39, against 77 in reverse
    Cuthill-McKee order), Z^2 + [x1 x2] R=30 (2R - 1 in every order), and
    the paths Z R=2000, F_1 R=300 and Z2*Z2 R=300 (bandwidth 1). Everything
    else factors with SuperLU: Z^2 from R = 121 on, up to the vertex budget
    at R = 300, Z^2 + [x1 x2] from R = 61, Z^3 R=12, the lamplighter R=9
    (exponential growth, bandwidth 99) and the extended sets of the trees.
    Only the SuperLU route keeps a CSC pattern, and no route has an order
    before its first factorization."""
    problem = zero_sphere_problem(spec, radius)
    chosen = problem._system.route
    assert chosen.name == route
    assert (getattr(chosen, "matrix", None) is not None) is (route in ("factor", "cg"))
    assert getattr(chosen, "order", None) is None
    if route == "band":
        assert chosen.width <= dirichlet.BAND_MAX
        if spec is Z2:
            assert chosen.width == radius
        elif spec is Z2_X1X1X2:
            assert chosen.width == 39
        elif spec is Z2_X1X2:
            # every order ties, and a tie keeps reverse Cuthill-McKee
            assert chosen.width == 2 * radius - 1
            x1, x2 = problem.ball.codes[problem.free].T
            sweeps = [np.lexsort((x1 - x2, x1 + x2)), np.lexsort((x1 + x2, x1 - x2))]
            assert not any(np.array_equal(chosen.perm, sweep) for sweep in sweeps)


def field_gap(p):
    """How far a CG-route field may lie from the factor's, in sup. At p = 8
    Newton converges linearly, and a field stops up to about tolerance /
    (1 - rate) from the minimizer (2.8e-9 for the factor's on Z^3 R=14 with
    random clamps), so two routes whose Newton systems are solved to
    different residuals may stop 0.1 tolerance apart; elsewhere 1e-10."""
    return 0.1 * SolverConfig().tolerance if p == 8.0 else 1e-10


@pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
def test_cg_route_matches_the_factor(monkeypatch, p):
    """On Z^3 R=14 every system, the p = 2 start included, goes to CG, with
    no SuperLU call. CG takes the same Newton steps to the same verdict, an
    energy within 1e-12 and a field within field_gap(p) of the ones the
    factors give once every CG solve fails."""
    ball = family_ball(Z3, 14)
    calls = counted_splu(monkeypatch)
    problem = DirichletProblem(ball, random_clamps(ball, 24), p)
    u, rep = solve_dirichlet(problem)
    assert problem._system.route.name == "cg" and calls == []
    monkeypatch.setattr(dirichlet, "_jacobi_cg", lambda *args: None)
    direct = DirichletProblem(ball, random_clamps(ball, 24), p)
    u_direct, rep_direct = solve_dirichlet(direct)
    assert direct._system.route.name == "factor" and len(calls) > rep_direct.iterations
    assert rep.converged and (rep.iterations, rep.converged) == (rep_direct.iterations, rep_direct.converged)
    assert rep.final_energy == pytest.approx(rep_direct.final_energy, rel=1e-12)
    assert np.max(np.abs(u.values - u_direct.values)) <= field_gap(p)


@pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
@pytest.mark.parametrize("marked", [True, False], ids=["marked", "random"])
@pytest.mark.parametrize("spec,radius", [(Z3, 14), (Z4, 8)], ids=["Z3R14", "Z4R8"])
def test_forcing_terms_keep_the_solve_in_fewer_cg_iterations(monkeypatch, spec, radius, marked, p):
    """Each Newton system on the CG route is solved only to its forcing
    term, and the p = 2 start to CG_RTOL. Against the factor, with the
    marked clamps (1 on the marked half of the sphere, 0 elsewhere) or
    random ones: the same verdict, at most 2 more Newton steps, an energy
    within 1e-12 and a field within field_gap(p). Against every system
    solved to CG_RTOL (CG_FORCING = CG_RTOL): fewer CG iterations."""
    ball = family_ball(spec, radius)
    clamps = exhaustion.default_marking(ball.model).sphere_clamps(ball) if marked else random_clamps(ball, 24)
    taken = []
    real_cg = dirichlet._jacobi_cg

    def counting(matrix, b, maxiter, rtol):
        solved = real_cg(matrix, b, maxiter, rtol)
        assert solved is not None
        taken.append(solved[1])
        return solved

    monkeypatch.setattr(dirichlet, "_jacobi_cg", counting)
    u, rep = solve_dirichlet(DirichletProblem(ball, clamps, p))
    forced = sum(taken)
    taken.clear()
    monkeypatch.setattr(dirichlet, "CG_FORCING", dirichlet.CG_RTOL)
    _, rep_tight = solve_dirichlet(DirichletProblem(ball, clamps, p))
    assert rep.converged and rep_tight.converged
    assert forced < sum(taken)
    monkeypatch.setattr(dirichlet, "_jacobi_cg", lambda *args: None)
    u_direct, rep_direct = solve_dirichlet(DirichletProblem(ball, clamps, p))
    assert rep_direct.converged and rep.iterations <= rep_direct.iterations + 2
    assert rep.final_energy == pytest.approx(rep_direct.final_energy, rel=1e-12)
    assert np.max(np.abs(u.values - u_direct.values)) <= field_gap(p)


@pytest.mark.parametrize("spec,radius", [(Z3, 14), (Z3, 20), (Z4, 8)], ids=["Z3R14", "Z3R20", "Z4R8"])
def test_a_p2_solve_on_the_cg_route_has_the_residual_of_the_factor(monkeypatch, spec, radius):
    """With the sphere clamped to alternating 0 and 1, a p = 2 solve on the
    CG route takes a residual-correction pass, a second CG solve and no
    factor, to a residual at most that of the factor (5e-15 to 7e-15 here;
    one CG solve to CG_RTOL left 3e-13 to 6e-13) and a field within 1e-14
    of it. The p = 2 start of a p = 3 solve takes one CG solve. From a
    supplied start, Newton at p = 2 solves every system to CG_RTOL too, and
    one step reaches the answer."""
    ball = family_ball(spec, radius)
    clamps = np.full(len(ball), np.nan)
    clamps[ball.n_interior :] = np.arange(ball.n_boundary) % 2
    taken = []
    real_cg = dirichlet._jacobi_cg

    def counting(matrix, b, maxiter, rtol):
        taken.append(rtol)
        return real_cg(matrix, b, maxiter, rtol)

    monkeypatch.setattr(dirichlet, "_jacobi_cg", counting)
    calls = counted_splu(monkeypatch)
    problem = DirichletProblem(ball, clamps, 2.0)
    u, rep = solve_dirichlet(problem)
    assert problem._system.route.name == "cg" and calls == [] and taken == [dirichlet.CG_RTOL] * 2
    taken.clear()
    linear_dirichlet(DirichletProblem(ball, clamps, 3.0))
    assert taken == [dirichlet.CG_RTOL]
    taken.clear()
    start = np.random.default_rng(9).uniform(0.0, 1.0, len(ball))
    _, rep_warm = solve_dirichlet(DirichletProblem(ball, clamps, 2.0), initial=start)
    assert rep_warm.converged and rep_warm.iterations == 1 and set(taken) == {dirichlet.CG_RTOL}
    monkeypatch.setattr(dirichlet, "_jacobi_cg", lambda *args: None)
    u_direct, rep_direct = solve_dirichlet(DirichletProblem(ball, clamps, 2.0))
    assert rep.residual <= rep_direct.residual
    assert np.max(np.abs(u.values - u_direct.values)) <= 1e-14


def test_cg_that_misses_its_tolerance_hands_the_problem_to_the_factor(monkeypatch):
    """With one CG iteration allowed, the first CG solve misses its
    tolerance: that system and every later one is factored, so the solve is
    the direct one, energy and all. At p = 3 a cold solve has the p = 2
    start and one system per Newton correction, iterations + 1 of them."""
    ball = family_ball(Z3, 14)
    calls = counted_splu(monkeypatch)
    monkeypatch.setattr(dirichlet, "CG_MAXITER", 1)
    problem = DirichletProblem(ball, random_clamps(ball, 25), 3.0)
    _, rep = solve_dirichlet(problem)
    assert rep.converged and problem._system.route.name == "factor"
    assert len(calls) == 1 + rep.iterations + 1
    assert calls[0]["permc_spec"] == "MMD_AT_PLUS_A"
    monkeypatch.setattr(dirichlet, "_jacobi_cg", lambda *args: None)
    direct = DirichletProblem(ball, random_clamps(ball, 25), 3.0)
    _, rep_direct = solve_dirichlet(direct)
    assert (rep.iterations, rep.final_energy) == (rep_direct.iterations, rep_direct.final_energy)


def test_the_fallback_to_the_factor_is_for_good(monkeypatch):
    """Once a CG solve fails, no later system of the problem tries CG: with
    the third CG solve failing, the p = 2 start and the first Newton system
    of the p = 3 solve go to CG and all the others to SuperLU. The first
    factor after the failure computes the minimum degree order, and the
    later ones reuse it."""
    ball = family_ball(Z3, 14)
    attempts = []
    real_cg = dirichlet._jacobi_cg

    def failing_third(matrix, b, maxiter, rtol):
        attempts.append(maxiter)
        return None if len(attempts) == 3 else real_cg(matrix, b, maxiter, rtol)

    monkeypatch.setattr(dirichlet, "_jacobi_cg", failing_third)
    calls = counted_splu(monkeypatch)
    problem = DirichletProblem(ball, random_clamps(ball, 26), 3.0)
    _, rep = solve_dirichlet(problem)
    assert rep.converged and problem._system.route.name == "factor"
    assert len(attempts) == 3
    # the p = 2 start and one system per correction, less the two CG solved
    assert len(calls) == 1 + rep.iterations + 1 - 2
    assert [call["permc_spec"] for call in calls] == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(calls) - 1)


@pytest.mark.parametrize(
    "spec,radius,name",
    [
        ({"family": "free", "params": {"k": 2}}, 6, "forest"),
        (Z2, 20, "band"),
        (Z3, 14, "cg"),
        ({"family": "lamplighter", "params": {}}, 5, "factor"),
    ],
)
@pytest.mark.parametrize("cg_fails", [False, True], ids=["cg", "no-cg"])
def test_a_problem_keeps_its_route_object_through_a_solve(monkeypatch, spec, radius, name, cg_fails):
    """The route chosen with the problem is the one object that solves all
    its systems: a p = 3 solve ends on the same route object it started
    on. Its name changes only at the one hand-over from "cg" to "factor",
    and only where a CG solve fails."""
    if cg_fails:
        monkeypatch.setattr(dirichlet, "_jacobi_cg", lambda *args: None)
    ball = family_ball(spec, radius)
    problem = DirichletProblem(ball, random_clamps(ball, 35), 3.0)
    route = problem._system.route
    before = id(route)
    assert route.name == name
    _, rep = solve_dirichlet(problem)
    assert rep.converged and id(problem._system.route) == before
    assert route.name == ("factor" if cg_fails and name == "cg" else name)


def test_a_p2_solve_whose_first_cg_solve_fails_takes_no_correction_pass(monkeypatch):
    """The residual-correction pass of a p = 2 solve belongs to the CG
    route: where the first CG solve fails, the factor's solution is the
    answer, after one CG attempt and one factorization."""
    ball = family_ball(Z3, 14)
    attempts = []

    def failing(*args):
        attempts.append(args)
        return None

    monkeypatch.setattr(dirichlet, "_jacobi_cg", failing)
    calls = counted_splu(monkeypatch)
    problem = DirichletProblem(ball, random_clamps(ball, 36), 2.0)
    route = problem._system.route
    assert route.name == "cg"
    linear_dirichlet(problem)
    assert route.name == "factor" and len(attempts) == 1 and len(calls) == 1


Z3_X1X2 = {"family": "free_abelian", "params": {"d": 3, "extra_generators": [["x1", "x2"]]}}


@pytest.mark.parametrize("radius,cg", [(8, False), (10, False), (14, True), (20, True)])
def test_an_extended_set_takes_the_route_of_its_group(radius, cg):
    """Z^3 + [x1 x2] has the growth degree of Z^3, and away from CG_FREE the
    same route at the same radius: Z^3 R=8 and R=10 (575 and 1159 free
    vertices; 855 and 1729 extended) factor, R=14 and R=20 go to CG."""
    stock = zero_sphere_problem(Z3, radius)
    extended = zero_sphere_problem(Z3_X1X2, radius)
    assert stock.ball.model.growth_degree == extended.ball.model.growth_degree == 3
    assert stock._system.route.name == extended._system.route.name == ("cg" if cg else "factor")


# a word of odd length keeps Z^3 bipartite
Z3_X1X2X3 = {"family": "free_abelian", "params": {"d": 3, "extra_generators": [["x1", "x2", "x3"]]}}


@pytest.mark.parametrize(
    "spec,radius", [(Z3, 14), (Z4, 8), (Z3_X1X2X3, 14)], ids=["Z3R14", "Z4R8", "Z3+x1x2x3R14"]
)
def test_no_pattern_entry_joins_one_parity_class(spec, radius):
    """On a ball whose generator words all have odd length, every
    off-diagonal entry of the Laplacian's pattern joins two free vertices of
    different depth parity, and the CG route splits the free vertices into
    the two classes, the larger one red."""
    problem = zero_sphere_problem(spec, radius)
    assert problem.ball.model._bipartite
    route = problem._system.route
    pattern = route.matrix.tocoo()
    parity = problem.ball.depth[problem.free] % 2
    off = pattern.row != pattern.col
    assert off.any() and np.all(parity[pattern.row[off]] != parity[pattern.col[off]])
    split = route.split
    assert route.name == "cg" and split is not None
    assert np.array_equal(np.sort(np.concatenate([split.red, split.black])), np.arange(problem.free.size))
    assert split.red.size >= split.black.size
    assert np.unique(parity[split.red]).size == np.unique(parity[split.black]).size == 1


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("marked", [True, False], ids=["marked", "random"])
@pytest.mark.parametrize("spec,radius", [(Z3, 14), (Z4, 8)], ids=["Z3R14", "Z4R8"])
def test_red_black_systems_match_the_factor(monkeypatch, spec, radius, marked, p):
    """Every system of a solve on a bipartite CG-route ball goes to the
    red-black reduction. Each solution x differs from a fresh SuperLU
    solution by at most the CG tolerance, as residuals: |A (x - x_lu)| <=
    rtol |b|, as on the whole system, and the red rows are solved exactly:
    their residual is rounding."""
    ball = family_ball(spec, radius)
    clamps = exhaustion.default_marking(ball.model).sphere_clamps(ball) if marked else random_clamps(ball, 24)
    problem = DirichletProblem(ball, clamps, p)
    route = problem._system.route
    assert route.split is not None
    systems = []
    real_solve = route.solve

    def recording(w, shift, rhs, rtol):
        x = real_solve(w, shift, rhs, rtol)
        systems.append((w.copy(), shift, rhs.copy(), rtol, x))
        return x

    monkeypatch.setattr(route, "solve", recording)
    _, rep = solve_dirichlet(problem)
    assert rep.converged and route.name == "cg" and len(systems) > (1 if p == 2.0 else rep.iterations)
    red = route.split.red
    for w, shift, rhs, rtol, x in systems:
        matrix, x_lu = fresh_factor_solve(problem, w, shift, rhs)
        assert np.linalg.norm(matrix @ (x - x_lu)) <= rtol * np.linalg.norm(rhs)
        assert np.max(np.abs((rhs - matrix @ x)[red])) <= 1e-14 * np.linalg.norm(rhs)


def test_red_black_tolerance_is_relative_to_the_whole_right_hand_side(monkeypatch):
    """``rtol`` bounds the residual of a reduced solve against the whole
    right-hand side b, as on the whole system, not against the reduced one
    b_S = b_b - A_br D_r^-1 b_r. A right-hand side whose b_S is 1e-6 |b| is
    solved to rtol = 1e-4 in one CG iteration, to a whole residual within
    rtol |b|; measured against |b_S| it would take as many as any other
    system."""
    problem = zero_sphere_problem(Z3, 14)
    route = problem._system.route
    red, black = route.split.red, route.split.black
    w = np.ones(problem._system.nbrs.shape)
    matrix = reference_laplacian(problem, w, 0.0)
    rng = np.random.default_rng(5)
    rhs = np.empty(problem.free.size)
    rhs[red] = rng.uniform(-1, 1, red.size)
    rhs[black] = matrix[black][:, red] @ (rhs[red] / matrix.diagonal()[red])  # b_S = 0
    reduced = rng.uniform(-1, 1, black.size)
    rhs[black] += 1e-6 * np.linalg.norm(rhs) / np.linalg.norm(reduced) * reduced
    taken = []
    real_cg = dirichlet._jacobi_cg

    def counting(a, b, maxiter, rtol):
        solved = real_cg(a, b, maxiter, rtol)
        taken.append(None if solved is None else solved[1])
        return solved

    monkeypatch.setattr(dirichlet, "_jacobi_cg", counting)
    x = route.solve(w, 0.0, rhs, 1e-4)
    assert taken == [1] and route.name == "cg"
    assert np.linalg.norm(rhs - matrix @ x) <= 1e-4 * np.linalg.norm(rhs)


@pytest.mark.parametrize("spec,radius", [(Z3, 14), (Z4, 8)], ids=["Z3R14", "Z4R8"])
def test_red_black_start_takes_half_the_iterations_of_plain_jacobi_cg(monkeypatch, spec, radius):
    """The p = 2 start, reduced to the black class, takes at most 55 % of
    the iterations that Jacobi-CG takes on the whole system (38 against 77
    on Z^3 R=14, 20 against 41 on Z^4 R=8): CG on a 2-cyclic system takes
    half the iterations (Reid, 1972)."""
    ball = family_ball(spec, radius)
    problem = DirichletProblem(ball, exhaustion.default_marking(ball.model).sphere_clamps(ball), 3.0)
    taken = []
    real_cg = dirichlet._jacobi_cg

    def counting(a, b, maxiter, rtol):
        solved = real_cg(a, b, maxiter, rtol)
        taken.append((b.size, solved[1]))
        return solved

    monkeypatch.setattr(dirichlet, "_jacobi_cg", counting)
    linear_dirichlet(problem)
    route = problem._system.route
    [(size, reduced)] = taken
    assert size == route.split.black.size <= problem.free.size // 2
    rhs = problem.clamped_values()[problem._system.nbrs].sum(axis=1)
    _, plain = real_cg(dirichlet._Whole(route.matrix), rhs, dirichlet.CG_MAXITER, dirichlet.CG_RTOL)
    assert reduced <= 0.55 * plain


def test_an_even_word_keeps_plain_jacobi_cg(monkeypatch):
    """Z^3 + [x1 x2] has a word of even length, so a ball of it is not
    bipartite: its CG route makes no split, and every CG solve runs on the
    whole Laplacian, to the same verdict as the factor."""
    ball = family_ball(Z3_X1X2, 14)
    assert not ball.model._bipartite
    sizes = []
    real_cg = dirichlet._jacobi_cg

    def recording(a, b, maxiter, rtol):
        sizes.append(b.size)
        return real_cg(a, b, maxiter, rtol)

    monkeypatch.setattr(dirichlet, "_jacobi_cg", recording)
    problem = DirichletProblem(ball, random_clamps(ball, 37), 3.0)
    route = problem._system.route
    assert route.name == "cg" and route.split is None
    _, rep = solve_dirichlet(problem)
    assert rep.converged and route.name == "cg" and sizes and set(sizes) == {problem.free.size}
    monkeypatch.setattr(dirichlet, "_jacobi_cg", lambda *args: None)
    _, rep_direct = solve_dirichlet(DirichletProblem(ball, random_clamps(ball, 37), 3.0))
    assert (rep.iterations, rep.converged) == (rep_direct.iterations, rep_direct.converged)
    assert rep.final_energy == pytest.approx(rep_direct.final_energy, rel=1e-12)


def test_later_cg_solves_are_capped_at_a_multiple_of_the_first(monkeypatch):
    """The p = 2 start runs under CG_MAXITER; every later CG solve of the
    problem under CG_STALL times the iterations it took. At p = 1.5 the
    Newton systems take up to about twice as many as the start (42, on the
    black class of the red-black reduction) and stay on CG. With
    CG_STALL = 1 the first Newton system that needs more than the start
    misses its cap (the loosely forced first ones take fewer) and goes to
    the factor, as does every later one, to the same steps: the systems
    CG solved before it and the factorizations from it on are as many as
    the systems of the solve with the default cap, and the factor solves
    at least one system per Newton step (the last 8 of 17, for 8 steps)."""
    ball = family_ball(Z3, 14)
    seen = []
    real_cg = dirichlet._jacobi_cg

    def recording(matrix, b, maxiter, rtol):
        solved = real_cg(matrix, b, maxiter, rtol)
        seen.append((maxiter, None if solved is None else solved[1]))
        return solved

    monkeypatch.setattr(dirichlet, "_jacobi_cg", recording)
    problem = DirichletProblem(ball, random_clamps(ball, 32), 1.5)
    _, rep = solve_dirichlet(problem)
    assert rep.converged and problem._system.route.name == "cg"
    (first_cap, first), *later = seen
    assert first_cap == dirichlet.CG_MAXITER and later
    cap = min(dirichlet.CG_MAXITER, dirichlet.CG_STALL * first)
    assert problem._system.route.cap == cap
    assert all(maxiter == cap and taken <= cap for maxiter, taken in later)
    systems = len(seen)

    monkeypatch.setattr(dirichlet, "CG_STALL", 1)
    seen.clear()
    calls = counted_splu(monkeypatch)
    stalled = DirichletProblem(ball, random_clamps(ball, 32), 1.5)
    _, rep_stalled = solve_dirichlet(stalled)
    taken = [taken for _, taken in seen]
    assert len(taken) > 2 and taken[-1] is None
    assert all(t is not None and t <= first for t in taken[1:-1])
    assert stalled._system.route.name == "factor" and len(taken) - 1 + len(calls) == systems
    assert len(calls) >= rep_stalled.iterations
    assert [call["permc_spec"] for call in calls] == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(calls) - 1)
    assert (rep_stalled.iterations, rep_stalled.converged) == (rep.iterations, rep.converged)
    assert rep_stalled.final_energy == pytest.approx(rep.final_energy, rel=1e-12)


def test_underflowing_weights_stop_the_cg_route_without_warnings():
    """Arc weights that underflow to 0 leave a zero diagonal: CG refuses
    it, the factor meets a zero pivot, the system solves to all NaN and
    the CG route ends, without a warning. Clamps of size 1e-60 at p = 8,
    whose weights would underflow so, are solved scaled up to a largest
    magnitude in [1/2, 1), and converge without a warning, on the CG route
    to the end."""
    ball = family_ball(Z3, 14)
    clamps = {i: 1e-60 * v for i, v in random_clamps(ball, 27).items()}
    system = DirichletProblem(ball, clamps, 8.0)._system
    problem = DirichletProblem(ball, clamps, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert system.route.name == "cg"
        assert np.all(np.isnan(system.solve(np.zeros(system.nbrs.shape), 0.0, np.ones(system.n_free))))
        _, rep = solve_dirichlet(problem, SolverConfig(tolerance=1e-68))
    assert system.route.name == "factor"
    assert problem._system.route.name == "cg"
    assert rep.converged and rep.iterations > 0


@pytest.mark.parametrize("p", [1.2, 3.0, 8.0])
@pytest.mark.parametrize("spec,radius", FOUR_FAMILIES)
def test_sparse_fill_panels_keep_the_solve(monkeypatch, spec, radius, p):
    """The narrow panels of the NATURAL factorizations change only the
    rounding: the same Newton steps, the same verdict and the energy to
    1e-13 of a solve whose every factorization takes SuperLU's default
    panels and relaxation."""
    ball = family_ball(spec, radius)
    calls = counted_splu(monkeypatch)
    _, rep = solve_dirichlet(DirichletProblem(ball, random_clamps(ball, 21), p))
    assert all(call["relax"] == dirichlet.NATURAL_RELAX for call in calls[1:])
    monkeypatch.setattr(dirichlet, "NATURAL_RELAX", None)
    monkeypatch.setattr(dirichlet, "NATURAL_PANEL", None)
    _, rep_default = solve_dirichlet(DirichletProblem(ball, random_clamps(ball, 21), p))
    assert (rep.iterations, rep.converged) == (rep_default.iterations, rep_default.converged)
    assert rep.final_energy == pytest.approx(rep_default.final_energy, rel=1e-13)


@pytest.mark.parametrize("error", [MemoryError, SystemError])
def test_factorization_out_of_memory_names_the_free_vertices(monkeypatch, lamp_model, error):
    ball = lamp_model.ball(5)
    problem = DirichletProblem(ball, random_clamps(ball, 22), 2.0)

    def failing_splu(*args, **kwargs):
        raise error("failed to allocate")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
    with pytest.raises(MemoryError, match=f"{problem.free.size} free vertices"):
        solve_dirichlet(problem)


def test_band_out_of_memory_names_the_free_vertices(monkeypatch, z2_model):
    """A band that cannot be allocated raises the factor's one-line
    MemoryError; SuperLU is never called."""
    ball = z2_model.ball(4)
    problem = DirichletProblem(ball, random_clamps(ball, 22), 2.0)

    def failing_dpbtrf(*args, **kwargs):
        raise MemoryError("failed to allocate")

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", failing_dpbtrf)
    calls = counted_splu(monkeypatch)
    with pytest.raises(MemoryError, match=f"^out of memory factoring the Newton system of {problem.free.size} free vertices$"):
        solve_dirichlet(problem)
    assert problem._system.route.name == "band" and calls == []


@pytest.mark.parametrize("spec,radius", FOUR_FAMILIES)
def test_reordered_factorization_matches_a_fresh_one(monkeypatch, spec, radius):
    """The first solve is the fresh minimum degree factorization itself;
    later ones factor the renumbered pattern in natural order. With weights
    spread over twelve decades the system's condition number reaches 1e11,
    so two roundings of it differ in the solution by up to 1e-8 of its size;
    they are compared through the matrix, normwise: |A (x - y)| <= 1e-12 |A| |y|.
    Z^2 R=8 would take the band: BAND_MAX = 0 sends it to SuperLU."""
    monkeypatch.setattr(dirichlet, "BAND_MAX", 0)
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
            assert system.route.order is not None
        norm = float(abs(matrix).sum(axis=1).max())
        assert np.max(np.abs(matrix @ (x - y))) <= 1e-12 * norm * np.max(np.abs(y))
        assert np.max(np.abs(matrix @ x - rhs)) <= 1e-12 * norm * np.max(np.abs(x))


# ---------------------------------------------------------------------------
# forests: one elimination sweep, no factor

F2 = {"family": "free", "params": {"k": 2}}
Z2_3 = {"family": "free_product_z2", "params": {"m": 3}}
# F_2 with a doubled generator: a tree whose edges to a-neighbours are double
F2_A = {"family": "free", "params": {"k": 2, "extra_generators": [["a"]]}}


def annulus_problem(spec, radius, inner_radius, p):
    """The capacity problem: the closed inner ball clamped to 1, the sphere to
    0. On a tree its free vertices form a forest with one root per vertex
    of the first free level."""
    ball = family_ball(spec, radius)
    clamped = np.where(ball.depth <= inner_radius, 1.0, np.nan)
    clamped[ball.n_interior :] = 0.0
    return DirichletProblem(ball, clamped, p)


@pytest.mark.parametrize(
    "spec,radius,forest",
    [
        (F2, 8, True),
        (Z2_3, 9, True),
        (Z2_3, 12, True),
        ({"family": "free", "params": {"k": 3}}, 6, True),
        ({"family": "free_product_z2", "params": {"m": 4}}, 8, True),
        (F2_A, 4, True),
        # paths: 2R - 1 free vertices on R levels, fewer than 2^R
        ({"family": "free", "params": {"k": 1}}, 2, False),
        ({"family": "free", "params": {"k": 1}}, 4, False),
        ({"family": "free", "params": {"k": 1}}, 300, False),
        ({"family": "free_abelian", "params": {"d": 1}}, 2000, False),
        ({"family": "free_product_z2", "params": {"m": 2}}, 300, False),
        # cycles: two free neighbours one level up, or one on the same level
        (F2_AB, 5, False),
        (Z2_3_S1S2, 6, False),
        ({"family": "free_abelian", "params": {"d": 2}}, 8, False),
        ({"family": "lamplighter", "params": {}}, 5, False),
    ],
)
def test_forest_route_per_family(monkeypatch, spec, radius, forest):
    """The trees take the sweep: no CSC pattern, no order, no CG, through
    a whole p = 3 solve as through the p = 2 start. The paths, and every
    ball with a cycle among its free vertices, keep the factor. The paths
    and Z^2 would take the band: BAND_MAX = 0 sends them to SuperLU."""
    monkeypatch.setattr(dirichlet, "BAND_MAX", 0)
    problem = zero_sphere_problem(spec, radius)
    linear_dirichlet(problem)
    route = problem._system.route
    assert (route.name == "forest") is forest
    assert (getattr(route, "matrix", None) is None) is forest
    assert (getattr(route, "order", None) is None) is forest
    assert route.name != "cg"
    ball = problem.ball
    solved = DirichletProblem(ball, random_clamps(ball, 31), 3.0)
    _, rep = solve_dirichlet(solved)
    assert rep.converged
    route = solved._system.route
    assert (getattr(route, "matrix", None) is None) is (getattr(route, "order", None) is None) is forest


def test_capacity_annulus_is_a_forest_of_many_roots():
    """With the ball of radius 2 clamped, the 36 vertices of the sphere of
    radius 3 are roots; the sweep runs over the two levels below them."""
    problem = annulus_problem(F2, 6, 2, 2.0)
    forest = problem._system.route
    assert forest.name == "forest" and len(forest.rounds) == 2
    assert problem.free.size - forest.link_slots.size == 36


FORESTS = [
    lambda: zero_sphere_problem(F2, 5),
    lambda: zero_sphere_problem(Z2_3, 6),
    lambda: zero_sphere_problem(F2_A, 4),
    lambda: annulus_problem(F2, 6, 2, 2.0),
]


@pytest.mark.parametrize("make", FORESTS)
def test_forest_sweep_matches_a_fresh_factor(make):
    """The sweep against a fresh minimum degree factor of the same Laplacian,
    under weights over twelve decades, normwise as for the factor route:
    |A (x - y)| <= 1e-12 |A| |y|, and the residual of x likewise."""
    problem = make()
    system = problem._system
    rng = np.random.default_rng(28)
    for call in range(4):
        w = edge_weights(problem, rng)
        shift = 0.0 if call % 2 else 1e-14 * float(w.max())
        rhs = rng.standard_normal(system.n_free)
        x = system.solve(w, shift, rhs)
        matrix, y = fresh_factor_solve(problem, w, shift, rhs)
        norm = float(abs(matrix).sum(axis=1).max())
        assert np.max(np.abs(matrix @ (x - y))) <= 1e-12 * norm * np.max(np.abs(y))
        assert np.max(np.abs(matrix @ x - rhs)) <= 1e-12 * norm * np.max(np.abs(x))
    assert getattr(system.route, "order", None) is None


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("spec,radius", [(F2, 6), (Z2_3, 8)])
def test_forest_route_matches_the_factor(monkeypatch, spec, radius, p):
    """Marked-style clamps on a tree: the sweep makes no SuperLU call and
    takes the same Newton steps to the same verdict as the factor route
    forced on, with energies within 1e-13."""
    ball = family_ball(spec, radius)
    calls = counted_splu(monkeypatch)
    problem = DirichletProblem(ball, random_clamps(ball, 29), p)
    _, rep = solve_dirichlet(problem)
    assert problem._system.route.name == "forest" and calls == []
    monkeypatch.setattr(dirichlet._ForestSweep, "of", staticmethod(lambda *args: None))
    factored = DirichletProblem(ball, random_clamps(ball, 29), p)
    _, rep_factored = solve_dirichlet(factored)
    assert factored._system.route.name == "factor" and len(calls) > rep_factored.iterations
    assert rep.converged and (rep.iterations, rep.converged) == (rep_factored.iterations, rep_factored.converged)
    assert rep.final_energy == pytest.approx(rep_factored.final_energy, rel=1e-13)


def test_forest_zero_pivot_gives_nan_without_warnings():
    problem = zero_sphere_problem(F2, 4)
    system = problem._system
    rhs = np.ones(system.n_free)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isnan(system.solve(np.zeros(system.nbrs.shape), 0.0, rhs)))
    assert np.all(np.isfinite(system.solve(np.ones(system.nbrs.shape), 0.0, rhs)))


# ---------------------------------------------------------------------------
# banded Cholesky in reverse Cuthill-McKee order: growth degree 2 or less

BANDS = [
    lambda: zero_sphere_problem(Z2, 8),
    lambda: zero_sphere_problem(Z2_X1X2, 8),
    lambda: zero_sphere_problem(Z, 300),
    lambda: zero_sphere_problem(ZZ2, 300),
    lambda: annulus_problem(Z2, 12, 3, 2.0),
]


@pytest.mark.parametrize("make", BANDS)
def test_band_solve_matches_a_fresh_factor(make):
    """The band solve against a fresh minimum degree factor of the same
    Laplacian, under weights over twelve decades, normwise as for the
    factor route: |A (x - y)| <= 1e-12 |A| |y|, and the residual of x
    likewise. The band is built once, with the problem, and keeps its
    order; no SuperLU pattern or order is made."""
    problem = make()
    system = problem._system
    band = system.route
    assert band.name == "band" and getattr(band, "matrix", None) is None
    rng = np.random.default_rng(33)
    for call in range(4):
        w = edge_weights(problem, rng)
        shift = 0.0 if call % 2 else 1e-14 * float(w.max())
        rhs = rng.standard_normal(system.n_free)
        x = system.solve(w, shift, rhs)
        matrix, y = fresh_factor_solve(problem, w, shift, rhs)
        norm = float(abs(matrix).sum(axis=1).max())
        assert np.max(np.abs(matrix @ (x - y))) <= 1e-12 * norm * np.max(np.abs(y))
        assert np.max(np.abs(matrix @ x - rhs)) <= 1e-12 * norm * np.max(np.abs(x))
    assert system.route is band and getattr(band, "order", None) is None and getattr(band, "matrix", None) is None


# random clamps at p = 8 on Z^2 from R = 20 on take thousands of Newton steps
# (linear convergence where the field is flat): both routes stop there at
# this budget, and are compared where it stops them
BAND_BUDGET = 400


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("marked", [True, False], ids=["marked", "random"])
@pytest.mark.parametrize(
    "spec,radius", [(Z2, 8), (Z2, 20), (Z2, 30), (Z, 300), (ZZ2, 300)], ids=["Z2R8", "Z2R20", "Z2R30", "ZR300", "ZZ2R300"]
)
def test_band_route_matches_the_factor(monkeypatch, spec, radius, marked, p):
    """With the marked clamps (1 on the marked half of the sphere, 0
    elsewhere) or random ones, the band makes no SuperLU call and takes the
    same Newton steps to the same verdict as SuperLU forced on (BAND_MAX =
    0), with an energy within 1e-12 and a field within field_gap(p)."""
    ball = family_ball(spec, radius)
    clamps = exhaustion.default_marking(ball.model).sphere_clamps(ball) if marked else random_clamps(ball, 34)
    config = SolverConfig(max_sweeps=BAND_BUDGET)
    calls = counted_splu(monkeypatch)
    problem = DirichletProblem(ball, clamps, p)
    u, rep = solve_dirichlet(problem, config)
    assert problem._system.route.name == "band" and calls == []
    monkeypatch.setattr(dirichlet, "BAND_MAX", 0)
    factored = DirichletProblem(ball, clamps, p)
    u_factored, rep_factored = solve_dirichlet(factored, config)
    assert factored._system.route.name == "factor" and len(calls) > rep_factored.iterations
    assert rep.converged or rep.iterations == BAND_BUDGET
    assert (rep.iterations, rep.converged) == (rep_factored.iterations, rep_factored.converged)
    assert rep.final_energy == pytest.approx(rep_factored.final_energy, rel=1e-12)
    assert np.max(np.abs(u.values - u_factored.values)) <= field_gap(p)


@pytest.mark.parametrize("p", [1.2, 8.0])
@pytest.mark.parametrize("radius", [30, 61])
def test_band_and_superlu_give_the_same_solution(monkeypatch, radius, p):
    """Z^2 with the marked clamps, on the band in a diagonal sweep (R = 61
    was past the band in reverse Cuthill-McKee order) and again on the
    SuperLU route built for the same problem: the same verdict, an energy
    within 1e-12 and a field within field_gap(p)."""
    ball = family_ball(Z2, radius)
    clamps = exhaustion.default_marking(ball.model).sphere_clamps(ball)
    calls = counted_splu(monkeypatch)
    problem = DirichletProblem(ball, clamps, p)
    u, rep = solve_dirichlet(problem)
    assert problem._system.route.name == "band" and problem._system.route.width == radius and calls == []
    monkeypatch.setattr(dirichlet._BandCholesky, "of", classmethod(lambda cls, *args: None))
    factored = DirichletProblem(ball, clamps, p)
    assert isinstance(factored._system.route, dirichlet._SparseRoute)
    u_factored, rep_factored = solve_dirichlet(factored)
    assert factored._system.route.name == "factor" and len(calls) > rep_factored.iterations
    assert rep.converged and rep_factored.converged
    assert rep.final_energy == pytest.approx(rep_factored.final_energy, rel=1e-12)
    assert np.max(np.abs(u.values - u_factored.values)) <= field_gap(p)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_start_is_refused_up_front(lamp_model, bad):
    """A start that is not finite at a free vertex is refused before any
    solve, naming the first such vertex; one that is not finite only at
    clamped vertices is not, since only its free entries are read."""
    ball = lamp_model.ball(4)
    clamps = np.full(len(ball), np.nan)
    clamps[ball.n_interior :] = np.arange(ball.n_boundary) % 2
    problem = DirichletProblem(ball, clamps, 3.0)
    start = linear_dirichlet(problem)
    start[[0, 7]] = bad
    with pytest.raises(ValueError, match="^initial value at vertex 0 is not finite$"):
        solve_dirichlet(problem, initial=start)
    start[0] = 0.5
    with pytest.raises(ValueError, match="^initial value at vertex 7 is not finite$"):
        solve_dirichlet(problem, initial=start)
    start[7] = 0.5
    start[ball.n_interior :] = bad
    _, rep = solve_dirichlet(problem, initial=start)
    assert rep.converged


# (spec, radius, p, size, tolerance): sphere clamps of 1e-300 at p = 1.5 on
# the CG route and the sweep, subnormal ones, whose stop limit in scaled units
# passes the largest float, and clamps of 2^k at p = 7.93, the tolerance
# scaled alike, on the CG route, the sweep and the factor
SCALED_CLAMPS = [
    pytest.param(spec, radius, 1.5, 1e-300, tolerance, id=f"{tolerance}-spec{i}-{radius}")
    for tolerance in (1e-8, 1e-310)
    for i, (spec, radius) in enumerate([(Z3, 14), (F2, 6)])
] + [pytest.param(F2, 6, 1.5, 1e-310, 0.5, id="subnormal-sweep")] + [
    pytest.param(spec, radius, 7.93, 2.0**k, 1e-8 * 2.0**k, id=f"p7.93-2^{k}-{route}")
    for k in (-500, -40, -1, 1, 20)
    for route, spec, radius in [("cg", Z3, 14), ("sweep", F2, 6), ("factor", {"family": "lamplighter", "params": {}}, 5)]
]


@pytest.mark.parametrize("spec,radius,p,size,tolerance", SCALED_CLAMPS)
def test_tiny_clamps_solve_as_their_scaled_copy(spec, radius, p, size, tolerance):
    """Sphere clamps g * size, g uniform in (-1, 1), on the CG route, the
    sweep and the factor: the solve converges without a warning, and takes
    the steps of the same clamps scaled by 2^k to a largest size in
    (1/2, 1], with the tolerance scaled alike where it stays below 1; its
    field times 2^k is that solve's bit for bit. For the clamps 2^-k g of
    p = 7.93 that copy is the solve of g itself."""
    ball = family_ball(spec, radius)
    clamps = np.full(len(ball), np.nan)
    clamps[ball.n_interior :] = np.random.default_rng(30).uniform(-1, 1, ball.n_boundary) * size
    problem = DirichletProblem(ball, clamps, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, rep = solve_dirichlet(problem, SolverConfig(tolerance=tolerance))
    assert rep.converged
    name = problem._system.route.name
    assert (name == "cg", name == "forest") == (spec is Z3, spec is F2)
    mantissa, exponent = np.frexp(np.nanmax(np.abs(clamps)))
    k = int(mantissa == 0.5) - int(exponent)
    if np.log2(tolerance) + k < 0.0:
        assert rep.iterations > 0
        scaled, rep_scaled = solve_dirichlet(
            DirichletProblem(ball, np.ldexp(clamps, k), p), SolverConfig(tolerance=float(np.ldexp(tolerance, k)))
        )
        assert rep_scaled.iterations == rep.iterations
        assert np.array_equal(np.ldexp(u.values, k), scaled.values)


# small balls of the four families: two trees on the sweep, two factored
SMALL_BALLS = [(F2, 3), ({"family": "free_abelian", "params": {"d": 2}}, 4), (Z2_3, 4), ({"family": "lamplighter", "params": {}}, 3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_BALLS), st.floats(1.1, 8.0), st.integers(-300, 300), st.integers(0, 2**32 - 1))
def test_clamps_of_any_magnitude_converge_or_are_refused(case, p, k, seed):
    """Sphere clamps g * 10^k, g uniform in (-1, 1): with warnings as
    errors, either the problem is refused up front with a one-line
    ValueError, which happens only where the p-th power of the clamps
    passes 10^300, or the solve converges within the default step budget
    to a finite energy. Its field over 10^k then lies within 1e-6 of the
    field of g, both solved to a tolerance of 1e-8 of the clamps (the
    stop floor takes over above 1). Newton runs on every clamp set scaled
    to a largest magnitude in (1/2, 1], with stop and stage limits in
    those units, so the two solves take nearly the same path. In 15 000
    draws outside hypothesis the worst gap was 4.3e-8 (the lamplighter at
    p = 1.10, k = 264), the distance at which the field of g stops at its
    tolerance of 1e-8; the field of g * 10^264 stops at the floor."""
    spec, radius = case
    ball = family_ball(spec, radius)
    g = np.full(len(ball), np.nan)
    g[ball.n_interior :] = np.random.default_rng(seed).uniform(-1, 1, ball.n_boundary)
    scale = 10.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            problem = DirichletProblem(ball, g * scale, p)
        except ValueError as exc:
            assert "\n" not in str(exc) and p * k > 300
            return
        u, rep = solve_dirichlet(problem, SolverConfig(tolerance=1e-8 * min(scale, 1.0)))
        ref, rep_ref = solve_dirichlet(DirichletProblem(ball, g, p))
    assert rep.converged and rep_ref.converged and np.isfinite(rep.final_energy)
    assert np.max(np.abs(u.values / scale - ref.values)) <= 1e-6


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
def test_tiny_arcs_among_normal_clamps_solve_without_warnings(f2_model, p):
    """Clamps that mix 1e-300 with 1 are not scaled: the identity, the one
    free vertex, sees arcs of 0 and 1e-300, whose mu^2 underflows. The
    floored regularizer keeps the weights finite; by symmetry the value
    there is 5e-301."""
    ball = f2_model.ball(3)
    clamps = np.ones(len(ball))
    clamps[0] = np.nan
    clamps[1:5] = [0.0, 1e-300, 0.0, 1e-300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, rep = solve_dirichlet(DirichletProblem(ball, clamps, p))
    assert rep.converged
    assert u.values[0] == pytest.approx(5e-301, rel=1e-12)


# the trees on the sweep, and Z^3 and Z^4 on the CG route
@pytest.mark.parametrize("spec,radius", FOUR_FAMILIES + [(F2, 5), (Z2_3, 6), (Z3, 14), (Z3, 20), (Z4, 8)])
def test_linear_dirichlet_matches_spsolve(spec, radius):
    ball = family_ball(spec, radius)
    problem = DirichletProblem(ball, random_clamps(ball, 19), 2.0)
    nbrs = ball.adj[problem.free]
    rhs = problem.clamped_values()[nbrs].sum(axis=1)
    expected = scipy.sparse.linalg.spsolve(reference_laplacian(problem, np.ones(nbrs.shape), 0.0), rhs)
    got = linear_dirichlet(problem)[problem.free]
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))


@pytest.mark.parametrize("first_good", [False, True])
def test_singular_system_gives_nan_without_raising(lamp_model, first_good):
    ball = lamp_model.ball(5)
    problem = DirichletProblem(ball, random_clamps(ball, 20), 2.0)
    system = problem._system
    rhs = np.ones(system.n_free)
    zero = np.zeros(system.nbrs.shape)
    if first_good:
        assert np.all(np.isfinite(system.solve(np.ones(system.nbrs.shape), 0.0, rhs)))
        assert system.route.order is not None
    for _ in range(2):
        assert np.all(np.isnan(system.solve(zero, 0.0, rhs)))
    assert np.all(np.isfinite(system.solve(np.ones(system.nbrs.shape), 0.0, rhs)))


@pytest.mark.parametrize("first_good", [False, True])
def test_band_singular_system_gives_nan_without_warnings(monkeypatch, z2_model, first_good):
    """On the band route a zero pivot (weights that underflow to 0) gives
    all NaN, with warnings as errors and no SuperLU call, before or after a
    good factorization, and the next good system solves."""
    ball = z2_model.ball(4)
    problem = DirichletProblem(ball, random_clamps(ball, 20), 2.0)
    system = problem._system
    calls = counted_splu(monkeypatch)
    rhs = np.ones(system.n_free)
    zero = np.zeros(system.nbrs.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if first_good:
            assert np.all(np.isfinite(system.solve(np.ones(system.nbrs.shape), 0.0, rhs)))
        for _ in range(2):
            assert np.all(np.isnan(system.solve(zero, 0.0, rhs)))
        assert np.all(np.isfinite(system.solve(np.ones(system.nbrs.shape), 0.0, rhs)))
    assert system.route.name == "band" and calls == []


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
