"""Clamped-boundary solves checked against second routes.

The 2-harmonic case is compared with a dense linear solve written from
scratch in conftest; other exponents go through scipy.optimize on small
balls and closed forms on radially symmetric networks.
"""

import numpy as np
import pytest
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
from pharmonic.dirichlet import _greedy_coloring, _minimize_rows

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
    cfg = SolverConfig.from_dict({"tolerance": 1e-6})
    assert cfg.tolerance == 1e-6
    with pytest.raises(ValueError):
        SolverConfig.from_dict({"tolernace": 1e-6})
    assert SolverConfig.from_dict(SolverConfig().to_dict()) == SolverConfig()


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


def test_from_elements(z_model):
    ball = z_model.ball(2)
    clamps = {g: float(z_model.element_to_obj(g)[0]) for g in ball.boundary_elements()}
    prob = DirichletProblem.from_elements(ball, clamps, 2.0)
    u, rep = solve_dirichlet(prob)
    assert rep.converged
    assert u.value_at(z_model.identity()) == pytest.approx(0.0, abs=1e-12)


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
    cfg = SolverConfig(warm_start=False, tolerance=1e-13)
    u_cold, rep_cold = solve_dirichlet(prob, cfg)
    rng = np.random.default_rng(13)
    hot = np.array([prob.clamped.get(i, 0.0) for i in range(len(ball))])
    hot[prob.free] = rng.uniform(-1, 1, prob.free.size)
    u_hot, rep_hot = solve_dirichlet(prob, cfg, initial=hot)
    assert rep_cold.converged and rep_hot.converged
    np.testing.assert_allclose(u_cold.values, u_hot.values, atol=1e-8)
    assert rep_cold.final_energy == pytest.approx(rep_hot.final_energy, rel=1e-12)


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
        capacity(z_model, 3, 3, 2.0)
    with pytest.raises(ValueError):
        capacity(z_model, -1, 3, 2.0)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 6.0])
def test_capacity_on_z(z_model, p):
    """Two independent rays of R unit edges each: value 4 R^(1-p)."""
    for radius in (3, 6, 12):
        cap, field, rep = capacity(z_model, 0, radius, p)
        assert rep.converged
        assert cap == pytest.approx(4.0 * radius ** (1.0 - p), rel=1e-7)
        assert field.value_at(z_model.identity()) == 1.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_capacity_on_f2(f2_model, p):
    """Shell counts 4 * 3^(r-1); series rule gives the condenser value."""
    for radius in (2, 4, 6):
        cap, _, rep = capacity(f2_model, 0, radius, p)
        expected = radial_capacity([4 * 3 ** (r - 1) for r in range(1, radius + 1)], p)
        assert rep.converged
        assert cap == pytest.approx(expected, rel=1e-7)


def test_capacity_on_free_product(zz2_model):
    for p in (2.0, 2.5):
        cap, _, rep = capacity(zz2_model, 0, 5, p)
        expected = radial_capacity([3 * 2 ** (r - 1) for r in range(1, 6)], p)
        assert rep.converged
        assert cap == pytest.approx(expected, rel=1e-7)


def test_capacity_inner_radius(f2_model):
    """Clamping a fatter core only removes inner shells from the series."""
    p = 2.0
    cap, field, rep = capacity(f2_model, 2, 6, p)
    expected = radial_capacity([4 * 3 ** (r - 1) for r in range(3, 7)], p)
    assert rep.converged
    assert cap == pytest.approx(expected, rel=1e-7)
    for g in f2_model.ball(2).vertices:
        assert field.value_at(g) == 1.0


def test_capacity_small_ball_scipy_check(z2_model):
    """No closed form on the grid: check against direct minimization."""
    p = 2.0
    cap, field, rep = capacity(z2_model, 0, 2, p)
    prob = DirichletProblem.from_elements(
        z2_model.ball(2),
        {
            **{g: 0.0 for g in z2_model.ball(2).boundary_elements()},
            z2_model.identity(): 1.0,
        },
        p,
    )
    expected = dense_linear_solve(prob)
    assert rep.converged
    assert cap == pytest.approx(reference_energy(prob.ball, expected, p), rel=1e-9)


# ---------------------------------------------------------------------------
# the scalar root-find and the coloring against plain second routes

EPS = float(np.finfo(np.float64).eps)


# the kernel's earlier loop over every row of the batch, kept verbatim as the reference
def full_array_minimize_rows(nbr_vals: np.ndarray, p: float, t0: np.ndarray, ftol: float) -> np.ndarray:
    """Batched exact minimizers of sum_s |t - a_s|^p, one row per vertex.

    Safeguarded Newton on F(t) = sum_s sign(t - a_s)|t - a_s|^{p-1} with a
    bisection fallback on [min a, max a]; rows are independent. Rows whose
    neighbors all coincide take the common value (kink rule for p < 2).
    """
    lo = nbr_vals.min(axis=1)
    hi = nbr_vals.max(axis=1)
    if p == 2.0:
        return nbr_vals.mean(axis=1)
    flat = lo == hi
    t = np.clip(t0, lo, hi)
    t = np.where(flat, lo, t)
    done = flat.copy()
    pm1 = p - 1.0
    for _ in range(200):
        gap = t[:, None] - nbr_vals
        absg = np.abs(gap)
        powg = absg ** pm1
        F = np.sum(np.sign(gap) * powg, axis=1)
        scale = np.sum(powg, axis=1)
        neg = F < 0.0
        lo = np.where(~done & neg, t, lo)
        hi = np.where(~done & ~neg, t, hi)
        newly = np.abs(F) <= np.maximum(ftol, 8.0 * EPS * scale)
        newly |= (hi - lo) <= 4.0 * EPS * np.maximum(np.abs(lo), np.abs(hi)) + 1e-300
        done |= newly
        if done.all():
            break
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            deriv = pm1 * np.sum(absg ** (p - 2.0), axis=1)
            step = np.where(deriv > 0.0, F / deriv, np.inf)
        tn = t - step
        mid = 0.5 * (lo + hi)
        bad = ~np.isfinite(tn) | (tn <= lo) | (tn >= hi)
        tn = np.where(bad, mid, tn)
        stuck = ~done & (np.abs(tn - t) <= EPS * np.maximum(1.0, np.abs(t)))
        tn = np.where(stuck, mid, tn)
        t = np.where(done, t, tn)
    return t


@st.composite
def row_batches(draw):
    """Neighbor rows with repeated values, fully flat rows and start points
    inside and outside each row's bracket."""
    p = draw(st.sampled_from([1.1, 1.2, 1.5, 2.0, 3.0, 8.0]))
    degree = draw(st.integers(3, 8))
    value = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(value, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["flat", "repeats", "any"]))
        if kind == "flat":
            rows.append([draw(value)] * degree)
        elif kind == "repeats":
            rows.append(draw(st.lists(st.sampled_from(pool), min_size=degree, max_size=degree)))
        else:
            rows.append(draw(st.lists(value, min_size=degree, max_size=degree)))
    t0 = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=len(rows), max_size=len(rows)))
    ftol = draw(st.sampled_from([5e-10, 1e-4]))
    return np.array(rows, dtype=np.float64), p, np.array(t0, dtype=np.float64), ftol


@settings(max_examples=300, deadline=None)
@given(row_batches())
def test_minimize_rows_bitwise_equals_full_array_loop(batch):
    nbr_vals, p, t0, ftol = batch
    lo, hi = nbr_vals.min(axis=1), nbr_vals.max(axis=1)
    got = _minimize_rows(nbr_vals.copy(), p, t0.copy(), ftol)
    want = full_array_minimize_rows(nbr_vals, p, t0, ftol)
    if p == 2.0:
        want = np.clip(want, lo, hi)  # the one deliberate change: the p = 2 mean is kept in its bracket
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.all((lo <= got) & (got <= hi))


COLORING_SPECS = [
    ({"family": "free_abelian", "params": {"d": 2}}, 7),
    ({"family": "free", "params": {"k": 2}}, 5),
    ({"family": "free_product_z2", "params": {"m": 3}}, 6),
    ({"family": "lamplighter", "params": {}}, 6),
    ({"family": "lamplighter", "params": {"extra_generators": [["t", "a"]]}}, 5),
]


def sequential_greedy(model, ball, free):
    """One vertex at a time in the order of free: the smallest color no
    already-colored free neighbor has."""
    color = {}
    for i in free:
        used = {color[ball.index[h]] for h in model.neighbors(ball.vertices[i]) if ball.index[h] in color}
        c = 0
        while c in used:
            c += 1
        color[int(i)] = c
    return color


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(COLORING_SPECS), st.integers(0, 10**9), st.floats(0.1, 1.0))
def test_greedy_coloring_matches_sequential_pass(spec_radius, seed, share):
    spec, radius = spec_radius
    model = build_group(spec)
    ball = model.ball(radius)
    rng = np.random.default_rng(seed)
    free = np.flatnonzero(rng.random(ball.n_interior) < share)
    classes = _greedy_coloring(ball.adj, free)
    members = np.concatenate(classes) if classes else np.zeros(0, dtype=np.int64)
    assert np.array_equal(np.sort(members), free)  # a partition of free
    for cls in classes:
        inside = set(cls.tolist())
        for i in cls:
            assert not any(ball.index[h] in inside for h in model.neighbors(ball.vertices[i]))
    expected = sequential_greedy(model, ball, free)
    assert [cls.tolist() for cls in classes] == [
        [i for i in free.tolist() if expected[i] == c] for c in range(len(classes))
    ]
