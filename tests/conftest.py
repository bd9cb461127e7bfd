"""Shared fixtures and independent reference computations.

The helpers here deliberately avoid the package's own vectorized paths:
arc lists are rebuilt from ``model.neighbors`` by plain loops, linear
solves go through dense numpy, and nonlinear minima come from
scipy.optimize on the rebuilt energy. Tests compare the package against
these slower second routes.
"""

import numpy as np
import pytest
import scipy.optimize

from pharmonic import CayleyBall, DirichletProblem, build_group


@pytest.fixture(scope="session")
def z_model():
    return build_group({"family": "free_abelian", "params": {"d": 1}})


@pytest.fixture(scope="session")
def z2_model():
    return build_group({"family": "free_abelian", "params": {"d": 2}})


@pytest.fixture(scope="session")
def f2_model():
    return build_group({"family": "free", "params": {"k": 2}})


@pytest.fixture(scope="session")
def zz2_model():
    return build_group({"family": "free_product_z2", "params": {"m": 3}})


@pytest.fixture(scope="session")
def lamp_model():
    return build_group({"family": "lamplighter", "params": {}})


def closed_form_word_length(model, g) -> int:
    """Word length of element g over a family's stock letters, by the closed
    forms of the ``groups`` docstring; an independent reference for depth."""
    family = model.spec.family
    if family == "free_abelian":
        return sum(abs(a) for a in g)
    if family in ("free", "free_product_z2"):
        return len(g)
    # lamplighter: each lamp toggled once, the cursor sweeping [lo, hi] from
    # 0 and turning at one end, to end at c
    lamps, c = g
    lo, hi = min(lamps + (0, c)), max(lamps + (0, c))
    return len(lamps) + (hi - lo) + min(-lo + abs(hi - c), hi + abs(c - lo))


def reference_arcs(ball: CayleyBall):
    """Directed arcs with an interior endpoint, rebuilt from neighbors()."""
    model = ball.model
    arcs = []
    for i, g in enumerate(ball.vertices):
        interior_i = i < ball.n_interior
        for h in model.neighbors(g):
            j = ball.index.get(h)
            if j is None:
                continue
            if interior_i or j < ball.n_interior:
                arcs.append((i, j))
    return arcs


def reference_energy(ball: CayleyBall, values: np.ndarray, p: float) -> float:
    return sum(abs(values[j] - values[i]) ** p for i, j in reference_arcs(ball))


def dense_linear_solve(problem: DirichletProblem) -> np.ndarray:
    """Dense 2-harmonic solve assembled with loops; numpy.linalg only."""
    ball = problem.ball
    free = [int(i) for i in problem.free]
    pos = {i: k for k, i in enumerate(free)}
    n = len(free)
    mat = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in free:
        k = pos[i]
        for h in ball.model.neighbors(ball.vertices[i]):
            j = ball.index[h]
            mat[k, k] += 1.0
            if j in pos:
                mat[k, pos[j]] -= 1.0
            else:
                rhs[k] += problem.clamped[j]
    sol = np.linalg.solve(mat, rhs)
    full = problem.clamped_values()
    for i, k in pos.items():
        full[i] = sol[k]
    return full


def optimize_energy(problem: DirichletProblem, x0=None) -> np.ndarray:
    """Minimize the rebuilt energy with scipy (BFGS); small balls only."""
    ball = problem.ball
    p = problem.p
    free = [int(i) for i in problem.free]
    arcs = reference_arcs(ball)
    base = problem.clamped_values()

    def fill(x):
        v = base.copy()
        v[free] = x
        return v

    def obj(x):
        v = fill(x)
        return sum(abs(v[j] - v[i]) ** p for i, j in arcs)

    start = base[free] if x0 is None else np.asarray(x0, dtype=float)
    res = scipy.optimize.minimize(
        obj,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 200_000, "maxfev": 200_000},
    )
    return fill(res.x)


def radial_capacity(edge_counts, p: float) -> float:
    """Condenser value for a radially symmetric network.

    ``edge_counts[r]`` is the number of edges joining shells r and r+1;
    every edge contributes twice (both arc orientations). The optimal
    radial drops follow the p-resistance series rule.
    """
    q = 1.0 / (p - 1.0)
    total = sum(float(n) ** (-q) for n in edge_counts)
    return 2.0 * total ** (1.0 - p)
