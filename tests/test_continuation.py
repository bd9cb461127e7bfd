"""The Newton solver over every family and the whole exponent range, its
supplied-start path, and two regressions it mends.

Continuation in p runs only above 2: a target above 2 is reached through
the stages of P_STAGES_UP, a target below 2 straight from the p = 2 field
(or, from a supplied start, after Newton at p = 2).

Oracles: the tree closed form u(e) = 1/(1 + b^(1/(p-1))) of the marked
field at the identity, the series rule 1/sum_{r<R} b^(-r/(p-1)) of the
probe gap on trees, a solve at tolerance 1e-13, and the maximum principle
everywhere.
"""

import json
from itertools import groupby

import numpy as np
import pytest

from pharmonic import DirichletProblem, SolverConfig, build_group, cli, default_marking, solve_dirichlet
from pharmonic.dirichlet import _NewtonStep
from pharmonic.exhaustion import VERDICT_GAP_VANISHING, witness_verdict

SOLVE_SECONDS = 20.0  # per solve, on a slow shared host

# (spec, radius, tree branching b or None): balls of 1 200 to 1 600 vertices
FAMILY_BALLS = [
    ({"family": "free", "params": {"k": 2}}, 6, 3),
    ({"family": "free_product_z2", "params": {"m": 3}}, 9, 2),
    ({"family": "free_abelian", "params": {"d": 2}}, 24, None),
    ({"family": "free_abelian", "params": {"d": 3}}, 10, None),
    ({"family": "lamplighter", "params": {}}, 10, None),
]
EXPONENTS = [1.1, 1.2, 1.5, 2.0, 3.0, 8.0]


def marked_problem(spec, radius, p):
    model = build_group(spec)
    ball = model.ball(radius)
    return model, DirichletProblem(ball, default_marking(model).sphere_clamps(ball), p)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("spec,radius,b", FAMILY_BALLS, ids=lambda x: x["family"] if isinstance(x, dict) else None)
def test_marked_solve_over_families_and_exponents(spec, radius, b, p):
    model, prob = marked_problem(spec, radius, p)
    assert 1_000 <= len(prob.ball) <= 5_000
    u, rep = solve_dirichlet(prob)
    assert rep.converged
    assert rep.elapsed < SOLVE_SECONDS
    assert u.values.min() >= 0.0 and u.values.max() <= 1.0
    if b is not None:
        assert u.value_at(model.identity()) == pytest.approx(1.0 / (1.0 + b ** (1.0 / (p - 1.0))), abs=1e-8)


@pytest.mark.parametrize("spec,radius,b", FAMILY_BALLS, ids=lambda x: x["family"] if isinstance(x, dict) else None)
def test_supplied_starts(spec, radius, b):
    """A start that already solves the p = 3 problem is kept as it is; a
    random start in the clamp range ends where the default start does."""
    _, prob = marked_problem(spec, radius, 3.0)
    u, rep = solve_dirichlet(prob)
    again, rep_again = solve_dirichlet(prob, initial=u)
    assert rep_again.converged and rep_again.iterations == 0
    np.testing.assert_array_equal(again.values, u.values)
    for p in EXPONENTS:
        _, prob = marked_problem(spec, radius, p)
        u, _ = solve_dirichlet(prob)
        start = prob.clamped_values()
        start[prob.free] = np.random.default_rng(31).uniform(0.0, 1.0, prob.free.size)
        v, rep = solve_dirichlet(prob, initial=start)
        assert rep.converged
        assert np.max(np.abs(v.values - u.values)) <= 1e-8


# every family and one extended generating set, 480 to 770 vertices each
DIRECT_BALLS = [
    ({"family": "free", "params": {"k": 2}}, 5),
    ({"family": "free_product_z2", "params": {"m": 3}}, 8),
    ({"family": "free_abelian", "params": {"d": 2}}, 16),
    ({"family": "lamplighter", "params": {}}, 8),
    ({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}}, 4),
]
BELOW_2 = [1.1, 1.25, 1.5, 1.9]


def uniform_problem(spec, radius, p):
    ball = build_group(spec).ball(radius)
    clamps = np.full(len(ball), np.nan)
    clamps[ball.n_interior :] = np.random.default_rng(5).uniform(-1.0, 1.0, ball.n_boundary)
    return DirichletProblem(ball, clamps, p)


@pytest.mark.parametrize("p", BELOW_2)
@pytest.mark.parametrize("spec,radius", DIRECT_BALLS, ids=lambda x: x["family"] if isinstance(x, dict) else None)
def test_direct_route_below_2_matches_a_tight_solve(spec, radius, p):
    """Newton at the target alone, from the p = 2 field or from a random
    start, ends within 1e-7 of a solve at tolerance 1e-13."""
    prob = uniform_problem(spec, radius, p)
    tight, rep = solve_dirichlet(prob, SolverConfig(tolerance=1e-13))
    assert rep.converged
    start = np.random.default_rng(9).uniform(-1.0, 1.0, len(prob.ball))
    for initial in (None, start):
        u, rep = solve_dirichlet(prob, initial=initial)
        assert rep.converged
        assert np.max(np.abs(u.values - tight.values)) <= 1e-7


@pytest.mark.parametrize("p,cold,warm", [
    (1.1, [1.1], [2.0, 1.1]),
    (1.5, [1.5], [2.0, 1.5]),
    (1.9, [1.9], [2.0, 1.9]),
    (4.5, [3.0, 4.0, 4.5], [4.5, 2.0, 3.0, 4.0, 4.5]),
])
def test_newton_exponents_visited(monkeypatch, p, cold, warm):
    """A cold solve below 2 computes Newton corrections at the target only,
    a supplied start at 2 and then at the target. Above 2 the stages of
    P_STAGES_UP below the target come first, and a supplied start is first
    tested against the stop rule at the target."""
    seen = []
    correction = _NewtonStep.correction

    def spy(self, u, q, rtol):
        seen.append(q)
        return correction(self, u, q, rtol)

    monkeypatch.setattr(_NewtonStep, "correction", spy)
    prob = uniform_problem(*DIRECT_BALLS[0], p)
    assert solve_dirichlet(prob)[1].converged
    assert [q for q, _ in groupby(seen)] == cold
    seen.clear()
    start = np.random.default_rng(9).uniform(-1.0, 1.0, len(prob.ball))
    assert solve_dirichlet(prob, initial=start)[1].converged
    assert [q for q, _ in groupby(seen)] == warm


def test_witness_gap_at_p8_follows_the_series_rule(tmp_path):
    """At p = 8 an absolute residual of 1e-8 pins values only to about
    1e-8^(1/7); the correction stop rule gets the gap of every radius."""
    out = tmp_path / "wit.json"
    assert cli.main(["witness", "--group", "free:k=2", "--radii", "6,7", "--p", "8", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["rows"]
    assert [r["radius"] for r in rows] == [6, 7]
    for row in rows:
        series = 1.0 / sum(3.0 ** (-r / 7.0) for r in range(row["radius"]))  # b = 3, 1/(p-1) = 1/7
        assert row["converged"]
        assert row["gap"] == pytest.approx(series, abs=1e-6)
    assert rows[0]["gap"] == pytest.approx(0.238103, abs=1e-6)
    assert rows[1]["gap"] == pytest.approx(0.217873, abs=1e-6)


@pytest.mark.parametrize("gap_first", [0.25000000000000006, 0.24999999999999994])
def test_exact_halving_reads_as_halved_under_either_rounding(gap_first):
    """Z at p = 2 with radii 4, 6, 8 has gaps 1/4, 1/6, 1/8; the first one
    comes out of the sparse solve one ulp to either side."""
    assert witness_verdict([gap_first, 1.0 / 6.0, 0.125], 0.0) == VERDICT_GAP_VANISHING
