"""Clamped p-Dirichlet problems on Cayley balls and their coordinate-descent solver.

A problem clamps all sphere vertices (and optionally interior vertices) to
given values and minimizes the truncated p-th power energy over the free
vertices. The minimizer is unique (the energy is strictly convex in the free
values once every free component touches a clamp) and satisfies the discrete
maximum principle: solution values stay inside the clamped range.

Solver: deterministic cyclic coordinate descent (nonlinear Gauss-Seidel)
interleaved with damped Newton steps on the full system. Free vertices are
colored greedily in index order (each takes the smallest color its earlier
free neighbors do not use) so that no two adjacent free vertices share a
color; one sweep updates the color classes in order, and inside a color
class all vertices are updated simultaneously (they do not interact, so the
result equals a sequential cyclic pass in that order). Each vertex update
minimizes sum_s |u(neighbor_s) - t|^p exactly: a safeguarded Newton
iteration on the strictly increasing derivative with bisection fallback on
the neighbor bracket [min, max], batched over the class and iterating only
the rows still open. For p = 2 the minimizer is the neighbor mean; if all
neighbors coincide the common value is taken (the kink case for p < 2).
Default initialization solves the p = 2 problem by a direct sparse solve
and warm-starts from it.

Coordinate descent alone develops long plateaus when p drops toward 1 (the
energy loses smoothness at equal neighbor values, and the p-Laplacian
residual reacts like |d|^(p-2) to coordinate changes), so whenever a sweep
leaves the residual above tolerance the solver also takes one global
Newton step: the Hessian is the graph Laplacian weighted by
(d^2 + mu^2)^((p-2)/2) on each arc (mu a tiny regularizer), the step is
accepted under a backtracking energy decrease, and both phases count
toward the iteration budget. Sweeps and Newton steps each decrease the
energy monotonically, and the Newton phase restores fast local convergence
for exponents near the ends of the allowed range.

Stopping: residual max_free |p-Laplacian| <= tolerance and the relative
energy change per round at most max(tolerance^2, machine floor); at the
default tolerance 1e-8 the square sits below double precision, so a small
multiple of machine epsilon acts as the effective energy floor. A run that
stops improving the residual for many rounds while the energy is fully
stalled reports converged=False with the residual it reached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .energy import ScalarField, check_exponent, phi_p
from .groups import CayleyBall, Element, GroupModel

_EPS = float(np.finfo(np.float64).eps)


class Record:
    """Base of the report dataclasses: ``to_dict`` returns the fields shown
    in repr, converting nested records and lists of records as well."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.repr}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@dataclass
class SolverConfig(Record):
    """Knobs for the coordinate-descent solver."""

    tolerance: float = 1e-8
    max_sweeps: int = 50_000
    warm_start: bool = True

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")

    @classmethod
    def from_dict(cls, obj: Mapping) -> "SolverConfig":
        known = {"tolerance", "max_sweeps", "warm_start"}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown solver config keys: {sorted(extra)}")
        return cls(
            tolerance=float(obj.get("tolerance", 1e-8)),
            max_sweeps=int(obj.get("max_sweeps", 50_000)),
            warm_start=bool(obj.get("warm_start", True)),
        )


@dataclass
class SolveReport(Record):
    iterations: int
    final_energy: float
    residual: float
    converged: bool
    elapsed: float


class DirichletProblem:
    """A ball, an exponent, and clamped vertex values covering the sphere.

    ``clamped`` is either a full-length float array with NaN at the free
    vertices, or a mapping from vertex index to clamped value (indices it
    leaves out are free). Both forms say the same thing; on the 13-vertex
    ball of Z^2 these two clamp the sphere to 0 and the identity to 1::

        values = np.full(len(ball), np.nan)
        values[ball.n_interior :] = 0.0
        values[0] = 1.0
        DirichletProblem(ball, values, p)
        DirichletProblem(ball, {0: 1.0, **{i: 0.0 for i in range(ball.n_interior, len(ball))}}, p)

    A mapping is turned into that array first. ``clamped`` is then the
    array, ``clamped_mask`` marks its non-NaN entries and ``free`` lists
    the rest. Every sphere vertex must be clamped, clamped values must be
    finite, and every free vertex must reach a clamp through free vertices.
    """

    def __init__(self, ball: CayleyBall, clamped: Union[np.ndarray, Mapping[int, float]], p: float):
        self.ball = ball
        self.p = check_exponent(p)
        n = len(ball)
        if isinstance(clamped, Mapping):
            idx = np.fromiter(map(int, clamped.keys()), dtype=np.int64, count=len(clamped))
            vals = np.fromiter(map(float, clamped.values()), dtype=np.float64, count=len(clamped))
            outside = (idx < 0) | (idx >= n)
            bad = outside | ~np.isfinite(vals)
            if bad.any():
                k = int(np.argmax(bad))
                if outside[k]:
                    raise ValueError(f"clamped index {idx[k]} outside the ball")
                raise ValueError(f"clamped value at index {idx[k]} is not finite")
            values = np.full(n, np.nan)
            values[idx] = vals
        else:
            values = np.array(clamped, dtype=np.float64)
            if values.shape != (n,):
                raise ValueError(f"clamped array must have shape ({n},), got {values.shape}")
            inf = np.isinf(values)
            if inf.any():
                raise ValueError(f"clamped value at index {int(np.argmax(inf))} is not finite")
        mask = ~np.isnan(values)
        missing = ball.n_interior + np.flatnonzero(~mask[ball.n_interior :])
        if missing.size:
            raise ValueError(
                f"all sphere vertices must be clamped; {missing.size} are not (first: {missing[:5].tolist()})"
            )
        self.clamped = values
        self.clamped_mask = mask
        self.free = np.flatnonzero(~mask)
        if self.free.size == 0:
            raise ValueError("no free interior vertex; nothing to solve")
        self._check_free_reaches_clamps()

    @classmethod
    def from_elements(cls, ball: CayleyBall, clamped: Mapping[Element, float], p: float) -> "DirichletProblem":
        return cls(ball, {ball.index[g]: v for g, v in clamped.items()}, p)

    def _check_free_reaches_clamps(self) -> None:
        # every free vertex must be connected through free vertices to a
        # clamp: one component on the free subgraph plus one merged clamp node
        n_free = self.free.size
        local = np.full(len(self.ball), n_free, dtype=np.int64)
        local[self.free] = np.arange(n_free)
        nbrs = local[self.ball.adj[self.free]]
        rows = np.repeat(np.arange(n_free, dtype=np.int64), nbrs.shape[1])
        graph = sp.csr_matrix((np.ones(rows.size), (rows, nbrs.ravel())), shape=(n_free + 1, n_free + 1))
        _, labels = connected_components(graph, directed=False)
        if np.any(labels[:n_free] != labels[n_free]):
            raise ValueError("a free region is not edge-connected to any clamped vertex")

    def clamped_values(self) -> np.ndarray:
        """The clamped values, 0 at the free vertices."""
        return np.where(self.clamped_mask, self.clamped, 0.0)

    def clamped_range(self) -> Tuple[float, float]:
        vals = self.clamped[self.clamped_mask]
        return (float(vals.min()), float(vals.max()))


def linear_dirichlet(problem: DirichletProblem) -> np.ndarray:
    """Direct sparse solve of the p = 2 problem (also the warm start): the
    unit-weight Laplacian, clamped neighbor values summed in generator-slot
    order on the right-hand side."""
    system = _NewtonStep(problem)
    u = problem.clamped_values()  # zero at the free vertices
    nbr_vals = u[system.nbrs]
    rhs = np.zeros(system.n_free)
    for slot in range(nbr_vals.shape[1]):
        rhs += nbr_vals[:, slot]
    u[problem.free] = system.solve(np.ones(system.nbrs.shape), 0.0, rhs)
    return u


def _greedy_coloring(adj: np.ndarray, free: np.ndarray) -> List[np.ndarray]:
    """Greedy coloring of the free vertices in the order of ``free``: each
    vertex takes the smallest color that its earlier free neighbors do not
    use. Computed in rounds: a vertex is colored in the first round in which
    all of its earlier free neighbors are, so vertices colored together are
    never adjacent and see exactly the colors a one-by-one pass shows them.
    Classes are independent sets."""
    n_free = free.size
    if n_free == 0:
        return []
    local = -np.ones(max(int(adj.max()) + 1, int(free.max()) + 1), dtype=np.int64)
    local[free] = np.arange(n_free)
    nbrs = local[adj[free]]
    degree = nbrs.shape[1]
    # earlier free neighbors by local index; slot n_free stands for "none"
    # and reads as an already-colored vertex whose color no one can want
    earlier = np.where((nbrs >= 0) & (nbrs < np.arange(n_free)[:, None]), nbrs, n_free)
    color = -np.ones(n_free + 1, dtype=np.int64)
    color[n_free] = degree + 1
    pending = np.arange(n_free)
    for _ in range(n_free):  # each round colors at least the first pending vertex
        seen = color[earlier[pending]]
        ready = np.all(seen >= 0, axis=1)
        used = np.zeros((int(ready.sum()), degree + 2), dtype=bool)
        used[np.arange(used.shape[0])[:, None], np.minimum(seen[ready], degree + 1)] = True
        color[pending[ready]] = np.argmin(used, axis=1)
        pending = pending[~ready]
        if pending.size == 0:
            break
    return [free[color[:n_free] == c] for c in range(int(color[:n_free].max()) + 1)]


def _minimize_rows(nbr_vals: np.ndarray, p: float, t0: np.ndarray, ftol: float) -> np.ndarray:
    """Batched exact minimizers of sum_s |t - a_s|^p, one row per vertex.

    Safeguarded Newton on F(t) = sum_s sign(t - a_s)|t - a_s|^{p-1} with a
    bisection fallback on [min a, max a]; rows are independent. Rows whose
    neighbors all coincide take the common value (kink rule for p < 2).
    Each iteration works only on the rows still open: a row that meets the
    residual or bracket test is written out and dropped from the working
    arrays, so the per-row arithmetic is that of a loop over all rows.
    Rows still open after 200 iterations keep their last iterate.
    """
    lo = nbr_vals.min(axis=1)
    hi = nbr_vals.max(axis=1)
    if p == 2.0:
        # the rounded mean of equal values can land one ulp outside them
        return np.clip(nbr_vals.mean(axis=1), lo, hi)
    out = np.clip(t0, lo, hi)
    flat = lo == hi
    out[flat] = lo[flat]
    act = np.flatnonzero(~flat)
    if act.size == 0:
        return out
    vals, t, lo, hi = nbr_vals[act], out[act], lo[act], hi[act]
    pm1 = p - 1.0
    for _ in range(200):
        gap = t[:, None] - vals
        absg = np.abs(gap)
        powg = absg ** pm1
        F = np.sum(np.sign(gap) * powg, axis=1)
        scale = np.sum(powg, axis=1)
        neg = F < 0.0
        lo = np.where(neg, t, lo)
        hi = np.where(neg, hi, t)
        done = np.abs(F) <= np.maximum(ftol, 8.0 * _EPS * scale)
        done |= (hi - lo) <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + 1e-300
        if done.any():
            out[act[done]] = t[done]
            keep = ~done
            if not keep.any():
                return out
            act, vals, t, lo, hi, absg, F = act[keep], vals[keep], t[keep], lo[keep], hi[keep], absg[keep], F[keep]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            deriv = pm1 * np.sum(absg ** (p - 2.0), axis=1)
            step = np.where(deriv > 0.0, F / deriv, np.inf)
        tn = t - step
        mid = 0.5 * (lo + hi)
        bad = ~np.isfinite(tn) | (tn <= lo) | (tn >= hi)
        tn = np.where(bad, mid, tn)
        stuck = np.abs(tn - t) <= _EPS * np.maximum(1.0, np.abs(t))
        t = np.where(stuck, mid, tn)
    out[act] = t
    return out


def _convergence(u: np.ndarray, free: np.ndarray, nbrs: np.ndarray, p: float, tol: float, energy: float):
    """Sup residual plus an at-machine-resolution verdict.

    For p < 2 the per-term slope |d|^(p-2) blows up at small neighbor
    differences, and demanding sup-residual <= tol near such a kink is
    unsatisfiable in float64 even at the exact minimizer. Two effects are
    measured: a one-ulp change of a vertex value already moves its local
    residual by more than the residual itself (kink lock), or -- only for
    p < 2, where the kinks live -- the estimated energy gain of the optimal
    local moves, summed over free vertices, is below one ulp of the total
    energy, so no energy-monotone method can accept any further step.
    """
    d = u[nbrs] - u[free, None]
    res = np.abs(np.sum(phi_p(d, p), axis=1))
    sup = float(res.max()) if res.size else 0.0
    scale = max(1.0, float(np.max(np.abs(u))))
    curv = (p - 1.0) * np.sum(np.maximum(np.abs(d), _EPS * scale) ** (p - 2.0), axis=1)
    ulp_floor = 4.0 * _EPS * scale * curv
    kink_locked = bool(np.all(res <= np.maximum(tol, ulp_floor)))
    energy_locked = False
    if p < 2.0:
        gain = np.divide(res * res, 2.0 * curv, out=np.zeros_like(res), where=curv > 0.0)
        energy_locked = float(gain.sum()) <= _EPS * max(1.0, energy)
    return sup, kink_locked or energy_locked


class _NewtonStep:
    """One damped Newton step on the free values, reusing a fixed sparsity
    pattern. The linearized system is the mu-regularized weighted Laplacian;
    steps are accepted only under a strict energy decrease. The same
    assembly with unit weights is the p = 2 system of ``linear_dirichlet``."""

    def __init__(self, problem: DirichletProblem):
        ball = problem.ball
        self.free = problem.free
        self.p = problem.p
        n_free = self.free.size
        local = -np.ones(len(ball), dtype=np.int64)
        local[self.free] = np.arange(n_free)
        self.nbrs = ball.adj[self.free]
        nbr_local = local[self.nbrs]
        self.off_mask = nbr_local >= 0
        row_grid = np.repeat(np.arange(n_free, dtype=np.int64), ball.model.degree).reshape(n_free, -1)
        self.rows = np.concatenate([np.arange(n_free, dtype=np.int64), row_grid[self.off_mask]])
        self.cols = np.concatenate([np.arange(n_free, dtype=np.int64), nbr_local[self.off_mask]])
        self.n_free = n_free
        self.arcs = ball.arcs()
        self.n_total = len(ball)

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
        """Solve with the Laplacian of arc weights w (one row per free
        vertex, one column per generator slot), diagonal shifted by shift."""
        diag = w.sum(axis=1) + shift
        data = np.concatenate([diag, -w[self.off_mask]])
        mat = sp.csr_matrix((data, (self.rows, self.cols)), shape=(self.n_free, self.n_free))
        return spla.spsolve(mat.tocsc(), rhs)

    def attempt(self, u: np.ndarray, energy: float) -> Tuple[bool, float]:
        p = self.p
        d = u[self.nbrs] - u[self.free, None]
        scale = float(np.max(np.abs(d), initial=0.0))
        if scale == 0.0:
            return False, energy
        mu = 1e-8 * scale
        w = (d * d + mu * mu) ** (0.5 * (p - 2.0))
        rhs = np.sum(phi_p(d, p), axis=1) / (p - 1.0)
        try:
            step = self.solve(w, 1e-14 * float(np.max(w)), rhs)
        except Exception:
            return False, energy
        if not np.all(np.isfinite(step)):
            return False, energy
        src, dst = self.arcs
        full = np.zeros(self.n_total)
        full[self.free] = step
        d0 = u[dst] - u[src]
        dd = full[dst] - full[src]
        alpha = 1.0
        for _ in range(40):
            trial = float(np.sum(np.abs(d0 + alpha * dd) ** p))
            if trial < energy:
                u[self.free] += alpha * step
                return True, trial
            alpha *= 0.5
        return False, energy


def _energy(u: np.ndarray, arcs, p: float) -> float:
    src, dst = arcs
    return float(np.sum(np.abs(u[dst] - u[src]) ** p))


def solve_dirichlet(
    problem: DirichletProblem,
    config: Optional[SolverConfig] = None,
    initial: Union[None, str, np.ndarray, ScalarField] = None,
) -> Tuple[ScalarField, SolveReport]:
    """Solve a clamped p-Dirichlet problem; returns (field, report).

    ``initial`` overrides the start: "zero", "clamped_mean", a full value
    array, or a ScalarField on the same ball. By default the p = 2 linear
    solution is used when ``config.warm_start`` and the clamped mean
    otherwise. Non-convergence is reported, not raised.

    Success means the sup residual met the tolerance, or the energy stopped
    moving and every free vertex sits within float64 resolution of a zero
    p-Laplacian (see _convergence); the reported residual is the raw sup
    either way, so it can exceed the tolerance on a converged run when p is
    close to 1 and the solution has near-flat edges.
    """
    config = config or SolverConfig()
    p = problem.p
    ball = problem.ball
    start = time.perf_counter()

    u = problem.clamped_values()
    free = problem.free
    if initial is None:
        initial = "warm" if config.warm_start else "clamped_mean"
    if isinstance(initial, ScalarField):
        initial = initial.values
    if isinstance(initial, str):
        if initial == "warm":
            u = linear_dirichlet(problem)
        elif initial == "zero":
            u[free] = 0.0
        elif initial == "clamped_mean":
            u[free] = float(np.mean(problem.clamped[problem.clamped_mask]))
        else:
            raise ValueError(f"unknown initialization {initial!r}")
    else:
        init = np.asarray(initial, dtype=np.float64)
        if init.shape != u.shape:
            raise ValueError(f"initial values must have shape {u.shape}")
        u[free] = init[free]

    classes = _greedy_coloring(ball.adj, free)
    class_nbrs = [ball.adj[idx] for idx in classes]
    free_nbrs = ball.adj[free]
    arcs = ball.arcs()
    inner_ftol = 0.05 * config.tolerance

    energy = _energy(u, arcs, p)
    res, at_floor = _convergence(u, free, free_nbrs, p, config.tolerance, energy)
    converged = res <= config.tolerance
    sweeps = 0
    energy_floor = max(config.tolerance ** 2, 16.0 * _EPS)
    newton = _NewtonStep(problem) if p != 2.0 else None
    best_res = res
    rounds_since_gain = 0
    while not converged and sweeps < config.max_sweeps:
        for idx, nbrs in zip(classes, class_nbrs):
            u[idx] = _minimize_rows(u[nbrs], p, u[idx], inner_ftol)
        sweeps += 1
        new_energy = _energy(u, arcs, p)
        res, at_floor = _convergence(u, free, free_nbrs, p, config.tolerance, new_energy)
        stalled = abs(new_energy - energy) <= energy_floor * max(1.0, new_energy)
        energy = new_energy
        if res <= config.tolerance:
            converged = True
            break
        # a Newton step can still sharpen residuals whose energy signature is
        # below float64 resolution, so the floor verdict must wait for it
        newton_blocked = True
        if newton is not None and sweeps < config.max_sweeps:
            took, energy = newton.attempt(u, energy)
            if took:
                sweeps += 1
                newton_blocked = False
                res, at_floor = _convergence(u, free, free_nbrs, p, config.tolerance, energy)
                if res <= config.tolerance:
                    converged = True
                    break
        if stalled and at_floor and newton_blocked:
            converged = True
            break
        if res < best_res * (1.0 - 1e-3):
            best_res = res
            rounds_since_gain = 0
        else:
            rounds_since_gain += 1
            if rounds_since_gain >= 40 and stalled:
                converged = res <= config.tolerance or at_floor
                break

    report = SolveReport(
        iterations=sweeps,
        final_energy=energy,
        residual=res,
        converged=bool(converged),
        elapsed=time.perf_counter() - start,
    )
    return ScalarField(ball, u), report


def capacity(
    model: GroupModel,
    inner_radius: int,
    outer_radius: int,
    p: float,
    config: Optional[SolverConfig] = None,
    budget: Optional[int] = None,
) -> Tuple[float, ScalarField, SolveReport]:
    """Truncated p-capacity between the closed ball of inner_radius and the
    sphere of outer_radius: clamp 1 inside, 0 on the sphere, solve, and
    return the energy sum (each edge counted twice), the potential, and the
    solve report."""
    p = check_exponent(p)
    if inner_radius < 0 or inner_radius >= outer_radius:
        raise ValueError(f"need 0 <= inner_radius < outer_radius, got {inner_radius}, {outer_radius}")
    ball = model.ball(outer_radius, budget)
    clamped = np.where(ball.depth <= inner_radius, 1.0, np.nan)
    clamped[ball.n_interior :] = 0.0
    if not np.isnan(clamped).any():
        # adjacent shells leave nothing to solve; the potential is the clamps
        u = ScalarField(ball, clamped)
        report = SolveReport(0, _energy(clamped, ball.arcs(), p), 0.0, True, 0.0)
    else:
        problem = DirichletProblem(ball, clamped, p)
        u, report = solve_dirichlet(problem, config)
    src, dst = ball.arcs()
    cap = float(np.sum(np.abs(u.values[dst] - u.values[src]) ** p))
    return cap, u, report
