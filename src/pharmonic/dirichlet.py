"""Clamped p-Dirichlet problems on Cayley balls and their Newton solver.

A problem clamps all sphere vertices (and optionally interior vertices) to
given values and minimizes the truncated p-th power energy over the free
vertices. The minimizer is unique (the energy is strictly convex in the free
values, since every free component touches a clamp) and satisfies the
discrete maximum principle: solution values stay inside the clamped range.

Solver: damped Newton on the free values, from the p = 2 field (a linear
problem, solved directly) to the target exponent. Continuation in p runs
above 2 only (homotopy in p, as in Adil, Peng & Sachdeva, NeurIPS 2019):
Newton runs at each exponent of P_STAGES_UP below the target, each stage
starting from the field of the one before, which on Z^2 R=24 at p = 8
takes 336 Newton steps against 705 straight up. Below 2 such stages cost
steps and save none, and Newton runs at the target alone. A Newton step
solves the p-Laplacian equations linearized at the current field: the
Hessian is the graph Laplacian of the free vertices weighted by
(d^2 + mu^2)^((p-2)/2) on each arc, mu one ulp of the longest arc; it is
symmetric positive definite and is factored without pivoting. For p < 2 an
arc that the step would carry across 0 takes the IRLS weight instead (see
_NewtonStep.correction). The step is damped by backtracking on the energy.

Factorization: every linear system of a problem, the p = 2 one included,
has the same sparsity pattern and goes through the one symmetric SuperLU
route of _NewtonStep.solve. Its first factorization computes a minimum
degree order of the pattern; the pattern is renumbered into that order
once, and every later factorization of the problem reuses it. The first
factor's fill also sets SuperLU's panel width and supernode relaxation
(Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999) for the later ones.
The first keeps SuperLU's defaults, which suit dense fill. A factor with at
most SPARSE_FILL nonzeros per free vertex (the free products, the
lamplighter, Z^2, Z^3 up to R = 18) has sparse fill, and the later
factorizations of its problem take panels of SPARSE_FILL_PANEL columns and
a relaxation of SPARSE_FILL_RELAX. On a 2-core x86 machine that took 0.42
of the default time on F_2 R=8 (4.4 nonzeros per free vertex), 0.68 on
Z^2 R=30 (25), 0.77 on Z^3 R=14 (103) and 0.94 on Z^3 R=18 (149), but
1.0 on Z^3 R=19 (172) and R=20 (185) and 1.1 on Z^3 R=26 (328), where the
defaults stay.

Stopping: the sup of the Newton correction is the one stop test. A stage
before the target ends once it is at most max(tolerance, STAGE_TOL); the
target stage ends once it is at most the tolerance, and that last
correction is added as it stands. Unlike the p-Laplacian residual, which
at large p pins values only to about residual^(1/(p-1)), the correction
measures the distance to the minimizer itself. ``max_sweeps`` bounds the
Newton steps of all stages together; a solve that runs out of them, or
whose line search finds no lower energy, reports converged=False.
Iterates may leave the clamped range between steps; the returned field is
clipped to it once, at the end. The minimizer lies in that box, and
clipping never raises the energy, since it lengthens no arc.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import ScalarField, check_exponent, phi_p
from .groups import CayleyBall

# continuation exponents between 2 and a target above 2, in the order visited
P_STAGES_UP = (3.0, 4.0, 5.0, 6.0, 7.0)
LINE_SEARCH_HALVINGS = 50
STAGE_TOL = 1e-3  # correction that ends a stage before the target one
# A problem whose first factor holds at most SPARSE_FILL nonzeros per free
# vertex factors every later system with SuperLU's supernode relaxation
# SPARSE_FILL_RELAX and panel width SPARSE_FILL_PANEL; a denser one keeps
# SuperLU's defaults (see "Factorization:" above)
SPARSE_FILL = 150
SPARSE_FILL_RELAX = 8
SPARSE_FILL_PANEL = 4
ENERGY_ROUNDOFF = 1e-12  # relative energy change below float64 summation resolution
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
    """Knobs for the Newton solver: the stop test on the sup of the Newton
    correction and the budget of Newton steps over all p stages."""

    tolerance: float = 1e-8
    max_sweeps: int = 50_000

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")


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
    the rest. Every sphere vertex must be clamped and clamped values must be
    finite. That makes every free vertex reach a clamp through free
    vertices: interior rows of ``ball.adj`` are complete and the ball is
    connected, so a free component with no clamped neighbour would be the
    whole ball, sphere included.
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

    @cached_property
    def _system(self) -> "_NewtonStep":
        """The sparse Laplacian system of the free vertices, built on first use."""
        return _NewtonStep(self)

    def clamped_values(self) -> np.ndarray:
        """The clamped values, 0 at the free vertices."""
        return np.where(self.clamped_mask, self.clamped, 0.0)

    def clamped_range(self) -> Tuple[float, float]:
        vals = self.clamped[self.clamped_mask]
        return (float(vals.min()), float(vals.max()))


def linear_dirichlet(problem: DirichletProblem) -> np.ndarray:
    """Direct sparse solve of the p = 2 problem (also the default start): the
    unit-weight Laplacian, clamped neighbor values summed in generator-slot
    order on the right-hand side. It is the first factorization of the
    problem's ``_NewtonStep``, which finds the fill-reducing order that the
    Newton steps reuse."""
    system = problem._system
    u = problem.clamped_values()  # zero at the free vertices
    nbr_vals = u[system.nbrs]
    rhs = np.zeros(system.n_free)
    for slot in range(nbr_vals.shape[1]):
        rhs += nbr_vals[:, slot]
    u[problem.free] = system.solve(np.ones(system.nbrs.shape), 0.0, rhs)
    return u


class _NewtonStep:
    """Newton corrections on the free values over a fixed sparsity pattern.

    The linearized system is the mu-regularized weighted Laplacian of the
    free vertices. Its CSC pattern is built once; each solve refills
    ``.data``, summing entries that share a (row, column) slot. The same
    assembly with unit weights is the p = 2 system of ``linear_dirichlet``.

    The first factorization orders the pattern by minimum degree on A^T + A
    (Liu, ACM TOMS 11, 1985). The pattern and the slot map are then
    renumbered into that order once, and every later factorization takes
    the pre-ordered matrix as it stands, so the ordering runs once per
    problem. The first factor's nonzeros per free vertex, ``SuperLU.nnz``
    over ``n_free``, choose the SuperLU settings of the later ones once:
    narrow panels and little supernode relaxation up to SPARSE_FILL,
    SuperLU's defaults above it. Right-hand sides and solutions keep the
    order of ``free``."""

    def __init__(self, problem: DirichletProblem):
        ball = problem.ball
        self.free = problem.free
        n_free = self.free.size
        local = -np.ones(len(ball), dtype=np.int64)
        local[self.free] = np.arange(n_free)
        self.nbrs = ball.adj[self.free]
        nbr_local = local[self.nbrs]
        self.off_mask = nbr_local >= 0
        row_grid = np.repeat(np.arange(n_free, dtype=np.int64), ball.model.degree).reshape(n_free, -1)
        rows = np.concatenate([np.arange(n_free, dtype=np.int64), row_grid[self.off_mask]])
        cols = np.concatenate([np.arange(n_free, dtype=np.int64), nbr_local[self.off_mask]])
        self.n_free = n_free
        self.order: Optional[np.ndarray] = None  # position of each free vertex in the factored matrix
        self.panels: Dict[str, int] = {}  # SuperLU settings of the NATURAL factorizations
        self.slot, self.matrix = self._pattern(rows, cols)
        self.arcs = ball.arcs()
        self.n_total = len(ball)

    def _pattern(self, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, sp.csc_matrix]:
        """The CSC pattern of the entries (rows, cols), and the slot of each
        entry in its ``.data``."""
        n = self.n_free
        keys, slot = np.unique(cols * n + rows, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        return slot, sp.csc_matrix((np.zeros(keys.size), keys % n, indptr), shape=(n, n))

    def laplacian(self, w: np.ndarray, shift: float) -> sp.csc_matrix:
        """The Laplacian of arc weights w (one row per free vertex, one
        column per generator slot), diagonal shifted by shift; after the
        first factorization its rows and columns are in ``order``."""
        entries = np.concatenate([w.sum(axis=1) + shift, -w[self.off_mask]])
        self.matrix.data = np.bincount(self.slot, weights=entries, minlength=self.matrix.nnz)
        return self.matrix

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
        """Solve with the Laplacian of weights w and diagonal shift: a
        symmetric positive definite system for positive weights and shift
        (or unit weights and shift 0, the p = 2 system), factored without
        pivoting. The first call orders it by minimum degree and renumbers
        the pattern into that order; later calls factor the pre-ordered
        matrix in its natural order, with the problem's ``panels``. All NaN
        if the factorization meets a zero pivot (weights that underflow to
        0); MemoryError if SuperLU runs out of memory."""
        first = self.order is None
        matrix = self.laplacian(w, shift)
        ordering = {"permc_spec": "MMD_AT_PLUS_A"} if first else {"permc_spec": "NATURAL", **self.panels}
        try:
            lu = spla.splu(matrix, diag_pivot_thresh=0.0, options={"SymmetricMode": True}, **ordering)
        except RuntimeError:
            return np.full(self.n_free, np.nan)
        except (MemoryError, SystemError) as exc:
            raise MemoryError(
                f"out of memory factoring the Newton system of {self.n_free} free vertices"
            ) from exc
        if first:
            x = lu.solve(rhs)
            self._renumber(lu.perm_c, lu.nnz)
            return x
        b = np.empty(self.n_free)
        b[self.order] = rhs
        return lu.solve(b)[self.order]

    def _renumber(self, order: np.ndarray, factor_nnz: int) -> None:
        """Move free vertex k to position order[k] of the pattern, once, and
        choose the SuperLU settings of the later factorizations from the
        first factor's ``factor_nnz`` nonzeros."""
        sparse_fill = factor_nnz <= SPARSE_FILL * self.n_free
        self.panels = {"relax": SPARSE_FILL_RELAX, "panel_size": SPARSE_FILL_PANEL} if sparse_fill else {}
        order = order.astype(np.int64)
        m = self.matrix
        cols = np.repeat(np.arange(self.n_free, dtype=np.int64), np.diff(m.indptr))
        slot, self.matrix = self._pattern(order[m.indices], order[cols])
        self.slot = slot[self.slot]
        self.order = order

    def correction(self, u: np.ndarray, p: float) -> np.ndarray:
        """The Newton correction of the free values at exponent p.

        For p < 2 the tangent model of |d|^p overshoots near d = 0: where
        the step would carry an arc across 0, that arc's weight is raised
        to the secant slope |d|^(p-2) of the majorizing quadratic (the
        reweighting of IRLS) and the system is solved again."""
        d = u[self.nbrs] - u[self.free, None]
        scale = float(np.max(np.abs(d), initial=0.0))
        if scale == 0.0:
            return np.zeros(self.n_free)
        mu = _EPS * scale  # arcs shorter than one ulp of the longest are flat
        w = (d * d + mu * mu) ** (0.5 * (p - 2.0))
        # 1e-14 of the longest arc's weight keeps the system regular where
        # flat arcs carry no weight (p > 2)
        shift = 1e-14 * scale ** (p - 2.0)
        rhs = np.sum(phi_p(d, p), axis=1) / (p - 1.0)
        step = self.solve(w, shift, rhs)
        if p < 2.0:
            full = np.zeros(self.n_total)
            full[self.free] = step
            crossing = d * (d + full[self.nbrs] - step[:, None]) < 0.0
            if crossing.any():
                w = np.where(crossing, w / (p - 1.0), w)
                step = self.solve(w, shift, rhs)
        return step

    def line_search(self, u: np.ndarray, step: np.ndarray, p: float) -> float:
        """The first alpha in 1, 1/2, 1/4, ... that lowers the energy along
        step, or 0.0 if none of LINE_SEARCH_HALVINGS does.

        Near the minimizer the energy change of a step drops below float64
        resolution. A trial whose energy is level with the start's within
        ENERGY_ROUNDOFF is then accepted when the directional derivative
        there is at most half the size of the start's (negative) one: on
        the quadratic model such a step lowers the energy."""
        src, dst = self.arcs
        full = np.zeros(self.n_total)
        full[self.free] = step
        d0 = u[dst] - u[src]
        dd = full[dst] - full[src]
        e0 = float(np.sum(np.abs(d0) ** p))
        slope0 = float(np.sum(phi_p(d0, p) * dd))
        alpha = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            d = d0 + alpha * dd
            e = float(np.sum(np.abs(d) ** p))
            if e < e0 or (e <= e0 * (1.0 + ENERGY_ROUNDOFF) and float(np.sum(phi_p(d, p) * dd)) <= -0.5 * slope0):
                return alpha
            alpha *= 0.5
        return 0.0


def _energy(u: np.ndarray, arcs, p: float) -> float:
    src, dst = arcs
    return float(np.sum(np.abs(u[dst] - u[src]) ** p))


def solve_dirichlet(
    problem: DirichletProblem,
    config: Optional[SolverConfig] = None,
    initial: Union[None, np.ndarray, ScalarField] = None,
) -> Tuple[ScalarField, SolveReport]:
    """Solve a clamped p-Dirichlet problem; returns (field, report).

    ``initial`` is None or the start: a full value array or a ScalarField on
    the same ball, whose free entries are used. None starts from the p = 2
    linear solution; from a supplied start Newton runs at p = 2 first. Then
    it runs at the stages of P_STAGES_UP below a target above 2, none below
    2, and at the target. A supplied start at p > 2 that already passes the
    stop test at the target is returned as it is, after 0 iterations.

    The solve converges when the sup of the Newton correction at the target
    exponent is at most ``config.tolerance``; that last correction is added
    to the field. ``config.max_sweeps`` bounds the damped Newton steps of
    all stages together, and ``iterations`` counts them. The returned field
    is clipped to the clamped range. The reported residual is the sup of
    the p-Laplacian over the free vertices of that field: for p < 2 it can
    stay far above the tolerance at arcs whose two values nearly coincide,
    where one ulp of either value moves it by about (p-1)|d|^(p-2) ulp.
    Non-convergence is reported, not raised.
    """
    config = config or SolverConfig()
    p = problem.p
    ball = problem.ball
    start = time.perf_counter()

    free = problem.free
    tol = config.tolerance
    newton = problem._system
    # the exponents after 2 that Newton visits
    stages = [] if p == 2.0 else [q for q in P_STAGES_UP if q < p] + [p]
    if initial is None:
        u = linear_dirichlet(problem)
    else:
        if isinstance(initial, ScalarField):
            initial = initial.values
        u = problem.clamped_values()
        init = np.asarray(initial, dtype=np.float64)
        if init.shape != u.shape:
            raise ValueError(f"initial values must have shape {u.shape}")
        u[free] = init[free]
        # a start that already passes the stop test is returned as it is; not
        # at p < 2, where exactly flat arcs make the system stiff enough for
        # a small correction far from the minimizer
        if p > 2.0 and np.max(np.abs(newton.correction(u, p))) <= tol:
            stages = []
        else:
            stages = [2.0] + stages

    steps = 0
    converged = True
    for q in stages:
        stage_tol = tol if q == p else max(tol, STAGE_TOL)
        step = newton.correction(u, q)
        while not np.max(np.abs(step)) <= stage_tol:  # a NaN correction goes to the line search and fails there
            alpha = newton.line_search(u, step, q) if steps < config.max_sweeps else 0.0
            if alpha == 0.0:
                converged = False
                break
            u[free] += alpha * step
            steps += 1
            step = newton.correction(u, q)
        if not converged:
            break
    if converged and stages:
        u[free] += step  # the last correction, already within tolerance, taken as it stands

    lo, hi = problem.clamped_range()
    u[free] = np.clip(u[free], lo, hi)
    d = u[newton.nbrs] - u[free, None]
    report = SolveReport(
        iterations=steps,
        final_energy=_energy(u, newton.arcs, p),
        residual=float(np.max(np.abs(np.sum(phi_p(d, p), axis=1)))),
        converged=converged,
        elapsed=time.perf_counter() - start,
    )
    return ScalarField(ball, u), report


def capacity(
    ball: CayleyBall,
    inner_radius: int,
    p: float,
    config: Optional[SolverConfig] = None,
) -> Tuple[float, ScalarField, SolveReport]:
    """Truncated p-capacity between the closed ball of inner_radius and the
    sphere of ``ball``: clamp 1 inside, 0 on the sphere, solve, and return
    the energy sum (each edge counted twice), the potential, and the solve
    report."""
    p = check_exponent(p)
    if inner_radius < 0 or inner_radius >= ball.radius:
        raise ValueError(f"need 0 <= inner_radius < outer radius, got {inner_radius}, {ball.radius}")
    clamped = np.where(ball.depth <= inner_radius, 1.0, np.nan)
    clamped[ball.n_interior :] = 0.0
    if not np.isnan(clamped).any():
        # adjacent shells leave nothing to solve; the potential is the clamps
        u = ScalarField(ball, clamped)
        report = SolveReport(0, _energy(clamped, ball.arcs(), p), 0.0, True, 0.0)
    else:
        problem = DirichletProblem(ball, clamped, p)
        u, report = solve_dirichlet(problem, config)
    return report.final_energy, u, report
