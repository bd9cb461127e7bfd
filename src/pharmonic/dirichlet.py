"""Clamped p-Dirichlet problems on Cayley balls and their Newton solver.

A problem clamps all sphere vertices (and optionally interior vertices) to
given values and minimizes the truncated p-th power energy over the free
vertices. The minimizer is unique (the energy is strictly convex in the free
values, since every free component touches a clamp) and satisfies the
discrete maximum principle: solution values stay inside the clamped range.

Solver: damped Newton on the free values, from the p = 2 field (a linear
problem) to the target exponent, each step backtracked on the energy.

- Continuation in p runs above 2 only, through the exponents of
  P_STAGES_UP below the target (homotopy in p, as in Adil, Peng &
  Sachdeva, NeurIPS 2019); below 2 Newton runs at the target alone.
- A Newton step solves the p-Laplacian equations linearized at the current
  field: the Laplacian of the free vertices weighted by
  (d^2 + mu^2)^((p-2)/2) on each arc, mu one ulp of the longest arc,
  symmetric positive definite. For p < 2 an arc that the step would carry
  across 0 takes the IRLS weight instead (see _NewtonStep.correction).

Routes: every linear system of a problem, the p = 2 one included, goes to
one route, fixed when the problem is built; each route's class states its
rule, its method and what a failure gives.

- "forest" (_ForestSweep): free vertices that form a forest of at least
  2^levels vertices, eliminated leaves first.
- "cg" (_SparseRoute): growth degree 3 or more and at least CG_FREE free
  vertices, Jacobi-CG; "factor" for good from the first CG solve that fails.
  On a bipartite ball (every generator word of odd length: stock Z^3 and
  Z^4) CG runs on the Schur complement of one depth-parity class after the
  other is eliminated exactly (_RedBlack), in half the iterations.
- "band" (_BandCholesky): growth degree 2 or less and a bandwidth of at
  most BAND_MAX in reverse Cuthill-McKee order or, on Z^2, in a diagonal
  sweep of the lattice, banded Cholesky.
- "factor" (_SparseRoute): every other problem, SuperLU.

CG tolerance: CG_RTOL for every system at exponent 2 and for the stop
probe of a supplied start; any other Newton system takes its forcing term
(inexact Newton; Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
1982), the square of the previous correction's sup over the clamp span,
kept within [CG_RTOL, CG_FORCING].

Scaling: the minimizer is 1-homogeneous in the clamps, so Newton runs on
the clamps scaled by a power of 2 to a largest magnitude in (1/2, 1]
(clamps of 0 and 1 keep their scale), and the field is scaled back. The
scaling is exact: while no value leaves the normal floats, clamps c 2^k
with the tolerance times 2^k take the steps of c, and their field is that
of c times 2^k bit for bit.

Stopping: the sup of the scaled Newton correction, which measures the
distance to the minimizer (the p-Laplacian residual pins values only to
about residual^(1/(p-1)) at large p), is the one stop test. Its limit is
the tolerance, floored at STOP_FLOOR times the largest clamp magnitude
(float64 resolves no finer field), in scaled units. A stage before the
target ends at max(limit, STAGE_TOL), the target stage at the limit, its
last correction added as it stands. ``max_sweeps`` bounds the Newton steps
of all stages; a solve that runs out of them, or whose line search finds no
lower energy, reports converged=False. The field is clipped to the clamped
range at the end: the minimizer lies in that box, and clipping lengthens no
arc.

The measurements behind these rules and constants are in CHANGES.md.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .energy import ScalarField, check_exponent, phi_p
from .groups import CayleyBall

# continuation exponents between 2 and a target above 2, in the order visited
P_STAGES_UP = (3.0, 4.0, 5.0, 6.0, 7.0)
LINE_SEARCH_HALVINGS = 50
STAGE_TOL = 1e-3  # correction that ends a stage before the target one
# SuperLU's supernode relaxation and panel width after a problem's first factorization
NATURAL_RELAX = 8
NATURAL_PANEL = 4
CG_FREE = 2200  # the fewest free vertices that take the CG route
CG_RTOL = 1e-13  # CG tolerance at exponent 2, and the least forcing term
CG_FORCING = 1e-4  # the largest forcing term
CG_MAXITER = 1000  # the most iterations of any CG solve
CG_STALL = 8  # the cap of a later CG solve, per iteration of the problem's first
BAND_MAX = 120  # the widest band of the band route: Z^2 up to R = 120
ENERGY_ROUNDOFF = 1e-12  # relative energy change below float64 summation resolution
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64
STOP_FLOOR = 256 * _EPS  # the least stop limit, per unit of the largest clamp magnitude


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
    correction and the budget of Newton steps over all p stages. The stop
    limit is ``tolerance``, or STOP_FLOOR (256 eps) times the largest clamp
    magnitude where that is more, which float64 can resolve."""

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
    whole ball, sphere included. Clamps whose energy could pass the largest
    float (1e100 at p = 8) are refused with a ValueError.
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
        # the solution's arcs are at most span long, so its energy is at most
        # arcs * span^p; a margin of one bit leaves room for rounding
        lo, hi = self.clamped_range()
        span = hi - lo
        arcs = ball.arcs()[0].size
        if span > 0.0 and self.p * math.log2(span) + math.log2(arcs) >= 1023.0:
            raise ValueError(
                f"clamps spanning {span:.3g} at p={self.p}: the energy of {arcs} arcs may overflow float64"
            )

    @cached_property
    def _system(self) -> "_NewtonStep":
        """The Newton systems of the free vertices and their route, built on first use."""
        return _NewtonStep(self)

    def clamped_values(self) -> np.ndarray:
        """The clamped values, 0 at the free vertices."""
        return np.where(self.clamped_mask, self.clamped, 0.0)

    def clamped_range(self) -> Tuple[float, float]:
        vals = self.clamped[self.clamped_mask]
        return (float(vals.min()), float(vals.max()))


def linear_dirichlet(problem: DirichletProblem) -> np.ndarray:
    """Solve of the p = 2 problem (also the default start): the unit-weight
    Laplacian, clamped neighbor values summed in generator-slot order on the
    right-hand side, as the first system of the problem's route. Where
    p = 2 is the problem's own exponent, this field is the answer, and on
    the "cg" route it takes one residual-correction pass: CG solves again
    for the residual of the first solution, which brings the residual down
    to the rounding of the Laplacian, as the factor's is."""
    system = problem._system
    u = problem.clamped_values()  # zero at the free vertices
    nbr_vals = u[system.nbrs]
    rhs = np.zeros(system.n_free)
    for slot in range(nbr_vals.shape[1]):
        rhs += nbr_vals[:, slot]
    ones = np.ones(system.nbrs.shape)
    x = system.solve(ones, 0.0, rhs)
    if problem.p == 2.0 and system.route.name == "cg":
        x += system.solve(ones, 0.0, rhs - system.route.matrix @ x)
    u[problem.free] = x
    return u


class _NewtonStep:
    """Newton corrections on the free values, every system solved on one
    ``route``, chosen here before anything is solved: a _ForestSweep, a
    _BandCholesky or a _SparseRoute, the first whose rule (in its class)
    takes the problem. A route has a ``name`` and ``solve(w, shift, rhs,
    rtol)``."""

    def __init__(self, problem: DirichletProblem):
        ball = problem.ball
        self.free = problem.free
        self.n_free = n_free = self.free.size
        self.n_total = len(ball)
        self.nbrs = ball.adj[self.free]
        self.arcs = ball.arcs()
        self.adj = ball.adj
        # the interior slots whose arcs lead to the sphere: ``arcs`` lists
        # them reversed after the arcs of all interior slots
        self.to_sphere = np.flatnonzero(ball.adj.reshape(-1) >= ball.n_interior)
        # the position in ``free`` of each neighbour in ``nbrs``, -1 at clamps
        local = np.full(self.n_total, -1, dtype=np.int64)
        local[self.free] = np.arange(n_free)
        nbr_local = local[self.nbrs]
        self.route = _ForestSweep.of(ball.depth, self.free, self.nbrs, nbr_local)
        if self.route is None:
            # the diagonal, then one entry per flat slot of a free neighbour
            slots = np.flatnonzero(nbr_local >= 0)
            diag = np.arange(n_free, dtype=np.int64)
            rows = np.concatenate([diag, slots // nbr_local.shape[1]])
            index, pattern = _csc_pattern(rows, np.concatenate([diag, np.take(nbr_local, slots)]), n_free)
            degree = ball.model.growth_degree
            band = _BandCholesky.of(pattern, nbr_local, degree, ball.codes[self.free])
            parity = ball.depth[self.free] % 2 if ball.model._bipartite else None
            self.route = band or _SparseRoute(index, slots, pattern, degree, parity)

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray, rtol: float = CG_RTOL) -> np.ndarray:
        """Solve with the Laplacian of weights w and diagonal shift, in the
        order of ``free``, on the problem's route (its class says what a
        failure gives); ``rtol`` is the tolerance of a CG solve."""
        return self.route.solve(w, shift, rhs, rtol)

    def correction(self, u: np.ndarray, p: float, rtol: float = CG_RTOL) -> np.ndarray:
        """The Newton correction of the free values at exponent p, solved on
        the "cg" route to a residual of ``rtol`` of the right-hand side.

        For p < 2 the tangent model of |d|^p overshoots near d = 0: where
        the step would carry an arc across 0, that arc's weight is raised
        to the secant slope |d|^(p-2) of the majorizing quadratic (the
        reweighting of IRLS) and the system is solved again, to the same
        ``rtol``."""
        d = u[self.nbrs] - u[self.free, None]
        scale = float(np.max(np.abs(d), initial=0.0))
        if scale == 0.0:
            return np.zeros(self.n_free)
        mu = _EPS * scale  # arcs shorter than one ulp of the longest are flat
        # mu^2 floored at the smallest normal float: where it underflows (an
        # arc scale below about 1e-138, which clamps scaled to a largest
        # magnitude near 1 give only where they mix such scales with normal
        # ones), a flat arc's weight would be 0 to a negative power at p < 2
        w = (d * d + max(mu * mu, _TINY)) ** (0.5 * (p - 2.0))
        # 1e-14 of the longest arc's weight keeps the system regular where
        # flat arcs carry no weight (p > 2)
        shift = 1e-14 * scale ** (p - 2.0)
        rhs = np.sum(phi_p(d, p), axis=1) / (p - 1.0)
        step = self.solve(w, shift, rhs, rtol)
        if p < 2.0:
            full = np.zeros(self.n_total)
            full[self.free] = step
            crossing = d * (d + full[self.nbrs] - step[:, None]) < 0.0
            if crossing.any():
                w = np.where(crossing, w / (p - 1.0), w)
                step = self.solve(w, shift, rhs, rtol)
        return step

    def line_search(self, u: np.ndarray, step: np.ndarray, p: float) -> float:
        """The first alpha in 1, 1/2, 1/4, ... that lowers the energy along
        step, or 0.0 if none of LINE_SEARCH_HALVINGS does.

        Near the minimizer the energy change of a step drops below float64
        resolution. A trial whose energy is level with the start's within
        ENERGY_ROUNDOFF is then accepted when the directional derivative
        there is at most half the size of the start's (negative) one: on
        the quadratic model such a step lowers the energy.

        The sums run over the interior slots, then over those that lead to
        the sphere once more: the arcs in the order of ``arcs``, bit for bit,
        since |d|^p and phi_p(d) dd are the same on both directions of an
        arc."""
        n_interior = self.adj.shape[0]

        def arc_sum(terms: np.ndarray) -> float:
            return float(np.sum(np.concatenate([terms.reshape(-1), np.take(terms, self.to_sphere)])))

        full = np.zeros(self.n_total)
        full[self.free] = step
        d0 = u[self.adj] - u[:n_interior, None]
        dd = full[self.adj] - full[:n_interior, None]
        e0 = arc_sum(np.abs(d0) ** p)
        slope0 = None  # computed for the first trial that needs it
        alpha = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            d = d0 + alpha * dd
            e = arc_sum(np.abs(d) ** p)
            if e < e0:
                return alpha
            if e <= e0 * (1.0 + ENERGY_ROUNDOFF):
                if slope0 is None:
                    slope0 = arc_sum(phi_p(d0, p) * dd)
                if arc_sum(phi_p(d, p) * dd) <= -0.5 * slope0:
                    return alpha
            alpha *= 0.5
        return 0.0


class _ForestSweep:
    """The "forest" route: Gaussian elimination on a Laplacian whose free
    vertices form a forest.

    Rule: taken where each free vertex has at most one free neighbour one
    level closer to the identity (its parent) and none on its own level,
    and where that forest has at least 2^levels vertices, levels the count
    of their distinct depths (tested first): every tree of branching 2 or
    more (F_k, Z2^{*m}, their capacity annuli), no path.

    Method: elimination leaves first makes no fill (Parter, SIAM Review 3,
    1961). The sweep eliminates one level at a time, deepest first, each
    vertex's pivot and right-hand side added onto its parent's with
    ``np.add.reduceat``, then substitutes back from the roots down: a round
    of numpy calls per level, hence the 2^levels floor. A zero pivot or a
    solution that is not finite gives all NaN.

    The vertices are kept in ``perm``: by level, then roots before the
    vertices with a parent, these grouped by parent. Round k spans the
    positions [a, b) of one level's vertices with a parent; ``starts``
    opens each run of siblings, ``heads`` is the position of each run's
    parent and ``up`` that of each vertex's parent."""

    name = "forest"

    def __init__(self, parent: np.ndarray, level: np.ndarray, uplink: np.ndarray):
        self.perm = np.lexsort((parent, level))
        position = np.empty_like(self.perm)
        position[self.perm] = np.arange(self.perm.size)
        # the slots (flat, into the weights) that lead to a parent, and the
        # position of the vertex each leads from
        self.link_slots = np.flatnonzero(uplink)
        self.link_at = position[self.link_slots // uplink.shape[1]]
        parent, level = parent[self.perm], level[self.perm]
        kids = np.flatnonzero(parent >= 0)
        up = position[parent[kids]]
        new_run = np.ones(kids.size, dtype=bool)
        new_run[1:] = up[1:] != up[:-1]
        self.rounds = []
        spans = np.split(np.arange(kids.size), np.flatnonzero(np.diff(level[kids])) + 1) if kids.size else []
        for span in spans:
            starts = np.flatnonzero(new_run[span])
            self.rounds.append((int(kids[span[0]]), int(kids[span[-1]]) + 1, starts, up[span][starts], up[span]))

    @classmethod
    def of(
        cls, depth: np.ndarray, free: np.ndarray, nbrs: np.ndarray, nbr_local: np.ndarray
    ) -> Optional["_ForestSweep"]:
        """The sweep of the free vertices of a ball with vertex depths
        ``depth``, given their neighbours and the position of each in
        ``free`` (-1 at clamps); None where the rule refuses them."""
        level = depth[free]
        levels = int(np.count_nonzero(np.diff(level))) + 1  # ``free`` is in depth order
        if 2**levels > level.size:
            return None
        nbr_level = depth[nbrs]
        free_nbr = nbr_local >= 0
        if (free_nbr & (nbr_level == level[:, None])).any():
            return None
        uplink = free_nbr & (nbr_level < level[:, None])
        parent = np.full(level.size, -1, dtype=np.int64)
        # one column at a time: row reductions over a few slots are slow
        for up, nbr in zip(uplink.T, nbr_local.T):
            if (up & (parent >= 0) & (parent != nbr)).any():
                return None  # two free neighbours one level up
            parent = np.where(up, nbr, parent)
        return cls(parent, level, uplink)

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray, rtol: float) -> np.ndarray:
        """Solve with the Laplacian of arc weights w (symmetric across each
        edge) and diagonal shift, in the order of ``free``, exactly: ``rtol``
        is not read."""
        perm = self.perm
        # row sums one column at a time: a reduction over a few slots is slow
        diag = w[:, 0].copy()
        for col in w.T[1:]:
            diag += col
        diag += shift
        pivot = diag[perm]
        link = np.bincount(self.link_at, weights=np.take(w, self.link_slots), minlength=perm.size)
        y = rhs[perm]
        # a zero pivot ends in a non-finite solution, checked below
        with np.errstate(all="ignore"):
            for a, b, starts, heads, _ in reversed(self.rounds):
                g = link[a:b] / pivot[a:b]
                pivot[heads] -= np.add.reduceat(g * link[a:b], starts)
                y[heads] += np.add.reduceat(g * y[a:b], starts)
            x = y / pivot
            for a, b, _, _, up in self.rounds:
                x[a:b] = (y[a:b] + link[a:b] * x[up]) / pivot[a:b]
        if not np.isfinite(x).all():
            return np.full(x.size, np.nan)
        out = np.empty_like(x)
        out[perm] = x
        return out


def _csc_pattern(rows: np.ndarray, cols: np.ndarray, n: int) -> Tuple[np.ndarray, sp.csc_matrix]:
    """The n x n CSC pattern of the entries (rows, cols), and the slot of
    each entry in its ``.data``; entries that share a place share a slot."""
    keys, slot = np.unique(cols * n + rows, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return slot, sp.csc_matrix((np.zeros(keys.size), keys % n, indptr), shape=(n, n))


def _assemble(w: np.ndarray, shift: float, slots: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """The entries of the Laplacian of arc weights w (one row per free
    vertex, one column per generator slot) with diagonal shift, summed into
    ``size`` places at ``index``: first the diagonal, the row sums of w plus
    shift, then the off-diagonal entries, minus the weights at the flat
    ``slots``."""
    entries = np.concatenate([w.sum(axis=1) + shift, -np.take(w, slots)])
    return np.bincount(index, weights=entries, minlength=size)


class _BandCholesky:
    """The "band" route: banded Cholesky of a Laplacian in the order of the
    narrowest band.

    Rule: taken on a group of polynomial growth of degree 2 or less (Z,
    Z^2, and the paths F_1 and Z2*Z2, under any generating set; not the
    groups of exponential growth, where the band is slower than SuperLU)
    where the free vertices have a bandwidth of at most BAND_MAX in the
    narrowest of the candidate orders: reverse Cuthill-McKee, and on Z^2
    the two diagonal sweeps of the lattice coordinates, lexicographic in
    (x1 + x2, x1 - x2) and in (x1 - x2, x1 + x2). A sweep gives the ball of
    Z^2 of radius R a bandwidth of R, against 2R - 1 in reverse
    Cuthill-McKee order, so Z^2 takes the band up to R = 120; the paths
    have bandwidth 1.

    Method: the order is found once, with the problem (Cuthill & McKee,
    Proc. ACM Nat. Conf. 1969; George & Liu, *Computer Solution of Large
    Sparse Positive Definite Systems*, 1981), the reverse Cuthill-McKee one
    unless a sweep is strictly narrower: ``perm`` lists the free vertices
    in band order, ``position`` is the place of each, ``width`` the
    bandwidth, outside which a Cholesky factor fills nothing. Each
    system is summed into LAPACK's lower band storage, ``width`` + 1 rows
    of n columns in Fortran order, at ``index`` (the diagonal, then the
    weights at the flat ``slots``) and factored by ``dpbtrf`` and
    ``dpbtrs``, without pivoting. A system that is not positive definite
    gives all NaN, a band that cannot be allocated MemoryError."""

    name = "band"

    def __init__(self, perm: np.ndarray, position: np.ndarray, width: int, slots: np.ndarray, index: np.ndarray):
        self.perm, self.position, self.width = perm, position, width
        self.slots, self.index = slots, index

    @classmethod
    def of(
        cls, pattern: sp.csc_matrix, nbr_local: np.ndarray, degree: Optional[int], codes: np.ndarray
    ) -> Optional["_BandCholesky"]:
        """The band factor of the symmetric ``pattern`` of the free vertices,
        given the position of each neighbour in ``free`` (-1 at clamps), the
        growth degree of the group (None for exponential growth) and the
        code rows of the free vertices; None where the rule refuses them."""
        if degree is None or degree > 2:
            return None
        orders = [reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.int64)]
        if degree == 2:
            # Z^2, whose code rows are its lattice coordinates: the sweeps
            # along the two diagonals
            x1, x2 = codes.T
            orders += [np.lexsort((x1 - x2, x1 + x2)), np.lexsort((x1 + x2, x1 - x2))]
        linked = nbr_local >= 0
        best = None
        for perm in orders:
            position = np.empty_like(perm)
            position[perm] = np.arange(perm.size)
            at = position[:, None]
            nbr_at = np.where(linked, position[nbr_local], at)
            width = int(np.max(at - nbr_at, initial=0))  # the pattern is symmetric
            if best is None or width < best[2]:  # a tie keeps the earlier order
                best = perm, position, width, nbr_at
        perm, position, width, nbr_at = best
        if width > BAND_MAX:
            return None
        at = position[:, None]
        lower = linked & (nbr_at < at)
        # entry (i, j), i >= j, of the band order sits at j (width + 1) + i - j
        index = np.concatenate([position * (width + 1), (nbr_at * width + at)[lower]])
        return cls(perm, position, width, np.flatnonzero(lower), index)

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray, rtol: float) -> np.ndarray:
        """Solve with the Laplacian of arc weights w (symmetric across each
        edge) and diagonal shift, in the order of ``free``, exactly: ``rtol``
        is not read."""
        n = rhs.size
        try:
            band = _assemble(w, shift, self.slots, self.index, n * (self.width + 1))
            factor, info = lapack.dpbtrf(band.reshape(n, -1).T, lower=1, overwrite_ab=1)
            if info > 0:
                return np.full(n, np.nan)
            x, _ = lapack.dpbtrs(factor, rhs[self.perm], lower=1, overwrite_b=1)
        except MemoryError as exc:
            raise _out_of_memory(n) from exc
        return x[self.position]


class _SparseRoute:
    """The "cg" and "factor" routes: Jacobi-CG, or SuperLU, on the CSC
    pattern of the free vertices.

    Rule: the route of every problem that neither the forest sweep nor the
    band takes. It is "cg" on a group of polynomial growth of degree 3 or
    more (Z^3 and Z^4, under any generating set) with at least CG_FREE free
    vertices, whose minimum degree factor holds a growing power of n
    nonzeros per free vertex (n^(1/3) on Z^3 under nested dissection;
    Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16, 1979), while Jacobi-CG
    takes iterations in proportion to the radius; "factor" otherwise.

    "cg": each system goes to _jacobi_cg, from 0, to a residual of ``rtol``
    of the right-hand side, within CG_MAXITER iterations until the first
    solve that takes any sets ``cap`` to CG_STALL times them (at most
    CG_MAXITER). On a bipartite ball (``parity`` given: the depth parity of
    the free vertices) _jacobi_cg gets the Schur complement of the black
    class and its right-hand side from ``split``, a _RedBlack, and the red
    values follow exactly. The residual of that system is the whole one's,
    the red rows' being rounding, and ``rtol`` measures it against the
    whole right-hand side (the split's ``reference``). So the tolerances,
    the cap and the hand-over keep their meaning, and every count is about
    half that of the whole system (38 against 77 on the p = 2 start of Z^3
    R=14). Elsewhere (a generator word of even length, as in Z^3 + [x1
    x2]) it gets the whole Laplacian, as a _Whole.
    A CG solve fails if it meets a non-finite value or a diagonal entry
    below the smallest normal float, or passes its cap (Jacobi stalls on
    marked clamps at p <= 1.2): the route turns "factor" for good, drops
    its split, and that system is factored.

    "factor": SuperLU, without pivoting. The first factorization orders by
    minimum degree on A^T + A (Liu, ACM TOMS 11, 1985), under SuperLU's
    defaults; ``matrix`` (the pattern, in the order of ``free`` until then)
    and ``index`` are then renumbered into that order, ``order``, once, and
    every later factorization takes it as it stands, with panels of
    NATURAL_PANEL columns and a relaxation of NATURAL_RELAX (Demmel et al.,
    SIAM J. Matrix Anal. Appl. 20, 1999). A zero pivot (weights that
    underflow to 0) gives all NaN, SuperLU out of memory MemoryError."""

    def __init__(
        self, index: np.ndarray, slots: np.ndarray, pattern: sp.csc_matrix, degree: Optional[int],
        parity: Optional[np.ndarray],
    ):
        cg = degree is not None and degree >= 3 and pattern.shape[0] >= CG_FREE
        self.name = "cg" if cg else "factor"
        self.index, self.slots, self.matrix = index, slots, pattern
        # the red-black reduction of a bipartite ball's CG systems
        self.split = _RedBlack(pattern, parity) if cg and parity is not None else None
        self.cap: Optional[int] = None  # set by the first CG solve that takes iterations
        self.order: Optional[np.ndarray] = None  # once the first factorization has run

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray, rtol: float) -> np.ndarray:
        """Solve with the Laplacian of arc weights w and diagonal shift, in
        the order of ``free``: by CG to a residual of ``rtol`` of the
        right-hand side on the "cg" route, exactly on the "factor" one."""
        n = rhs.size
        matrix = self.matrix
        matrix.data = _assemble(w, shift, self.slots, self.index, matrix.nnz)
        if self.name == "cg":
            if self.split is None:
                system, b = _Whole(matrix), rhs
            else:
                system, b = self.split, self.split.reduce(matrix.data, rhs)
            solved = _jacobi_cg(system, b, self.cap or CG_MAXITER, rtol)
            if solved is not None:
                x, iterations = solved
                if self.cap is None and iterations:
                    self.cap = min(CG_MAXITER, CG_STALL * iterations)
                return x if self.split is None else self.split.lift(x)
            self.name, self.split = "factor", None
        first = self.order is None
        if first:
            ordering = {"permc_spec": "MMD_AT_PLUS_A"}
        else:
            ordering = {"permc_spec": "NATURAL", "relax": NATURAL_RELAX, "panel_size": NATURAL_PANEL}
            b = np.empty(n)
            b[self.order] = rhs
        try:
            lu = spla.splu(matrix, diag_pivot_thresh=0.0, options={"SymmetricMode": True}, **ordering)
        except RuntimeError:
            return np.full(n, np.nan)
        except (MemoryError, SystemError) as exc:
            raise _out_of_memory(n) from exc
        if not first:
            return lu.solve(b)[self.order]
        # renumber the pattern once: free vertex k moves to position order[k]
        self.order = order = lu.perm_c.astype(np.int64)
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
        slot, self.matrix = _csc_pattern(order[matrix.indices], order[cols], n)
        self.index = slot[self.index]
        return lu.solve(rhs)


class _RedBlack:
    """The red-black reduction of the "cg" route on a bipartite ball, one
    whose generator words all have odd length (``GroupModel._bipartite``):
    stock Z^3 and Z^4.

    Method: depth parity splits the free vertices into two classes with no
    edge inside either, so the Laplacian is [[D_r, -W], [-W^T, D_b]] with
    D_r and D_b diagonal. The larger class, red, is eliminated exactly, and
    CG runs on the Schur complement of the other, black, S = D_b - W^T
    D_r^-1 W: applied as two half-size products and never formed, with
    ``diagonal`` D_b - (W o W)^T D_r^-1 as its Jacobi preconditioner.
    ``lift`` then sets x_r = D_r^-1 (b_r + W x_b), so the whole residual is
    S's on black and rounding on red. On such 2-cyclic systems CG takes
    half the iterations of the whole one (Reid, SIAM J. Numer. Anal. 9,
    1972).

    The split is made once, from the pattern: the classes ``red`` and
    ``black``, the CSR patterns of the off-diagonal entries of the red rows
    (``red_rows``, red x black, which hold D_r^-1 W) and of the black rows
    (``black_rows``, black x red, which hold -W^T), and the places in the
    Laplacian's ``data`` of those entries and of the diagonal; ``reduce``
    only gathers values, and keeps the whole right-hand side as the
    ``reference`` of _jacobi_cg's tolerance. Every product calls scipy's
    CSR kernel directly (_csr_add): on Z^3 R=14 ``@`` adds 2.4 us of
    dispatch to each 8.8 us product, a fifth of a reduced iteration."""

    def __init__(self, pattern: sp.csc_matrix, parity: np.ndarray):
        n = parity.size
        is_red = parity == np.argmax(np.bincount(parity))
        self.red, self.black = np.flatnonzero(is_red), np.flatnonzero(~is_red)
        local = np.empty(n, dtype=np.int64)
        local[self.red] = np.arange(self.red.size)
        local[self.black] = np.arange(self.black.size)
        # the symmetric pattern read as CSR: the row and column of each place
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
        cols = pattern.indices
        diagonal = rows == cols
        places = np.flatnonzero(diagonal)  # one per row, in row order
        self.red_diag, self.black_diag = places[self.red], places[self.black]

        def block(of_class: np.ndarray, size: int, width: int) -> Tuple[sp.csr_matrix, np.ndarray]:
            taken = np.flatnonzero(of_class[rows] & ~diagonal)
            indptr = np.concatenate([[0], np.cumsum(np.bincount(local[rows[taken]], minlength=size))])
            return sp.csr_matrix((np.zeros(taken.size), local[cols[taken]], indptr), shape=(size, width)), taken

        self.red_rows, self.red_places = block(is_red, self.red.size, self.black.size)
        self.black_rows, self.black_places = block(~is_red, self.black.size, self.red.size)
        self.t = np.empty(self.red.size)  # the red values of a product
        self.reference: Optional[np.ndarray] = None  # the whole right-hand side

    def reduce(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Load the Laplacian entries ``data`` (in the pattern's places) and
        return the right-hand side of S, b_b + W^T D_r^-1 b_r."""
        red_rows, black_rows = self.red_rows, self.black_rows
        # a zero red pivot ends in a diagonal or right-hand side that is not
        # finite, which _jacobi_cg refuses
        with np.errstate(all="ignore"):
            inv_red = 1.0 / data[self.red_diag]
            red_rows.data = data[self.red_places] * np.repeat(-inv_red, np.diff(red_rows.indptr))
            black_rows.data = data[self.black_places]
            self.x_red = inv_red * rhs[self.red]  # D_r^-1 b_r
            self.reference = rhs
            self.d_black = data[self.black_diag]
            self.s_diag = _csr_add(black_rows, inv_red, self.d_black.copy(), -np.square(black_rows.data))
            return _csr_add(black_rows, -self.x_red, rhs[self.black])

    def diagonal(self) -> np.ndarray:
        return self.s_diag

    def __matmul__(self, d: np.ndarray) -> np.ndarray:
        """S d, in a new array: D_b d - W^T (D_r^-1 W d)."""
        self.t.fill(0.0)
        return _csr_add(self.black_rows, _csr_add(self.red_rows, d, self.t), self.d_black * d)

    def lift(self, x_black: np.ndarray) -> np.ndarray:
        """The full solution of the black values ``x_black``."""
        x = np.empty(self.red.size + self.black.size)
        x[self.black] = x_black
        x[self.red] = _csr_add(self.red_rows, x_black, self.x_red.copy())
        return x


class _Whole:
    """The operator of the "cg" route on the whole system: the symmetric
    CSC ``matrix`` read as CSR, which it is, multiplied by scipy's CSR
    kernel (_csr_add). Its ``reference`` is None: ``rtol`` is measured
    against the right-hand side itself."""

    reference = None

    def __init__(self, matrix: sp.csc_matrix):
        self.matrix = matrix

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def __matmul__(self, d: np.ndarray) -> np.ndarray:
        return _csr_add(self.matrix, d, np.zeros(d.size))


def _csr_add(a: sp.csr_matrix, x: np.ndarray, y: np.ndarray, data: Optional[np.ndarray] = None) -> np.ndarray:
    """y += a @ x, with ``data`` in place of ``a.data`` where given, by
    scipy's CSR kernel, without the dispatch of ``@``; returns y."""
    _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data if data is None else data, x, y)
    return y


def _out_of_memory(n_free: int) -> MemoryError:
    """The one-line error of a factorization that runs out of memory."""
    return MemoryError(f"out of memory factoring the Newton system of {n_free} free vertices")


def _jacobi_cg(
    a: Union[_Whole, _RedBlack], b: np.ndarray, maxiter: int, rtol: float
) -> Optional[Tuple[np.ndarray, int]]:
    """Solve the symmetric system of the operator ``a`` (a _Whole or a
    _RedBlack: ``a.diagonal()``, ``a @ d`` and ``a.reference``) by
    conjugate gradients preconditioned with its diagonal, from 0, until the
    residual is at most ``rtol`` of |b|, or of |a.reference| where that is
    given (2-norms; see "CG tolerance:" above). The solution and the
    iterations taken. None if that takes more than ``maxiter`` iterations,
    if a diagonal entry is below the smallest normal float, or if a
    curvature d^T A d or a residual is not finite and positive."""
    diag = a.diagonal()
    top = np.max(np.abs(b), initial=0.0)
    if not (np.all(diag >= _TINY) and top < np.inf):
        return None
    x = np.zeros_like(b)
    if top == 0.0:
        return x, 0
    # b scaled by a power of 2 to a largest entry in [1/2, 1), so that no
    # residual norm underflows; the scaling is exact and undone at the end
    exponent = int(np.frexp(top)[1])
    r = np.ldexp(b, -exponent)
    inv_diag = 1.0 / diag
    # a reduced system's residual is the whole one's: measure it against
    # the whole right-hand side, scaled alike
    reference = r if a.reference is None else np.ldexp(a.reference, -exponent)
    stop = rtol * rtol * (reference @ reference)
    # overflow and division by 0 end in a non-finite curvature or residual,
    # which the loop checks
    with np.errstate(all="ignore"):
        z = inv_diag * r
        d = z.copy()
        scaled = np.empty_like(b)  # alpha d, then alpha q: no temporaries
        rz = r @ z
        for iteration in range(1, maxiter + 1):
            q = a @ d
            curvature = d @ q
            if not 0.0 < curvature < np.inf:
                return None
            alpha = rz / curvature
            x += np.multiply(alpha, d, out=scaled)
            r -= np.multiply(alpha, q, out=scaled)
            rr = r @ r
            if rr <= stop:
                return np.ldexp(x, exponent), iteration
            if not rr < np.inf:
                return None
            np.multiply(inv_diag, r, out=z)
            rz_next = r @ z
            d *= rz_next / rz
            d += z
            rz = rz_next
    return None


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

    Each Newton step solves one linear system (two where the IRLS weights
    of p < 2 apply), on the problem's route (see the route classes), a CG
    system to its forcing term. Newton runs on the clamps scaled by a power
    of 2, and the field is scaled back (see "Scaling:" in the module
    docstring). A start that is not finite at a free vertex is refused with
    a ValueError naming the first such vertex.

    The solve converges when the sup of the scaled Newton correction at the
    target exponent is at most ``config.tolerance``, or STOP_FLOOR times
    the largest clamp magnitude if that is more (see "Stopping:" in the
    module docstring); ``iterations`` counts the damped Newton steps of all
    stages, at most ``config.max_sweeps``. The returned field is clipped to
    the clamped range. The reported residual is the sup of the p-Laplacian
    over the free vertices of that field: for p < 2 it can stay far above
    the tolerance at arcs whose two values nearly coincide, where one ulp of
    either value moves it by about (p-1)|d|^(p-2) ulp. Non-convergence is
    reported, not raised.
    """
    config = config or SolverConfig()
    p = problem.p
    ball = problem.ball
    start = time.perf_counter()

    free = problem.free
    newton = problem._system
    lo, hi = problem.clamped_range()
    size = max(-lo, hi)
    # the minimizer is homogeneous in the clamps: Newton runs on them scaled by
    # a power of 2 (exactly) to a largest magnitude in (1/2, 1], and back
    mantissa, power = math.frexp(size)  # size = mantissa 2^power, mantissa in [1/2, 1)
    exponent = (mantissa == 0.5) - power
    # the stop limit and the clamp span in the units of the scaled steps; a
    # limit past the largest float (subnormal clamps) lets any correction pass
    with np.errstate(over="ignore"):
        limit = float(np.ldexp(max(config.tolerance, STOP_FLOOR * size), exponent))
    span = float(np.ldexp(hi, exponent) - np.ldexp(lo, exponent))

    def forcing(q: float, step: Optional[np.ndarray]) -> float:
        """The CG tolerance of a Newton system at exponent q after ``step``,
        the latest correction of any stage: the square of its sup over the
        clamp span, kept within [CG_RTOL, CG_FORCING]; CG_FORCING before the
        first correction and after one that is not finite. At q = 2 the
        system is linear and its solve is the answer: CG_RTOL."""
        if q == 2.0:
            return CG_RTOL
        ratio = float(np.max(np.abs(step))) / span if step is not None and span > 0.0 else np.inf
        return max(CG_RTOL, min(CG_FORCING, ratio * ratio))  # min(CG_FORCING, nan) is CG_FORCING

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
        unfit = ~np.isfinite(u[free])
        if unfit.any():
            raise ValueError(f"initial value at vertex {int(free[np.argmax(unfit)])} is not finite")
    u = np.ldexp(u, exponent)
    if initial is not None:
        # a start that already passes the stop test, solved to CG_RTOL, is
        # returned as it is; not at p < 2, where exactly flat arcs make the
        # system stiff enough for a small correction far from the minimizer
        if p > 2.0 and np.max(np.abs(newton.correction(u, p, CG_RTOL))) <= limit:
            stages = []
        else:
            stages = [2.0] + stages

    steps = 0
    converged = True
    step = None
    for q in stages:
        stage_limit = limit if q == p else max(limit, STAGE_TOL)
        step = newton.correction(u, q, forcing(q, step))
        while not np.max(np.abs(step)) <= stage_limit:  # a NaN correction goes to the line search and fails there
            alpha = newton.line_search(u, step, q) if steps < config.max_sweeps else 0.0
            if alpha == 0.0:
                converged = False
                break
            u[free] += alpha * step
            steps += 1
            step = newton.correction(u, q, forcing(q, step))
        if not converged:
            break
    if converged and stages:
        u[free] += step  # the last correction, already within tolerance, taken as it stands

    u = np.ldexp(u, -exponent)
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
