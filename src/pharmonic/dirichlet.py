"""Clamped p-Dirichlet problems on Cayley balls and their Newton solver.

A problem clamps all sphere vertices (and optionally interior vertices) to
given values and minimizes the truncated p-th power energy over the free
vertices. The minimizer is unique (the energy is strictly convex in the free
values, since every free component touches a clamp) and satisfies the
discrete maximum principle: solution values stay inside the clamped range.

Solver: damped Newton on the free values, from the p = 2 field (a linear
problem) to the target exponent. Continuation in p runs
above 2 only (homotopy in p, as in Adil, Peng & Sachdeva, NeurIPS 2019):
Newton runs at each exponent of P_STAGES_UP below the target, each stage
starting from the field of the one before, which on Z^2 R=24 at p = 8
takes 336 Newton steps against 705 straight up. Below 2 such stages cost
steps and save none, and Newton runs at the target alone. A Newton step
solves the p-Laplacian equations linearized at the current field: the
Hessian is the graph Laplacian of the free vertices weighted by
(d^2 + mu^2)^((p-2)/2) on each arc, mu one ulp of the longest arc; it is
symmetric positive definite, and is eliminated leaves first, factored
without pivoting (by banded Cholesky or by sparse LU) or solved by
conjugate gradients (see "Factorization:" below). For p < 2 an arc that
the step would carry across 0 takes the IRLS weight instead (see
_NewtonStep.correction). The step is damped by backtracking on the
energy.

Factorization: every linear system of a problem, the p = 2 one included,
has the same sparsity pattern and goes through _NewtonStep.solve, on a
route fixed when the problem is built. Where each free vertex has at most
one free neighbour one level closer to the identity and none on its own
level, the free vertices form a forest (the trees F_k and Z2^{*m}, and
their capacity annuli), whose Laplacian eliminated leaves first makes no
fill (Parter, SIAM Review 3, 1961). Every system of such a problem, the
p = 2 start and the IRLS re-solve included, goes to one vectorised
elimination sweep (_ForestSweep): no pattern, no ordering, no SuperLU.
The sweep costs a round of numpy calls per level, so it is taken only
where the free vertices number at least 2^levels, levels the count of
their distinct depths: every tree of branching 2 or more, and no path.
That test comes first and costs two numpy calls, so the paths, and with
the sphere clamped Z^2 from R = 6, Z^3 from R = 11 and the lamplighter
from R = 9 on, skip the forest test itself. On a 2-core x86 machine one
system took 0.13 to 0.22 of the factor's time on F_2 R=8 and R=10, F_3
R=6, Z2^{*4} R=8 and Z2*Z2*Z2 R=12, 0.54 to 0.95 on Z2*Z2*Z2 R=4 to 9,
and 15 to 18 times as long on the paths F_1 R=300, Z R=2000 and Z2*Z2
R=300 (CHANGES.md has the sweep); the paths take the band (below).

A problem on a group of polynomial growth of degree 3 or more (Z^3 and
Z^4, under any generating set: ``GroupModel.growth_degree``, a
rough-isometry invariant) with at least CG_FREE free vertices takes the
CG route. A minimum degree factor of such a lattice holds a growing power
of n nonzeros per free vertex (nested dissection gives n^(1/3) on Z^3,
against log n on Z^2; Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16,
1979), while Jacobi-preconditioned CG takes iterations in proportion to
the radius (77, 109 and 163 on the p = 2 system of Z^3 R=14, 20, 30).
Every system of the problem, the p = 2 start and the IRLS re-solve of p <
2 included, goes to conjugate gradients preconditioned with the diagonal
(Jacobi), on the pattern in the order of ``free``, from 0: no ordering and
no factor. CG stops once the residual is at most a relative tolerance of
the right-hand side (2-norms), set per system (see below). Under
CG_FREE, Z^3 R=12 (2047 free vertices, a factor of 65 nonzeros per free
vertex) factors; Z^3 from R = 13 (2625) and Z^4 R=8 (2241, 124) take CG.
With every system forced onto CG (and the forcing terms below), marked
solves on a 2-core x86 machine took 0.18 to 0.94 of the factor's time at
p = 1.5, 3 and 8 on Z^3 R=8 to 13 and Z^4 R=5 to 8, but up to 3.55 times
as long at p = 1.1 and 1.2, where Jacobi stalls: 1.33 on Z^3 R=12 at
p = 1.2, 1.99 on Z^4 R=6 at p = 1.1. The growth degree comes from the
model, not from the ball: the level sizes of a ball this small read a
degree of 4.7 on the lamplighter R=12 and 5.5 on Z2*Z2*Z2 + [s1 s2] R=8,
both of exponential growth and both above CG_FREE.

The tolerance of a CG solve is CG_RTOL (1e-13) for the p = 2 system, whose
iterations set the cap of the later ones and which at p = 2 is the answer;
a cold solve at p = 2 then takes one residual-correction pass as well (see
``linear_dirichlet``). The stop probe of a supplied start, and the Newton
stage at p = 2 that a supplied start runs, are solved to CG_RTOL too. Any
other Newton system is solved only to its forcing term, as in inexact
Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982): the
square of the previous correction's sup over the clamp span, kept between
CG_RTOL and CG_FORCING (1e-4), which the first Newton system takes. Where
Newton converges quadratically that square is about the size of the
correction being solved for, and a forcing term of the size of the Newton
residual keeps quadratic convergence. The previous correction may end the
stage before: restarting each stage at CG_FORCING added Newton steps at
p = 8 (Z^3 R=20 with random clamps: 118 to 125). On Z^3 R=14 with marked
clamps the CG iterations of a solve fell from 1496 to 913 at p = 1.5, 653
to 354 at p = 3 and 2286 to 864 at p = 8, on Z^3 R=14 and R=20 and Z^4 R=8
at p = 1.1 to 8 no solve took a Newton step more, and energies stayed
within 4e-13 of the ones with every system solved to CG_RTOL. The sup
itself, unsquared, saved more iterations but cost up to 5 more Newton
steps at p = 8, where Newton converges linearly (121 to 126 on Z^3 R=20
with random clamps). The forest sweep and the factor solve exactly, and
take no tolerance.

A CG solve is thrown away, that system is factored, and so is every later
system of the problem, if it meets a non-finite value or a diagonal entry
below the smallest normal float, or takes more than CG_MAXITER iterations,
or more than CG_STALL times the iterations of the problem's first CG solve
(the p = 2 system). Jacobi stalls on the weights of marked clamps at
p <= 1.2: on Z^3 R=14 and Z^4 R=8 the p = 2 system takes 77 and 41
iterations, and the systems at p = 1.5, 3 and 8 at most 1.94 and 1.71
times as many (2.07 on Z^3 R=30 at p = 1.5, 4.1 on Z^3 R=14 with random
clamps at p = 1.5), while at p = 1.1 the count passes 8 times the first at
the 6th and 12th CG solve (the 8th and 16th under forcing terms, which
leave the first Newton systems cheap). There the cap took 0.90 to 0.97 and
0.80 to 0.91 of the time the fallback at CG_MAXITER alone took.

A problem on a group of polynomial growth of degree 2 or less (Z, Z^2, F_1
and Z2*Z2, under any generating set) takes the band route where the
reverse Cuthill-McKee order of its free vertices (Cuthill & McKee, Proc.
ACM Nat. Conf. 1969; George & Liu, *Computer Solution of Large Sparse
Positive Definite Systems*, 1981) has a bandwidth of at most BAND_MAX:
that bandwidth is 2R - 1 on the ball of Z^2 of radius R and 1 on the
paths, and a Cholesky factor fills nothing outside the band. The order,
and the place of every entry in LAPACK's lower band storage, are found
once, when the problem is built; every system of the problem, the p = 2
start and the IRLS re-solve included, is written into the band and
factored by banded Cholesky (``dpbtrf``, ``dpbtrs``, no pivoting): no
minimum degree order and no SuperLU. SuperLU is bound by overhead on these
systems: on Z^2 R=30 a factorization took 1.7 ms, the band 0.85 ms for its
n b^2 = 6 Mflop. One factorization and solve took, on a 2-core x86 machine
with one BLAS thread (minimum of 21), against a later SuperLU
factorization of the same system:

    ball                       bandwidth       band / SuperLU
    Z^2 R=20, 30, 40           39, 59, 79      0.35, 0.49, 0.61
    Z^2 R=50, 60               99, 119         0.76, 0.66
    Z^2 R=70, 80, 100          139, 159, 199   1.01, 0.95, 1.16
    Z^2 + [x1 x2] R=30, 40     59, 79          0.47, 0.59
    Z R=2000, 20000            1               0.32, 0.29
    F_1 and Z2*Z2 R=300        1               0.30

BAND_MAX = 120 keeps Z^2 on the band up to R = 60. The growth degree keeps
the groups of exponential growth off it: the lamplighter R=9 has a
bandwidth of 99 on 490 free vertices, and there the band took 2.0 times
SuperLU's time. The test costs little beside a factorization: on Z^2
R=300 (179 401 free vertices, bandwidth 599), which factors, the order
and its bandwidth took 15 ms, a later factorization 650 ms.

Every other problem is factored by SuperLU, and so is a CG-route problem
once CG has failed. The first factorization, by symmetric SuperLU with its
default panels and supernode relaxation, computes a minimum degree order
of the pattern; the pattern is renumbered into that order once, and every
later factorization of the problem factors it in that natural order, with
panels of NATURAL_PANEL columns and a relaxation of NATURAL_RELAX (Demmel
et al., SIAM J. Matrix Anal. Appl. 20, 1999). On a 2-core x86 machine a
factorization took 0.68 of the time under SuperLU's defaults on Z^2 R=30
(25 nonzeros per free vertex) and 0.77 on Z^3 R=14 (103). The densest
factor met, Z^3 R=20 with marked clamps at p = 1.1 once CG stalls (185),
solved in 11.5 to 13.0 s under them against 12.4 to 13.1 s under the
defaults, in the same 32 steps. Z^2 past the band factors, from R = 61 up
to the vertex budget (64 nonzeros per free vertex at R = 300), and there
the factor is faster than CG: with marked clamps CG took 1.25 to 3.6 times
as long on Z^2 R=30 to 300 at p = 1.5 and 3, against 0.45 to 0.53 on Z^3
R=14 (CHANGES.md has the sweep).

Scaling: the minimizer is 1-homogeneous in the clamps, so Newton runs on
the clamps scaled by a power of 2 to a largest magnitude in (1/2, 1], and
the field is scaled back at the end. The scaling is exact: while no value
leaves the normal floats, clamps c 2^k with the tolerance times 2^k take
the steps of c, and their field is that of c times 2^k bit for bit.
Clamps of 0 and 1 keep their scale.

Stopping: the sup of the scaled Newton correction is the one stop test.
Its limit is the tolerance, floored at STOP_FLOOR times the largest clamp
magnitude (float64 cannot resolve a finer field, and at p = 1.1 converged
corrections stayed at up to 58 eps of it), in scaled units. A stage before
the target ends once the correction is at most max(limit, STAGE_TOL), so
at 1 to 2 times STAGE_TOL of the largest clamp magnitude; the target stage
ends once it is at most the limit, and that last correction is added as
it stands. Unlike the p-Laplacian residual, which at large p pins values
only to about residual^(1/(p-1)), the correction measures the distance to
the minimizer itself. ``max_sweeps`` bounds the Newton steps of all
stages together; a solve that runs out of them, or whose line search
finds no lower energy, reports converged=False. Iterates may leave the
clamped range between steps; the returned field is clipped to it once, at
the end. The minimizer lies in that box, and clipping never raises the
energy, since it lengthens no arc.
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
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .energy import ScalarField, check_exponent, phi_p
from .groups import CayleyBall

# continuation exponents between 2 and a target above 2, in the order visited
P_STAGES_UP = (3.0, 4.0, 5.0, 6.0, 7.0)
LINE_SEARCH_HALVINGS = 50
STAGE_TOL = 1e-3  # correction that ends a stage before the target one
# SuperLU's supernode relaxation and panel width for every factorization
# after a problem's first, in the minimum degree order that the first found
# (see "Factorization:" above)
NATURAL_RELAX = 8
NATURAL_PANEL = 4
# A problem on a group of polynomial growth of degree 3 or more with at least
# CG_FREE free vertices solves every system by Jacobi-preconditioned CG within
# CG_MAXITER iterations, or else goes to the factor for good: the p = 2
# system to a residual of CG_RTOL of the right-hand side, a Newton system to
# its forcing term, between CG_RTOL and CG_FORCING (see "Factorization:"
# above)
CG_FREE = 2200
CG_RTOL = 1e-13
CG_FORCING = 1e-4
CG_MAXITER = 1000
# A CG solve after a problem's first one is thrown away past CG_STALL times
# the iterations of the first, the p = 2 system (see "Factorization:" above)
CG_STALL = 8
# A problem on a group of polynomial growth of degree 2 or less whose free
# vertices have a reverse Cuthill-McKee bandwidth of at most BAND_MAX factors
# every system by banded Cholesky (see "Factorization:" above)
BAND_MAX = 120
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
        """The sparse Laplacian system of the free vertices, built on first use."""
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
    right-hand side. It is the first system of the problem's
    ``_NewtonStep``, on that problem's route: the elimination sweep of a
    forest, Jacobi-preconditioned CG (whose iterations here set the cap of
    the later CG solves), the banded Cholesky factor in the reverse
    Cuthill-McKee order found with the problem, or the first SuperLU
    factorization, which finds the fill-reducing order that the Newton
    steps reuse. Where p = 2 is the
    problem's own exponent, this field is the answer, and on the CG route
    it takes one residual-correction pass: CG solves again for the residual
    of the first solution, which brings the residual down to the rounding
    of the Laplacian, as the factor's is."""
    system = problem._system
    u = problem.clamped_values()  # zero at the free vertices
    nbr_vals = u[system.nbrs]
    rhs = np.zeros(system.n_free)
    for slot in range(nbr_vals.shape[1]):
        rhs += nbr_vals[:, slot]
    ones = np.ones(system.nbrs.shape)
    x = system.solve(ones, 0.0, rhs)
    if problem.p == 2.0 and system.cg:
        x += system.solve(ones, 0.0, rhs - system.matrix @ x)
    u[problem.free] = x
    return u


class _NewtonStep:
    """Newton corrections on the free values over a fixed sparsity pattern.

    The linearized system is the mu-regularized weighted Laplacian of the
    free vertices. The route of every system is fixed here, before anything
    is solved, by four tests in turn. Where the free vertices form a forest
    of at least 2^levels vertices, ``forest`` is its elimination sweep,
    which takes every system of the problem; no CSC pattern is built for it
    (``matrix`` stays None), ``cg`` is False, and ``band`` and ``order``
    stay None. Otherwise ``forest`` is None, and the CSC pattern is built
    once, in the order of ``free``; each solve refills ``.data``, summing
    entries that share a (row, column) slot. The same assembly with unit
    weights is the p = 2 system of ``linear_dirichlet``.

    ``cg`` is True on a group of growth degree 3 or more with at least
    CG_FREE free vertices: every system goes to Jacobi-preconditioned CG on
    the pattern as built, the p = 2 start included, with nothing factored.
    The first CG solve that takes iterations sets ``cg_maxiter``, the cap of
    the later ones. ``cg`` drops to False for good at the first CG solve
    that fails, and that system goes to the factor.

    On a group of growth degree 2 or less, the pattern is ordered by
    reverse Cuthill-McKee; where the bandwidth of that order is at most
    BAND_MAX, ``band`` is the banded Cholesky factor in it, which takes
    every system of the problem, and the CSC pattern is dropped (``matrix``
    is None). Otherwise ``band`` is None.

    Every other problem goes to SuperLU. The first factorization orders the
    pattern by minimum degree on A^T + A (Liu, ACM TOMS 11, 1985), with
    SuperLU's default panels. The pattern and the slot map are then
    renumbered into that order once, and every later factorization takes
    the pre-ordered matrix as it stands, with panels of NATURAL_PANEL
    columns and a supernode relaxation of NATURAL_RELAX, so the ordering
    runs once per problem. Right-hand sides and solutions keep the order of
    ``free``."""

    def __init__(self, problem: DirichletProblem):
        ball = problem.ball
        self.free = problem.free
        self.n_free = n_free = self.free.size
        self.n_total = len(ball)
        self.nbrs = ball.adj[self.free]
        # the position in ``free`` of each neighbour in ``nbrs``, -1 at clamps
        local = np.full(self.n_total, -1, dtype=np.int64)
        local[self.free] = np.arange(n_free)
        nbr_local = local[self.nbrs]
        self.off_mask = nbr_local >= 0
        self.forest = _ForestSweep.of(ball.depth, self.free, self.nbrs, nbr_local)
        degree = ball.model.growth_degree
        # whether the next system goes to CG before SuperLU: fixed here, from
        # the growth degree and size alone; the band, below, from the growth
        # degree and the bandwidth (see "Factorization:" above)
        self.cg = self.forest is None and degree is not None and degree >= 3 and n_free >= CG_FREE
        self.cg_maxiter: Optional[int] = None  # the cap of a CG solve, once the first has run
        self.band: Optional[_BandCholesky] = None
        self.order: Optional[np.ndarray] = None  # position of each free vertex in the factored matrix
        self.slot: Optional[np.ndarray] = None
        self.matrix: Optional[sp.csc_matrix] = None
        if self.forest is None:
            row_grid = np.repeat(np.arange(n_free, dtype=np.int64), nbr_local.shape[1]).reshape(n_free, -1)
            rows = np.concatenate([np.arange(n_free, dtype=np.int64), row_grid[self.off_mask]])
            cols = np.concatenate([np.arange(n_free, dtype=np.int64), nbr_local[self.off_mask]])
            self.slot, self.matrix = self._pattern(rows, cols)
            if degree is not None and degree <= 2:
                self.band = _BandCholesky.of(self.matrix, nbr_local)
            if self.band is not None:
                self.slot = self.matrix = None
        self.arcs = ball.arcs()

    def _pattern(self, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, sp.csc_matrix]:
        """The CSC pattern of the entries (rows, cols), and the slot of each
        entry in its ``.data``."""
        n = self.n_free
        keys, slot = np.unique(cols * n + rows, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        return slot, sp.csc_matrix((np.zeros(keys.size), keys % n, indptr), shape=(n, n))

    def laplacian(self, w: np.ndarray, shift: float) -> sp.csc_matrix:
        """The Laplacian of arc weights w (one row per free vertex, one
        column per generator slot), diagonal shifted by shift; in the order
        of ``free`` until the first factorization, in ``order`` after it.
        Not for a forest problem, which has no pattern."""
        entries = np.concatenate([w.sum(axis=1) + shift, -w[self.off_mask]])
        self.matrix.data = np.bincount(self.slot, weights=entries, minlength=self.matrix.nnz)
        return self.matrix

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray, rtol: float = CG_RTOL) -> np.ndarray:
        """Solve with the Laplacian of weights w and diagonal shift: a
        symmetric positive definite system for positive weights and shift
        (or unit weights and shift 0, the p = 2 system). A forest problem
        runs the elimination sweep on every call, all NaN where a pivot is 0
        or the solution is not finite. A band problem writes the system into
        its band and factors it by banded Cholesky on every call, all NaN
        where a pivot is not positive, MemoryError if the band cannot be
        allocated. On the CG route a call runs
        Jacobi-preconditioned CG on the matrix in the order of ``free``, to
        a residual of ``rtol`` of the right-hand side; if CG misses it
        within its cap or meets a non-finite value, the route ends for good
        and the call factors the system, exactly. The first
        factorization of a problem, on or off the CG route, factors without
        pivoting, orders by minimum degree and renumbers the pattern into
        that order; a later one factors the renumbered matrix in its
        natural order, with NATURAL_PANEL and NATURAL_RELAX. All NaN if the
        factorization meets a zero pivot (weights that underflow to 0);
        MemoryError if SuperLU runs out of memory."""
        if self.forest is not None:
            return self.forest.solve(w, shift, rhs)
        if self.band is not None:
            return self.band.solve(w, shift, rhs)
        matrix = self.laplacian(w, shift)
        if self.cg:
            solved = _jacobi_cg(matrix, rhs, self.cg_maxiter or CG_MAXITER, rtol)
            if solved is not None:
                x, iterations = solved
                if self.cg_maxiter is None and iterations:
                    self.cg_maxiter = min(CG_MAXITER, CG_STALL * iterations)
                return x
            self.cg = False
        first = self.order is None
        if first:
            ordering = {"permc_spec": "MMD_AT_PLUS_A"}
        else:
            ordering = {"permc_spec": "NATURAL", "relax": NATURAL_RELAX, "panel_size": NATURAL_PANEL}
            b = np.empty(self.n_free)
            b[self.order] = rhs
        try:
            lu = spla.splu(matrix, diag_pivot_thresh=0.0, options={"SymmetricMode": True}, **ordering)
        except RuntimeError:
            return np.full(self.n_free, np.nan)
        except (MemoryError, SystemError) as exc:
            raise _out_of_memory(self.n_free) from exc
        if not first:
            return lu.solve(b)[self.order]
        # renumber the pattern once: free vertex k moves to position order[k]
        self.order = order = lu.perm_c.astype(np.int64)
        m = self.matrix
        cols = np.repeat(np.arange(self.n_free, dtype=np.int64), np.diff(m.indptr))
        slot, self.matrix = self._pattern(order[m.indices], order[cols])
        self.slot = slot[self.slot]
        return lu.solve(rhs)

    def correction(self, u: np.ndarray, p: float, rtol: float = CG_RTOL) -> np.ndarray:
        """The Newton correction of the free values at exponent p, solved on
        the CG route to a residual of ``rtol`` of the right-hand side.

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


class _ForestSweep:
    """Gaussian elimination on a Laplacian whose free vertices form a forest.

    A free vertex is linked to its free neighbours only; where each has at
    most one of them one level closer to the identity (its parent) and none
    on its own level, those links form a forest, and elimination leaves
    first makes no fill (Parter, SIAM Review 3, 1961). The sweep eliminates
    one level at a time, deepest first: each vertex's pivot and right-hand
    side go onto its parent's, added per parent with ``np.add.reduceat``.
    Back-substitution then runs from the roots down. Both passes cost one
    round of numpy calls per level that holds a vertex with a parent, so a
    forest of n free vertices on L levels takes the sweep only where
    2^L <= n: every tree of branching 2 or more does, no path does (see
    "Factorization:" above).

    The vertices are kept in ``order``: by level, then roots before the
    vertices with a parent, these grouped by parent. Round k spans the
    positions [a, b) of one level's vertices with a parent; ``starts``
    opens each run of siblings, ``heads`` is the position of each run's
    parent and ``up`` that of each vertex's parent."""

    def __init__(self, parent: np.ndarray, level: np.ndarray, uplink: np.ndarray):
        self.order = np.lexsort((parent, level))
        position = np.empty_like(self.order)
        position[self.order] = np.arange(self.order.size)
        # the slots (flat, into the weights) that lead to a parent, and the
        # position of the vertex each leads from
        self.link_slots = np.flatnonzero(uplink)
        self.link_at = position[self.link_slots // uplink.shape[1]]
        parent, level = parent[self.order], level[self.order]
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
        ``free`` (-1 at clamps); None unless they form a forest of at least
        2^levels vertices, levels the count of their distinct depths."""
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

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
        """Solve with the Laplacian of arc weights w (symmetric across each
        edge) and diagonal shift, in the order of ``free``; all NaN if a
        pivot is 0 or the solution is not finite."""
        order = self.order
        # row sums one column at a time: a reduction over a few slots is slow
        diag = w[:, 0].copy()
        for col in w.T[1:]:
            diag += col
        diag += shift
        pivot = diag[order]
        link = np.bincount(self.link_at, weights=np.take(w, self.link_slots), minlength=order.size)
        y = rhs[order]
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
        out[order] = x
        return out


class _BandCholesky:
    """Banded Cholesky of a Laplacian in reverse Cuthill-McKee order.

    The free vertices are renumbered once, by reverse Cuthill-McKee on the
    pattern (Cuthill & McKee, Proc. ACM Nat. Conf. 1969; George & Liu,
    *Computer Solution of Large Sparse Positive Definite Systems*, 1981):
    ``perm`` lists the free vertices in band order, ``position`` is the
    place of each, and ``width`` is the bandwidth, 2R - 1 on the ball of Z^2
    of radius R. Each system is written into LAPACK's lower band storage,
    ``width`` + 1 rows of n columns in Fortran order, through ``index``: the
    diagonal first, then the entries below it, read off the weights at the
    flat ``slots``. ``dpbtrf`` factors it and ``dpbtrs`` solves; neither
    pivots, and a system that is not positive definite gives all NaN."""

    def __init__(self, perm: np.ndarray, position: np.ndarray, width: int, slots: np.ndarray, index: np.ndarray):
        self.perm, self.position, self.width = perm, position, width
        self.slots, self.index = slots, index

    @classmethod
    def of(cls, pattern: sp.csc_matrix, nbr_local: np.ndarray) -> Optional["_BandCholesky"]:
        """The band factor of the symmetric ``pattern`` of the free vertices,
        given the position of each neighbour in ``free`` (-1 at clamps);
        None if its reverse Cuthill-McKee bandwidth passes BAND_MAX."""
        perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.int64)
        position = np.empty_like(perm)
        position[perm] = np.arange(perm.size)
        at = position[:, None]
        linked = nbr_local >= 0
        nbr_at = np.where(linked, position[nbr_local], at)
        width = int(np.max(at - nbr_at, initial=0))  # the pattern is symmetric
        if width > BAND_MAX:
            return None
        lower = linked & (nbr_at < at)
        # entry (i, j), i >= j, of the band order sits at j (width + 1) + i - j
        index = np.concatenate([position * (width + 1), (nbr_at * width + at)[lower]])
        return cls(perm, position, width, np.flatnonzero(lower), index)

    def solve(self, w: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
        """Solve with the Laplacian of arc weights w (symmetric across each
        edge) and diagonal shift, in the order of ``free``; all NaN if a
        pivot is not positive, MemoryError if the band cannot be allocated."""
        n = rhs.size
        try:
            entries = np.concatenate([w.sum(axis=1) + shift, -np.take(w, self.slots)])
            band = np.bincount(self.index, weights=entries, minlength=n * (self.width + 1))
            factor, info = lapack.dpbtrf(band.reshape(n, -1).T, lower=1, overwrite_ab=1)
            if info > 0:
                return np.full(n, np.nan)
            x, _ = lapack.dpbtrs(factor, rhs[self.perm], lower=1, overwrite_b=1)
        except MemoryError as exc:
            raise _out_of_memory(n) from exc
        return x[self.position]


def _out_of_memory(n_free: int) -> MemoryError:
    """The one-line error of a factorization, SuperLU or band, that runs out
    of memory."""
    return MemoryError(f"out of memory factoring the Newton system of {n_free} free vertices")


def _jacobi_cg(
    matrix: sp.csc_matrix, b: np.ndarray, maxiter: int, rtol: float
) -> Optional[Tuple[np.ndarray, int]]:
    """Solve the symmetric system by conjugate gradients preconditioned with
    its diagonal, from 0, until the residual is at most ``rtol`` of |b|
    (2-norms): CG_RTOL for a p = 2 system, a Newton system's forcing term
    for the others (see "Factorization:" above). The solution and the
    iterations taken. None if that takes more than ``maxiter`` iterations,
    if a diagonal entry is below the smallest normal float, or if a
    curvature d^T A d or a residual is not finite and positive."""
    # a symmetric CSC matrix read as CSR is itself, and CSR products are faster
    a = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
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
    stop = rtol * rtol * (r @ r)
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
    of p < 2 apply). Where the free vertices form a wide enough forest (the
    trees), every system goes to one leaf-to-root elimination sweep, and
    nothing is factored. On a group of growth degree 3 or more with at
    least CG_FREE free vertices, every system goes to Jacobi-preconditioned
    CG, each Newton system solved only to its forcing term, with the factor
    taking over for good from the first CG solve that fails. On a group of
    growth degree 2 or less (Z, Z^2 and the paths F_1 and Z2*Z2, under any
    generating set) whose free vertices have a reverse Cuthill-McKee
    bandwidth of at most BAND_MAX, every system goes to banded Cholesky in
    that order. Every other problem factors every system with SuperLU (see
    "Factorization:" in the module docstring). A start that is not finite
    at a free vertex is refused with a ValueError naming the first such
    vertex.

    Newton runs on the clamps scaled by a power of 2 to a largest magnitude
    in (1/2, 1], and the field is scaled back (see "Scaling:" in the module
    docstring): clamps c 2^k with a tolerance scaled alike take the steps
    of c.

    The solve converges when the sup of the scaled Newton correction at the
    target exponent is at most ``config.tolerance``, or STOP_FLOOR times
    the largest clamp magnitude if that is more, in scaled units; that last
    correction is added to the field. A stage below the target ends at
    max(that limit, STAGE_TOL). ``config.max_sweeps`` bounds the damped
    Newton steps of all stages together, and ``iterations`` counts them.
    The returned field is clipped to the clamped range. The reported
    residual is the sup of the p-Laplacian over the free vertices of that
    field: for p < 2 it can stay far above the tolerance at arcs whose two
    values nearly coincide, where one ulp of either value moves it by about
    (p-1)|d|^(p-2) ulp. Non-convergence is reported, not raised.
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
