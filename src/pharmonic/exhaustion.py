"""Exhaustion experiments: what happens at the edge of larger and larger balls.

Four instruments, all built on the clamped solver:

* boundary_witness: clamp 1 on a marked half of each sphere and 0 on the
  rest, track the potential gap between two opposite radius-1 probes. A gap
  that stabilizes away from zero certifies two genuinely different ideal
  boundary directions; a gap that collapses says the two probes see the
  same boundary.
* parabolicity_profile: capacities of the identity against growing spheres.
  Capacity decaying to zero is the parabolic (recurrent-like) signature;
  capacity leveling off at a positive value is the transient signature.
* royden_decompose: split a field into a p-harmonic part h (the sphere-value
  extension at the final radius) plus a remainder u = f - h that carries the
  boundary behaviour of f.
* inner_potential: clamp 0 on the complement of a subset A and 1 on the part
  of the sphere inside A. If the potentials stay uniformly positive at the
  core, A is massive: it supports escape to a boundary point of its own.

Verdict thresholds are module constants. All runs report per-radius rows so
that a verdict can be audited from the numbers alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import log
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import connected_components

from .dirichlet import DirichletProblem, Record, SolverConfig, SolveReport, capacity, solve_dirichlet
from .energy import ScalarField, check_exponent
from .groups import (
    CayleyBall,
    Element,
    FreeAbelianModel,
    FreeGroupModel,
    FreeProductZ2Model,
    GroupModel,
    LamplighterModel,
)

VERDICT_WITNESS = "witness_found"
VERDICT_GAP_VANISHING = "gap_vanishing"
VERDICT_PARABOLIC = "parabolic"
VERDICT_NON_PARABOLIC = "non_parabolic"
VERDICT_MASSIVE = "massive"
VERDICT_NOT_MASSIVE = "not_massive"
VERDICT_INCONCLUSIVE = "inconclusive"

GAP_FLOOR = 0.05
GAP_STAB_TOL = 0.01
HALVING_SLACK = 4.0 * float(np.finfo(np.float64).eps)
ENERGY_GROWTH_MAX = 0.5
CORE_FLOOR = 0.05
CORE_STAB_TOL = 0.01
CORE_RADIUS = 2
CAP_SMALL = 1e-3
CAP_LARGE = 0.5
SLOPE_PARABOLIC = -0.25
SLOPE_FLAT = -0.1


def _ascending_radii(radii: Sequence[int], minimum: int) -> List[int]:
    radii = [int(r) for r in radii]
    if len(radii) < 2:
        raise ValueError("need at least two radii to compare")
    if any(r < minimum for r in radii):
        raise ValueError(f"radii must be >= {minimum}, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    return radii


@dataclass
class DirectionMarking:
    """A named half of the group, as a predicate on elements, plus two
    opposite probes at radius 1, as generator labels. An extended generating
    set keeps the family's letters, so the same labels probe it too."""

    name: str
    contains: Callable[[Element], bool]
    plus_probe: str
    minus_probe: str

    def sphere_clamps(self, ball: CayleyBall) -> np.ndarray:
        """Clamp values: 1 on the marked sphere vertices, 0 on the rest of the
        sphere, NaN (free) inside."""
        clamps = np.full(len(ball), np.nan)
        clamps[ball.n_interior :] = np.fromiter(
            map(self.contains, ball.boundary_elements()), dtype=np.float64, count=ball.n_boundary
        )
        return clamps


def default_marking(model: GroupModel) -> DirectionMarking:
    """The standard direction marking of each family.

    Free groups and free products mark words by their first letter; free
    abelian groups mark the sign of the last coordinate; the lamplighter
    marks the cursor sign. The marking depends on the elements alone, so a
    family's extended generating sets share the marking of its stock set.
    """
    if isinstance(model, FreeGroupModel):
        return DirectionMarking("first_letter_a", lambda g: len(g) > 0 and g[0] == 1, "a", "a-")
    if isinstance(model, FreeProductZ2Model):
        return DirectionMarking("first_letter_s1", lambda g: len(g) > 0 and g[0] == 1, "s1", "s2")
    if isinstance(model, FreeAbelianModel):
        d = model.d
        return DirectionMarking("last_coordinate_positive", lambda g: g[-1] > 0, f"x{d}", f"x{d}-")
    if isinstance(model, LamplighterModel):
        return DirectionMarking("cursor_positive", lambda g: g[1] > 0, "t", "t-")
    raise ValueError(f"no default marking for model {model.name}")


@dataclass
class WitnessRow(Record):
    radius: int
    marked_count: int
    unmarked_count: int
    u_plus: float
    u_minus: float
    gap: float
    energy: float
    iterations: int
    residual: float
    converged: bool
    field: Optional[ScalarField] = dc_field(default=None, repr=False)


@dataclass
class WitnessReport(Record):
    model: str
    p: float
    marking: str
    rows: List[WitnessRow]
    verdict: str
    gap_first: float
    gap_last: float
    stability_delta: float
    energy_growth: float

    @property
    def field(self) -> ScalarField:
        """The solved field at the last radius."""
        return self.rows[-1].field


def boundary_witness(
    model: GroupModel,
    p: float,
    radii: Sequence[int],
    marking: Optional[DirectionMarking] = None,
    config: Optional[SolverConfig] = None,
    budget: Optional[int] = None,
) -> WitnessReport:
    """Run the marked-sphere experiment over an increasing radius schedule.

    At each radius the sphere splits into marked and unmarked vertices
    (both parts must be nonempty), the marked part is clamped to 1 and the
    rest to 0, and the probe gap u(plus) - u(minus) is recorded. The final
    verdict compares the last two radii: ``witness_found`` needs the gap to
    have stabilized (change <= GAP_STAB_TOL) away from zero (>= GAP_FLOOR)
    with bounded energy growth; ``gap_vanishing`` needs the gap below the
    floor, or strictly shrinking to at most half its first value.
    """
    check_exponent(p)
    radii = _ascending_radii(radii, minimum=2)
    marking = marking or default_marking(model)
    config = config or SolverConfig()
    # ball.adj[0, j] is the vertex of gen_labels[j]^-1, so slot[s] holds that of s
    slot = {model._inv_label[s]: j for j, s in enumerate(model.gen_labels)}
    probes = (marking.plus_probe, marking.minus_probe)
    if not all(label in slot for label in probes):
        raise ValueError(f"probes {probes} are not generator labels of {model.name}")

    rows: List[WitnessRow] = []
    for radius in radii:
        ball = model.ball(radius, budget)
        plus, minus = (ball.adj[0, slot[label]] for label in probes)
        clamped = marking.sphere_clamps(ball)
        marked = int(np.count_nonzero(clamped[ball.n_interior :]))
        unmarked = ball.n_boundary - marked
        if marked == 0 or unmarked == 0:
            raise ValueError(
                f"marking {marking.name!r} does not split the sphere of radius {radius}"
                f" (marked={marked}, unmarked={unmarked})"
            )
        u, rep = solve_dirichlet(DirichletProblem(ball, clamped, p), config)
        u_plus = float(u.values[plus])
        u_minus = float(u.values[minus])
        rows.append(
            WitnessRow(
                radius=radius,
                marked_count=marked,
                unmarked_count=unmarked,
                u_plus=u_plus,
                u_minus=u_minus,
                gap=u_plus - u_minus,
                energy=rep.final_energy,
                iterations=rep.iterations,
                residual=rep.residual,
                converged=rep.converged,
                field=u,
            )
        )

    gaps = [r.gap for r in rows]
    e_first, e_last = rows[0].energy, rows[-1].energy
    growth = (e_last - e_first) / max(e_first, 1e-300)
    return WitnessReport(
        model=model.name,
        p=p,
        marking=marking.name,
        rows=rows,
        verdict=witness_verdict(gaps, growth),
        gap_first=gaps[0],
        gap_last=gaps[-1],
        stability_delta=abs(gaps[-1] - gaps[-2]),
        energy_growth=growth,
    )


def witness_verdict(gaps: Sequence[float], energy_growth: float) -> str:
    """The verdict of boundary_witness from its probe gaps, one per radius.

    A gap that halves exactly (0.25 -> 0.125 on Z at p = 2) must read as
    halved whichever way its last bit was rounded, so the halving test
    allows HALVING_SLACK of relative rounding."""
    gap_first, gap_last = gaps[0], gaps[-1]
    if abs(gap_last - gaps[-2]) <= GAP_STAB_TOL and abs(gap_last) >= GAP_FLOOR and energy_growth <= ENERGY_GROWTH_MAX:
        return VERDICT_WITNESS
    halved = abs(gap_last) <= 0.5 * abs(gap_first) * (1.0 + HALVING_SLACK)
    if abs(gap_last) < GAP_FLOOR or (all(abs(b) < abs(a) for a, b in zip(gaps, gaps[1:])) and halved):
        return VERDICT_GAP_VANISHING
    return VERDICT_INCONCLUSIVE


@dataclass
class CapacityRow(Record):
    radius: int
    capacity: float
    iterations: int
    residual: float
    converged: bool


@dataclass
class ParabolicityReport(Record):
    model: str
    p: float
    inner_radius: int
    rows: List[CapacityRow]
    slope: float
    verdict: str


def parabolicity_profile(
    model: GroupModel,
    radii: Sequence[int],
    p: float,
    inner_radius: int = 0,
    config: Optional[SolverConfig] = None,
    budget: Optional[int] = None,
) -> ParabolicityReport:
    """Capacity of the inner ball against spheres of increasing radius.

    The verdict reads the log-log slope between the first and last radius:
    decaying capacity (slope <= SLOPE_PARABOLIC, or outright tiny) with a
    nonincreasing profile is ``parabolic``; a profile that stays above
    CAP_LARGE and is flat in the log-log sense is ``non_parabolic``.
    """
    check_exponent(p)
    radii = _ascending_radii(radii, minimum=inner_radius + 1)
    rows: List[CapacityRow] = []
    for radius in radii:
        cap, _, rep = capacity(model, inner_radius, radius, p, config, budget)
        rows.append(CapacityRow(radius, cap, rep.iterations, rep.residual, rep.converged))
    caps = [r.capacity for r in rows]
    slope = log(max(caps[-1], 1e-300) / caps[0]) / log(radii[-1] / radii[0])
    nonincreasing = all(b <= a * (1.0 + 1e-9) + 1e-12 for a, b in zip(caps, caps[1:]))
    if nonincreasing and (caps[-1] < CAP_SMALL or slope <= SLOPE_PARABOLIC):
        verdict = VERDICT_PARABOLIC
    elif caps[-1] >= CAP_LARGE and slope >= SLOPE_FLAT:
        verdict = VERDICT_NON_PARABOLIC
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ParabolicityReport(model.name, p, inner_radius, rows, slope, verdict)


@dataclass
class RoydenRow(Record):
    radius: int
    energy: float
    core_delta: float
    iterations: int
    residual: float
    converged: bool


@dataclass
class RoydenReport(Record):
    model: str
    p: float
    radii: List[int]
    rows: List[RoydenRow]
    h_energy: float
    u_core_sup: float
    u_sphere_sup: float


def royden_decompose(
    model: GroupModel,
    f: ScalarField,
    p: float,
    radii: Sequence[int],
    config: Optional[SolverConfig] = None,
    budget: Optional[int] = None,
    final_solve: Optional[Tuple[ScalarField, SolveReport]] = None,
) -> Tuple[ScalarField, ScalarField, RoydenReport]:
    """Split f = u + h on the final ball, h p-harmonic with f's sphere values.

    ``f`` is a ScalarField on a ball of ``model`` at least as large as the
    final radius. For each scheduled radius the sphere values of f are
    extended p-harmonically inward; the core rows track how fast these
    extensions settle. The returned h is the extension at the final radius
    and u = f - h vanishes on the final sphere.

    ``final_solve`` is the (field, report) of ``solve_dirichlet`` on the
    final problem when the caller has it already, say because f itself is
    the cold solve with those sphere values; it stands in for that radius's
    solve. Its field must lie on the final ball with f's sphere values.
    """
    check_exponent(p)
    radii = _ascending_radii(radii, minimum=CORE_RADIUS)
    config = config or SolverConfig()
    final = radii[-1]
    final_ball = model.ball(final, budget)
    if not isinstance(f, ScalarField):
        raise TypeError(f"f must be a ScalarField, got {type(f).__name__}")
    if f.ball.model.spec.to_dict() != model.spec.to_dict():
        raise ValueError("field was built on a different group")
    if f.ball.radius < final:
        raise ValueError(f"field lives on radius {f.ball.radius} < final radius {final}")
    f_final = f.restrict(final_ball) if f.ball.radius != final else f

    # every ball of a model is a prefix of one breadth-first order, so the
    # core has the same indices at every radius
    core_idx = final_ball.core_indices(CORE_RADIUS)
    rows: List[RoydenRow] = []
    prev_core: Optional[np.ndarray] = None
    h_field: Optional[ScalarField] = None
    if final_solve is not None:
        sphere = slice(final_ball.n_interior, None)
        h_final = final_solve[0]
        if not (h_final.ball.compatible(final_ball) and np.array_equal(h_final.values[sphere], f_final.values[sphere])):
            raise ValueError("final_solve is not a field on the final ball with f's sphere values")
    for radius in radii:
        if radius == final and final_solve is not None:
            h_n, rep = final_solve
        else:
            ball = final_ball if radius == final else model.ball(radius, budget)
            n = len(ball)
            clamped = np.full(n, np.nan)
            clamped[ball.n_interior :] = f_final.values[ball.n_interior : n]
            h_n, rep = solve_dirichlet(DirichletProblem(ball, clamped, p), config)
        core_vals = h_n.values[core_idx]
        delta = float("nan") if prev_core is None else float(np.max(np.abs(core_vals - prev_core)))
        rows.append(RoydenRow(radius, rep.final_energy, delta, rep.iterations, rep.residual, rep.converged))
        prev_core = core_vals
        h_field = h_n

    u_field = ScalarField(final_ball, f_final.values - h_field.values)
    u_core = float(np.max(np.abs(u_field.values[core_idx])))
    u_sphere = float(np.max(np.abs(u_field.values[final_ball.n_interior :])))
    report = RoydenReport(
        model=model.name,
        p=p,
        radii=list(radii),
        rows=rows,
        h_energy=rows[-1].energy,
        u_core_sup=u_core,
        u_sphere_sup=u_sphere,
    )
    return u_field, h_field, report


@dataclass
class SubsetSpec:
    """A named subset of the group given by a membership predicate."""

    name: str
    contains: Callable[[Element], bool]


def half_space_subset(model: GroupModel, coordinate: int = -1) -> SubsetSpec:
    """{g : g[coordinate] >= 1} in a free abelian group."""
    if not isinstance(model, FreeAbelianModel):
        raise ValueError("half_space_subset expects a free abelian model")
    d = model.d
    axis = coordinate if coordinate >= 0 else d + coordinate
    if not 0 <= axis < d:
        raise ValueError(f"coordinate {coordinate} out of range for rank {d}")
    return SubsetSpec(f"half_space_x{axis + 1}", lambda g: g[axis] >= 1)


def letter_subtree_subset(model: GroupModel, letter: str = "a") -> SubsetSpec:
    """Reduced words starting with the given generator letter."""
    if not isinstance(model, (FreeGroupModel, FreeProductZ2Model)):
        raise ValueError("letter_subtree_subset expects a free group or free product model")
    code = model.letter_code(letter)
    return SubsetSpec(f"subtree_{letter}", lambda g: len(g) > 0 and g[0] == code)


@dataclass
class MassiveRow(Record):
    radius: int
    core_sup: float
    core_stab: float
    boundary_count: int
    sphere_count: int
    connected: bool
    energy: float
    iterations: int
    converged: bool


@dataclass
class MassiveReport(Record):
    model: str
    p: float
    subset: str
    rows: List[MassiveRow]
    verdict: str


def inner_potential(
    model: GroupModel,
    subset: SubsetSpec,
    radii: Sequence[int],
    p: float,
    config: Optional[SolverConfig] = None,
    budget: Optional[int] = None,
) -> Tuple[ScalarField, MassiveReport]:
    """Potential of escaping through a subset A: 0 off A, 1 on the sphere in A.

    At each radius the run checks that A meets the sphere, that A has a
    nonempty vertex boundary inside the ball, and that A restricted to the
    ball is connected (ValueError otherwise, naming the radius). The verdict
    watches the potential on the core ball: uniformly positive and settled
    means ``massive``; decaying below CORE_FLOOR or halving from the first
    radius means ``not_massive``.
    """
    check_exponent(p)
    radii = _ascending_radii(radii, minimum=2)
    config = config or SolverConfig()

    rows: List[MassiveRow] = []
    prev_core: Optional[np.ndarray] = None
    last_field: Optional[ScalarField] = None
    for radius in radii:
        ball = model.ball(radius, budget)
        in_a = np.fromiter((subset.contains(g) for g in ball.vertices), dtype=bool, count=len(ball))
        a_idx = np.flatnonzero(in_a)
        if a_idx.size == 0:
            raise ValueError(f"subset {subset.name!r} misses the ball of radius {radius}")
        sphere_in_a = ball.n_interior + np.flatnonzero(in_a[ball.n_interior :])
        if sphere_in_a.size == 0:
            raise ValueError(f"subset {subset.name!r} misses the sphere of radius {radius}")
        # boundary and connectivity use all ball edges, including those
        # between two sphere vertices
        graph = ball.csr()
        boundary_count = int(np.count_nonzero((graph @ in_a.astype(np.float64) > 0) & ~in_a))
        if boundary_count == 0:
            raise ValueError(f"subset {subset.name!r} has empty boundary in the ball of radius {radius}")
        n_parts, _ = connected_components(graph[a_idx][:, a_idx], directed=False)
        connected = bool(n_parts == 1)
        if not connected:
            raise ValueError(
                f"subset {subset.name!r} is disconnected inside the ball of radius {radius}"
            )

        clamped = np.where(in_a, np.nan, 0.0)
        clamped[sphere_in_a] = 1.0
        if not np.any(in_a[: ball.n_interior]):
            raise ValueError(f"subset {subset.name!r} has no free interior vertex at radius {radius}")
        u, rep = solve_dirichlet(DirichletProblem(ball, clamped, p), config)

        core_vals = u.values[ball.core_indices(CORE_RADIUS)]
        stab = float("nan") if prev_core is None else float(np.max(np.abs(core_vals - prev_core)))
        rows.append(
            MassiveRow(
                radius=radius,
                core_sup=float(np.max(np.abs(core_vals))),
                core_stab=stab,
                boundary_count=boundary_count,
                sphere_count=int(sphere_in_a.size),
                connected=connected,
                energy=rep.final_energy,
                iterations=rep.iterations,
                converged=rep.converged,
            )
        )
        prev_core = core_vals
        last_field = u

    sups = [r.core_sup for r in rows]
    stab_last = rows[-1].core_stab
    if sups[-1] < CORE_FLOOR:
        verdict = VERDICT_NOT_MASSIVE
    elif stab_last <= CORE_STAB_TOL and sups[-1] >= CORE_FLOOR:
        verdict = VERDICT_MASSIVE
    elif all(b < a for a, b in zip(sups, sups[1:])) and sups[-1] <= 0.5 * sups[0]:
        verdict = VERDICT_NOT_MASSIVE
    else:
        verdict = VERDICT_INCONCLUSIVE

    report = MassiveReport(model.name, p, subset.name, rows, verdict)
    return last_field, report
