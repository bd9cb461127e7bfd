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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import connected_components

from .dirichlet import DirichletProblem, SolveReport, SolverConfig, capacity, solve_dirichlet
from .energy import ScalarField, check_exponent
from .groups import (
    CayleyBall,
    Element,
    ExtendedGeneratorModel,
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
    """A named half of the group plus two opposite probe vertices at radius 1."""

    name: str
    contains: Callable[[Element], bool]
    plus_probe: Element
    minus_probe: Element


def default_marking(model: GroupModel) -> DirectionMarking:
    """The standard direction marking of each family.

    Free groups and free products mark words by their first letter; free
    abelian groups mark the sign of the last coordinate; the lamplighter
    marks the cursor sign. Extended-generator models inherit the marking of
    the base group (the elements are the same).
    """
    if isinstance(model, ExtendedGeneratorModel):
        return default_marking(model.base)
    if isinstance(model, FreeGroupModel):
        return DirectionMarking("first_letter_a", lambda g: len(g) > 0 and g[0] == 1, (1,), (-1,))
    if isinstance(model, FreeProductZ2Model):
        return DirectionMarking("first_letter_s1", lambda g: len(g) > 0 and g[0] == 1, (1,), (2,))
    if isinstance(model, FreeAbelianModel):
        d = model.d
        plus = tuple(0 for _ in range(d - 1)) + (1,)
        minus = tuple(0 for _ in range(d - 1)) + (-1,)
        return DirectionMarking("last_coordinate_positive", lambda g: g[-1] > 0, plus, minus)
    if isinstance(model, LamplighterModel):
        return DirectionMarking("cursor_positive", lambda g: g[1] > 0, ((), 1), ((), -1))
    raise ValueError(f"no default marking for model {model.name}")


@dataclass
class WitnessRow:
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

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "marked_count": self.marked_count,
            "unmarked_count": self.unmarked_count,
            "u_plus": self.u_plus,
            "u_minus": self.u_minus,
            "gap": self.gap,
            "energy": self.energy,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


@dataclass
class WitnessReport:
    model_name: str
    p: float
    marking_name: str
    rows: List[WitnessRow]
    verdict: str
    gap_first: float
    gap_last: float
    stability_delta: float
    energy_growth: float
    field: Optional[ScalarField] = dc_field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "p": self.p,
            "marking": self.marking_name,
            "rows": [r.to_dict() for r in self.rows],
            "verdict": self.verdict,
            "gap_first": self.gap_first,
            "gap_last": self.gap_last,
            "stability_delta": self.stability_delta,
            "energy_growth": self.energy_growth,
        }


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

    rows: List[WitnessRow] = []
    prev: Optional[ScalarField] = None
    last_field: Optional[ScalarField] = None
    for radius in radii:
        ball = model.ball(radius, budget)
        if marking.plus_probe not in ball.index or marking.minus_probe not in ball.index:
            raise ValueError(f"probe vertices missing from ball of radius {radius}")
        clamped: Dict[int, float] = {}
        marked = unmarked = 0
        for i in range(ball.n_interior, len(ball)):
            if marking.contains(ball.vertices[i]):
                clamped[i] = 1.0
                marked += 1
            else:
                clamped[i] = 0.0
                unmarked += 1
        if marked == 0 or unmarked == 0:
            raise ValueError(
                f"marking {marking.name!r} does not split the sphere of radius {radius}"
                f" (marked={marked}, unmarked={unmarked})"
            )
        problem = DirichletProblem(ball, clamped, p)
        init = None
        # chaining only helps the nonlinear sweeps; at p = 2 the default
        # warm start is the exact sparse solve
        if prev is not None and p != 2.0:
            init = np.full(len(ball), 0.5)
            n_prev = len(prev.ball)
            init[:n_prev] = prev.values  # earlier ball is a prefix of the later one
        u, rep = solve_dirichlet(problem, config, initial=init)
        u_plus = u.value_at(marking.plus_probe)
        u_minus = u.value_at(marking.minus_probe)
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
            )
        )
        prev = u
        last_field = u

    gaps = [r.gap for r in rows]
    gap_first, gap_last = gaps[0], gaps[-1]
    stability = abs(gaps[-1] - gaps[-2])
    e_first, e_last = rows[0].energy, rows[-1].energy
    growth = (e_last - e_first) / max(e_first, 1e-300)

    if stability <= GAP_STAB_TOL and abs(gap_last) >= GAP_FLOOR and growth <= ENERGY_GROWTH_MAX:
        verdict = VERDICT_WITNESS
    elif abs(gap_last) < GAP_FLOOR or (
        all(abs(b) < abs(a) for a, b in zip(gaps, gaps[1:])) and abs(gap_last) <= 0.5 * abs(gap_first)
    ):
        verdict = VERDICT_GAP_VANISHING
    else:
        verdict = VERDICT_INCONCLUSIVE

    return WitnessReport(
        model_name=model.name,
        p=p,
        marking_name=marking.name,
        rows=rows,
        verdict=verdict,
        gap_first=gap_first,
        gap_last=gap_last,
        stability_delta=stability,
        energy_growth=growth,
        field=last_field,
    )


@dataclass
class CapacityRow:
    radius: int
    capacity: float
    iterations: int
    residual: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "capacity": self.capacity,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


@dataclass
class ParabolicityReport:
    model_name: str
    p: float
    inner_radius: int
    rows: List[CapacityRow]
    slope: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "p": self.p,
            "inner_radius": self.inner_radius,
            "rows": [r.to_dict() for r in self.rows],
            "slope": self.slope,
            "verdict": self.verdict,
        }


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
class RoydenRow:
    radius: int
    energy: float
    core_delta: float
    iterations: int
    residual: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "energy": self.energy,
            "core_delta": self.core_delta,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


@dataclass
class RoydenReport:
    model_name: str
    p: float
    radii: List[int]
    rows: List[RoydenRow]
    h_energy: float
    u_core_sup: float
    u_sphere_sup: float

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "p": self.p,
            "radii": self.radii,
            "rows": [r.to_dict() for r in self.rows],
            "h_energy": self.h_energy,
            "u_core_sup": self.u_core_sup,
            "u_sphere_sup": self.u_sphere_sup,
        }


def royden_decompose(
    model: GroupModel,
    f,
    p: float,
    radii: Sequence[int],
    config: Optional[SolverConfig] = None,
    budget: Optional[int] = None,
) -> Tuple[ScalarField, ScalarField, RoydenReport]:
    """Split f = u + h on the final ball, h p-harmonic with f's sphere values.

    ``f`` is a ScalarField on a ball of ``model`` at least as large as the
    final radius, or a callable on elements. For each scheduled radius the
    sphere values of f are extended p-harmonically inward; the core rows
    track how fast these extensions settle. The returned h is the extension
    at the final radius and u = f - h vanishes on the final sphere.
    """
    check_exponent(p)
    radii = _ascending_radii(radii, minimum=1)
    config = config or SolverConfig()
    final = radii[-1]
    final_ball = model.ball(final, budget)
    if isinstance(f, ScalarField):
        if f.ball.model.spec.to_dict() != model.spec.to_dict():
            raise ValueError("field was built on a different group")
        if f.ball.radius < final:
            raise ValueError(f"field lives on radius {f.ball.radius} < final radius {final}")
        f_final = f.restrict(final_ball) if f.ball.radius != final else f
    elif callable(f):
        f_final = ScalarField(final_ball, np.array([float(f(g)) for g in final_ball.vertices]))
    else:
        raise TypeError("f must be a ScalarField or a callable on group elements")

    core_elems = [final_ball.vertices[i] for i in final_ball.core_indices(CORE_RADIUS)]
    rows: List[RoydenRow] = []
    prev_core: Optional[np.ndarray] = None
    h_field: Optional[ScalarField] = None
    prev_h: Optional[ScalarField] = None
    for radius in radii:
        ball = final_ball if radius == final else model.ball(radius, budget)
        n = len(ball)
        clamped = {i: float(f_final.values[i]) for i in range(ball.n_interior, n)}
        init = None
        if p != 2.0:
            init = f_final.values[:n].copy()
            if prev_h is not None:
                init[: len(prev_h.ball)] = prev_h.values
        problem = DirichletProblem(ball, clamped, p)
        h_n, rep = solve_dirichlet(problem, config, initial=init)
        core_vals = np.array([h_n.value_at(g) for g in core_elems])
        delta = float("nan") if prev_core is None else float(np.max(np.abs(core_vals - prev_core)))
        rows.append(RoydenRow(radius, rep.final_energy, delta, rep.iterations, rep.residual, rep.converged))
        prev_core = core_vals
        prev_h = h_n
        h_field = h_n

    u_field = ScalarField(final_ball, f_final.values - h_field.values)
    core_idx = final_ball.core_indices(CORE_RADIUS)
    u_core = float(np.max(np.abs(u_field.values[core_idx])))
    u_sphere = float(np.max(np.abs(u_field.values[final_ball.n_interior :])))
    report = RoydenReport(
        model_name=model.name,
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
    if isinstance(model, FreeGroupModel):
        code = model.letter_code(letter)
        return SubsetSpec(f"subtree_{letter}", lambda g: len(g) > 0 and g[0] == code)
    if isinstance(model, FreeProductZ2Model):
        code = model.letter_code(letter)
        return SubsetSpec(f"subtree_{letter}", lambda g: len(g) > 0 and g[0] == code)
    raise ValueError("letter_subtree_subset expects a free group or free product model")


@dataclass
class MassiveRow:
    radius: int
    core_sup: float
    core_stab: float
    boundary_count: int
    sphere_count: int
    connected: bool
    energy: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "core_sup": self.core_sup,
            "core_stab": self.core_stab,
            "boundary_count": self.boundary_count,
            "sphere_count": self.sphere_count,
            "connected": self.connected,
            "energy": self.energy,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass
class MassiveReport:
    model_name: str
    p: float
    subset_name: str
    rows: List[MassiveRow]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "p": self.p,
            "subset": self.subset_name,
            "rows": [r.to_dict() for r in self.rows],
            "verdict": self.verdict,
        }


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
    prev_field: Optional[ScalarField] = None
    last_field: Optional[ScalarField] = None
    core_elems: Optional[List[Element]] = None
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

        clamped: Dict[int, float] = {int(i): 0.0 for i in np.flatnonzero(~in_a)}
        for i in sphere_in_a:
            clamped[int(i)] = 1.0
        if not np.any(in_a[: ball.n_interior]):
            raise ValueError(f"subset {subset.name!r} has no free interior vertex at radius {radius}")
        problem = DirichletProblem(ball, clamped, p)
        init = None
        if prev_field is not None and p != 2.0:
            init = np.zeros(len(ball))
            init[: len(prev_field.ball)] = prev_field.values
        u, rep = solve_dirichlet(problem, config, initial=init)

        if core_elems is None:
            core_elems = [ball.vertices[i] for i in ball.core_indices(CORE_RADIUS)]
        core_vals = np.array([u.value_at(g) for g in core_elems])
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
        prev_field = u
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
