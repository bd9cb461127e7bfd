"""Rough isometries between Cayley balls and energy transport along them.

A coarse map phi between two balls is stored with three fitted constants:
(a, b) such that on sampled vertex pairs

    d_Y(phi x, phi x') <= a d_X(x, x') + b      (no large stretching)
    d_X(x, x')  <= a d_Y(phi x, phi x') + a b   (no large collapsing)

and a coverage radius c >= 1 such that every codomain vertex of depth at
most R_Y - c lies within distance c of the image set. The fit scans b = 0..8
first and a = 1.0, 1.25, ..., 4.0 second, returning the first pair that
clears every sampled pair, so the reported constants favour small additive
slack. Pair distances are measured inside the ball graphs. They never
undershoot the word metric, since a path inside the ball is a path in the
group, but they can overshoot it where every geodesic between two ball
vertices leaves the ball; the lamplighter ball already does this with its
stock generators. Which inequality an overshoot loosens depends on its side:
on the codomain side it inflates d_Y, which makes the stretching bound harder
and the collapsing bound easier to meet; on the domain side it inflates d_X,
with the opposite effect.

On top of the fitted maps sit: a nearest-preimage rough inverse, the energy
pullback inequality with an exactly counted arc-multiplicity constant, a
coarse-identity deviation check, and transport of a p-harmonic field to the
other group by pulling back along the rough inverse and keeping the
harmonic part of its Royden split.

Vertices move between balls of one group by their array codes
(``CayleyBall.locate``): the inclusion map of ``CoarseMap.fit`` and the
field lookup of ``transport_harmonic`` decode neither ball, and arc counts
index ``CayleyBall.arcs()`` arrays, not per-arc dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dirichlet import Record, SolverConfig
from .energy import ScalarField, check_exponent, seminorm_p
from .exhaustion import RoydenReport, royden_decompose
from .groups import CayleyBall

A_GRID = tuple(1.0 + 0.25 * i for i in range(13))  # 1.0 .. 4.0
B_GRID = tuple(range(0, 9))
HEAD_PAIR_COUNT = 50
RANDOM_SOURCES = 64
RANDOM_TARGETS = 16


class FitError(ValueError):
    """No grid constants (or no coverage radius) satisfy the sampled data."""


def _bfs_parents(ball: CayleyBall, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distances and deterministic BFS parents from one source.

    The parent of a vertex is its smallest-index neighbor one step closer to
    the source, so shortest paths are reproducible across runs.
    """
    dist = ball.hops(source)
    full = ball.full_adj()
    n = len(ball)
    closer = (full >= 0) & (dist[full] == dist[:, None] - 1) & (dist[:, None] > 0)
    parent = np.where(closer, full, n).min(axis=1)
    parent[parent == n] = -1
    return dist, parent


def _route(ball: CayleyBall, parents: Dict[int, Tuple[np.ndarray, np.ndarray]], s: int, t: int,
           unreached: str) -> List[int]:
    """The BFS-parent shortest path s, ..., t inside the ball; ``parents``
    caches the search from each source. FitError(unreached) when t is not
    reached."""
    if s not in parents:
        parents[s] = _bfs_parents(ball, s)
    dist, parent = parents[s]
    if dist[t] < 0:
        raise FitError(unreached)
    path = [t]
    while path[-1] != s:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path


def _arc_ids(ball: CayleyBall, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The position in ``ball.arcs()`` of each arc tail -> head; of parallel
    arcs, the one in the last adjacency slot. ``arcs()`` lists the arc out
    of interior vertex u through slot j at u x degree + j, then, in the same
    order, the reverse of each of those arcs that ends on the sphere."""
    deg = ball.model.degree
    n_int = ball.n_interior
    inward = tails >= n_int
    # read every arc off the adjacency row of its interior end
    rows, ends = np.where(inward, heads, tails), np.where(inward, tails, heads)
    match = ball.full_adj()[rows] == ends[:, None]
    if not np.all(match.any(axis=1) & (rows < n_int)):
        raise FitError("a routed path leaves the counted arcs of the ball")
    ids = rows * deg + (deg - 1 - np.argmax(match[:, ::-1], axis=1))
    if inward.any():
        rank = np.cumsum(ball.adj.reshape(-1) >= n_int) - 1
        ids[inward] = n_int * deg + rank[ids[inward]]
    return ids


def _sample_pairs(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic pair sample: all pairs among the first vertices in BFS
    order plus seeded random source/target pairs across the whole ball."""
    head_a, head_b = np.triu_indices(min(HEAD_PAIR_COUNT, n), 1)
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, n, size=min(RANDOM_SOURCES, n))
    # one draw for all sources gives the same stream as one draw of targets per source
    targets = rng.integers(0, n, size=(srcs.size, RANDOM_TARGETS)).reshape(-1)
    srcs = np.repeat(srcs, RANDOM_TARGETS)
    keep = targets != srcs
    ia = np.concatenate([head_a, srcs[keep]]).astype(np.int64)
    return ia, np.concatenate([head_b, targets[keep]]).astype(np.int64)


def _check_images(codomain: CayleyBall, images) -> np.ndarray:
    """The image ids as an int64 array; ValueError naming the first domain
    vertex whose image is no vertex of the codomain, such as the -1 of
    ``CayleyBall.locate``."""
    images = np.asarray(images, dtype=np.int64)
    outside = np.flatnonzero((images < 0) | (images >= len(codomain)))
    if outside.size:
        raise ValueError(
            f"image of domain vertex {outside[0]} lies outside the codomain ball of radius {codomain.radius}"
        )
    return images


def _pair_distances(ball: CayleyBall, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    out = ball.pair_hops(ia, ib)
    if np.any(out < 0):
        raise FitError("sampled vertices are not connected inside the ball")
    return out


@dataclass
class FitReport(Record):
    n_pairs: int
    a: float
    b: int
    max_stretch: float
    max_compress: float


def fit_rough_constants(
    domain: CayleyBall,
    codomain: CayleyBall,
    images: np.ndarray,
    seed: int = 0,
) -> Tuple[float, int, FitReport]:
    """Smallest grid constants (b first, then a) valid on the sampled pairs.
    ValueError when an image is no vertex of the codomain."""
    images = np.asarray(images, dtype=np.int64)
    if images.shape != (len(domain),):
        raise ValueError("images must assign one codomain index per domain vertex")
    _check_images(codomain, images)
    ia, ib = _sample_pairs(len(domain), seed)
    d_x = _pair_distances(domain, ia, ib)
    d_y = _pair_distances(codomain, images[ia], images[ib])
    for b in B_GRID:
        for a in A_GRID:
            if np.all(d_y <= a * d_x + b) and np.all(d_x <= a * d_y + a * b):
                stretch = float(np.max(d_y / np.maximum(d_x, 1)))
                compress = float(np.max(d_x / np.maximum(d_y, 1)))
                return a, b, FitReport(int(ia.size), a, b, stretch, compress)
    raise FitError(
        f"no (a, b) with a <= {A_GRID[-1]}, b <= {B_GRID[-1]} fits the sampled pairs "
        f"(max stretch {np.max(d_y / np.maximum(d_x, 1)):.3g}, "
        f"max compression {np.max(d_x / np.maximum(d_y, 1)):.3g})"
    )


def coverage_radius(codomain: CayleyBall, images: np.ndarray) -> int:
    """Smallest c >= 1 with every vertex of depth <= R - c within distance c
    of the image set. ValueError when an image is no vertex of the codomain."""
    dist = codomain.hops(_check_images(codomain, images))
    radius = codomain.radius
    for c in range(1, radius + 1):
        inside = codomain.depth <= radius - c
        if not np.any(inside):
            return c
        reached = dist[inside]
        if np.all((reached >= 0) & (reached <= c)):
            return c
    raise FitError(f"image set does not come within {radius} of the codomain core")


def validate_rough_map(cmap: "CoarseMap", n_pairs: int = 1000, seed: int = 1) -> dict:
    """Re-check the fitted (a, b) on fresh seeded pairs; returns a count of
    violations of either inequality (0 means the constants held up)."""
    n = len(cmap.domain)
    rng = np.random.default_rng(seed)
    per_source = 25
    ia: List[int] = []
    ib: List[int] = []
    while len(ia) < n_pairs:
        s = int(rng.integers(0, n))
        for t in rng.integers(0, n, size=per_source):
            if int(t) != s and len(ia) < n_pairs:
                ia.append(s)
                ib.append(int(t))
    ia_arr = np.asarray(ia, dtype=np.int64)
    ib_arr = np.asarray(ib, dtype=np.int64)
    d_x = _pair_distances(cmap.domain, ia_arr, ib_arr)
    d_y = _pair_distances(cmap.codomain, cmap.images[ia_arr], cmap.images[ib_arr])
    bad_fwd = int(np.sum(d_y > cmap.a * d_x + cmap.b))
    bad_bwd = int(np.sum(d_x > cmap.a * d_y + cmap.a * cmap.b))
    return {
        "n_pairs": int(ia_arr.size),
        "violations_forward": bad_fwd,
        "violations_backward": bad_bwd,
        "a": cmap.a,
        "b": cmap.b,
    }


@dataclass
class CoarseMap:
    """A vertex map between two balls with fitted rough-isometry constants."""

    domain: CayleyBall
    codomain: CayleyBall
    images: np.ndarray
    a: float
    b: int
    c: int
    fit_report: Optional[FitReport] = dc_field(default=None, repr=False)
    _pull_cache: Optional[dict] = dc_field(default=None, repr=False)

    @classmethod
    def fit(cls, domain: CayleyBall, codomain: CayleyBall, seed: int = 0) -> "CoarseMap":
        """The inclusion of one group's ball in another ball of the same
        group, under any generating sets, with its fitted constants. It is
        looked up by array code, so neither ball is decoded. Other maps are
        built as ``CoarseMap(...)`` from their image ids, with the constants
        of ``fit_rough_constants`` and ``coverage_radius``. ValueError when
        the balls are over different groups, or when an image lies outside
        the codomain ball."""
        _check_same_group(domain, codomain)
        images = codomain.locate(domain.codes)
        a, b, report = fit_rough_constants(domain, codomain, images, seed)
        c = coverage_radius(codomain, images)
        return cls(domain, codomain, images, a, b, c, fit_report=report)


@dataclass
class InverseReport(Record):
    n_scope: int
    max_displacement_domain: int
    displacement_bound_domain: float
    max_displacement_codomain: int
    displacement_bound_codomain: int
    within_bounds: bool


def rough_inverse(cmap: CoarseMap, seed: int = 0) -> Tuple[CoarseMap, InverseReport]:
    """Nearest-preimage inverse on the codomain ball shrunk by the coverage
    radius; ties pick the earliest domain vertex in BFS order."""
    scope_radius = cmap.codomain.radius - cmap.c
    if scope_radius < 1:
        raise FitError(f"coverage radius {cmap.c} leaves no room inside radius {cmap.codomain.radius}")
    scope = cmap.codomain.prefix(scope_radius)
    n_scope = len(scope)

    # distance to the image set, and layer by layer the smallest domain
    # preimage label among the neighbors one step closer to it
    order = np.argsort(cmap.images, kind="stable")
    ys = cmap.images[order]
    first = np.ones(ys.size, dtype=bool)
    first[1:] = ys[1:] != ys[:-1]
    sources = ys[first]
    dist = cmap.codomain.hops(sources)
    label = np.full(len(cmap.codomain), -1, dtype=np.int64)
    label[sources] = order[first]  # smallest domain index mapping to each source
    full = cmap.codomain.full_adj()
    no_label = np.iinfo(np.int64).max
    for d in range(1, int(dist.max(initial=0)) + 1):
        layer = np.flatnonzero(dist == d)
        nbrs = full[layer]
        closer = (nbrs >= 0) & (dist[nbrs] == d - 1)
        label[layer] = np.where(closer, label[nbrs], no_label).min(axis=1)

    scope_dist = dist[:n_scope]
    scope_label = label[:n_scope]
    if np.any(scope_dist < 0):
        raise FitError("some scope vertices cannot reach the image set inside the ball")
    psi_images = scope_label.copy()

    a2, b2, report = fit_rough_constants(scope, cmap.domain, psi_images, seed)
    c2 = coverage_radius(cmap.domain, psi_images)
    psi = CoarseMap(scope, cmap.domain, psi_images, a2, b2, c2, fit_report=report)

    max_disp_cod = int(scope_dist.max(initial=0))
    in_scope = cmap.images < n_scope
    xs = np.flatnonzero(in_scope)
    x_back = psi_images[cmap.images[xs]]
    moved = x_back != xs
    max_disp_dom = 0
    if np.any(moved):
        max_disp_dom = int(_pair_distances(cmap.domain, x_back[moved], xs[moved]).max())
    bound_dom = cmap.a * (cmap.c + cmap.b)
    inv_report = InverseReport(
        n_scope=n_scope,
        max_displacement_domain=max_disp_dom,
        displacement_bound_domain=bound_dom,
        max_displacement_codomain=max_disp_cod,
        displacement_bound_codomain=cmap.c,
        within_bounds=bool(max_disp_dom <= bound_dom + 1e-9 and max_disp_cod <= cmap.c),
    )
    return psi, inv_report


def _check_same_group(x: CayleyBall, y: CayleyBall) -> None:
    """ValueError unless the two balls are over one group, so that their
    code rows can be looked up in each other."""
    if x.model.group_spec != y.model.group_spec:
        raise ValueError(f"{x.model.name} and {y.model.name} are not the same group")


def _pullback_data(cmap: CoarseMap) -> dict:
    """Shortest-path routing of domain arcs through the codomain, with the
    exact per-arc usage counts behind the energy inequality."""
    if cmap._pull_cache is not None:
        return cmap._pull_cache
    cod = cmap.codomain
    length_bound = int(ceil(cmap.a + cmap.b))
    collar = cod.radius - length_bound - 1
    src, dst = cmap.domain.arcs()
    ys, yd = cmap.images[src], cmap.images[dst]
    keep = (cod.depth[ys] <= collar) & (cod.depth[yd] <= collar) if collar >= 0 else np.zeros(ys.size, dtype=bool)
    ys_k, yd_k = ys[keep], yd[keep]

    # distinct image pairs: adjacent ones are one arc each, the rest are
    # routed along BFS parents
    pairs, counts = np.unique(ys_k * len(cod) + yd_k, return_counts=True)
    u, v = np.divmod(pairs, len(cod))
    moves = u != v
    u, v, counts = u[moves], v[moves], counts[moves]
    adjacent = (cod.full_adj()[u] == v[:, None]).any(axis=1)
    tails, heads, mults = [u[adjacent]], [v[adjacent]], [counts[adjacent]]
    max_len = int(adjacent.any())
    parents: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    far = ~adjacent
    for s, t, mult in zip(u[far].tolist(), v[far].tolist(), counts[far].tolist()):
        path = _route(cod, parents, s, t, "adjacent images are not connected inside the codomain ball")
        max_len = max(max_len, len(path) - 1)
        tails.append(np.array(path[:-1], dtype=np.int64))
        heads.append(np.array(path[1:], dtype=np.int64))
        mults.append(np.full(len(path) - 1, mult, dtype=np.int64))
    usage = np.zeros(cod.arcs()[0].size, dtype=np.int64)
    np.add.at(usage, _arc_ids(cod, np.concatenate(tails), np.concatenate(heads)), np.concatenate(mults))
    cmap._pull_cache = {
        "keep": keep,
        "ys": ys_k,
        "yd": yd_k,
        "usage": usage,
        "k": int(usage.max(initial=0)),
        "max_path_length": max_len,
        "collar_depth": collar,
    }
    return cmap._pull_cache


@dataclass
class PullbackReport(Record):
    p: float
    lhs: float
    rhs: float
    k: int
    prefactor: float
    codomain_energy: float
    collar_depth: int
    n_arcs: int
    max_path_length: int
    holds: bool


def pullback(f: ScalarField, cmap: CoarseMap, p: float) -> Tuple[ScalarField, PullbackReport]:
    """Compose f with the coarse map and check the energy comparison

        sum over collar-safe domain arcs of |f(phi dst) - f(phi src)|^p
            <= (a + b)^(p-1) * k * (codomain energy of f)

    where k is the exact maximal number of routed shortest paths through a
    single codomain arc. Arcs whose images sit within a + b + 1 of the
    codomain sphere are excluded so every routed path stays on counted arcs.
    """
    check_exponent(p)
    if f.ball is not cmap.codomain and not f.ball.compatible(cmap.codomain):
        raise ValueError("field must live on the codomain ball of the map")
    data = _pullback_data(cmap)
    pulled = ScalarField(cmap.domain, f.values[cmap.images])
    lhs = float(np.sum(np.abs(f.values[data["yd"]] - f.values[data["ys"]]) ** p))
    energy = seminorm_p(f, p) ** p
    prefactor = (cmap.a + cmap.b) ** (p - 1.0)
    rhs = prefactor * data["k"] * energy
    report = PullbackReport(
        p=p,
        lhs=lhs,
        rhs=rhs,
        k=data["k"],
        prefactor=prefactor,
        codomain_energy=energy,
        collar_depth=data["collar_depth"],
        n_arcs=int(data["ys"].size),
        max_path_length=data["max_path_length"],
        holds=bool(lhs <= rhs * (1.0 + 1e-12) + 1e-300),
    )
    return pulled, report


@dataclass
class CoarseIdentityRow(Record):
    radius: int
    count: int
    max_deviation: float


@dataclass
class CoarseIdentityReport(Record):
    p: float
    displacement: int
    k: int
    lhs: float
    rhs: float
    n_scoped: int
    rows: List[CoarseIdentityRow]
    holds: bool


def check_coarse_identity(f: ScalarField, cmap: CoarseMap, inverse: CoarseMap, p: float) -> CoarseIdentityReport:
    """Deviation of f from its roundtrip f(psi(phi x)) with the matching
    power-sum bound: lhs <= n^(p-1) * k * energy(f), n the largest roundtrip
    displacement and k the exact arc usage count of the displacement paths."""
    check_exponent(p)
    if f.ball is not cmap.domain and not f.ball.compatible(cmap.domain):
        raise ValueError("field must live on the domain ball of the map")
    dom = cmap.domain
    n_scope = len(inverse.domain)
    xs = np.flatnonzero(cmap.images < n_scope)
    back = inverse.images[cmap.images[xs]]

    # displacement paths inside the domain ball, grouped by the return point
    moved = back != xs
    paths: Dict[Tuple[int, int], List[int]] = {}
    max_disp = 0
    if np.any(moved):
        parents: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for s, t in zip(back[moved].tolist(), xs[moved].tolist()):
            path = _route(dom, parents, s, t, "roundtrip endpoints are not connected inside the domain ball")
            paths[(s, t)] = path
            max_disp = max(max_disp, len(path) - 1)

    scope_depth = dom.radius - max_disp - 1
    scoped_mask = dom.depth[xs] <= scope_depth
    scoped = xs[scoped_mask]
    scoped_back = back[scoped_mask]

    dev = np.abs(f.values[scoped_back] - f.values[scoped])
    lhs = float(np.sum(dev ** p))

    steps = [paths[(s, t)] for s, t in zip(scoped_back.tolist(), scoped.tolist()) if s != t]
    tails = np.array([z for path in steps for z in path[:-1]], dtype=np.int64)
    heads = np.array([w for path in steps for w in path[1:]], dtype=np.int64)
    usage = np.bincount(_arc_ids(dom, tails, heads), minlength=dom.arcs()[0].size)
    k = int(usage.max(initial=0))
    rhs = (max_disp ** (p - 1.0)) * k * (seminorm_p(f, p) ** p) if max_disp > 0 else 0.0

    rows = []
    for r in range(0, int(dom.depth[scoped].max(initial=0)) + 1):
        at_r = dom.depth[scoped] == r
        if np.any(at_r):
            rows.append(CoarseIdentityRow(r, int(np.sum(at_r)), float(dev[at_r].max())))
    return CoarseIdentityReport(
        p=p,
        displacement=max_disp,
        k=k,
        lhs=lhs,
        rhs=rhs,
        n_scoped=int(scoped.size),
        rows=rows,
        holds=bool(lhs <= rhs * (1.0 + 1e-12) + 1e-300),
    )


@dataclass
class TransportReport(Record):
    model: str
    p: float
    radii: List[int]
    royden: RoydenReport
    h_energy: float


def transport_harmonic(
    field: ScalarField,
    pull_map: CoarseMap,
    p: float,
    radii: Sequence[int],
    config: Optional[SolverConfig] = None,
) -> Tuple[ScalarField, TransportReport]:
    """Move a (near-)harmonic field to the other group along a rough inverse.

    ``pull_map`` goes from the target ball into the group carrying ``field``;
    the composite field value at y is field(pull_map(y)). The harmonic part
    of its Royden split at the scheduled radii is the transported field;
    its balls are prefixes of the map's domain ball.
    """
    check_exponent(p)
    radii = [int(r) for r in radii]
    if radii and max(radii) > pull_map.domain.radius:
        raise ValueError(
            f"royden radii go up to {max(radii)} but the transported field lives on radius {pull_map.domain.radius}"
        )
    _check_same_group(pull_map.codomain, field.ball)
    ids = field.ball.locate(pull_map.codomain.codes[pull_map.images])
    if np.any(ids < 0):
        raise ValueError("field does not cover the image of the transport map")
    pulled = ScalarField(pull_map.domain, field.values[ids])
    _, h, royden_report = royden_decompose(pull_map.domain.model, pulled, p, radii, config)
    report = TransportReport(
        model=pull_map.domain.model.name,
        p=p,
        radii=radii,
        royden=royden_report,
        h_energy=royden_report.h_energy,
    )
    return h, report
