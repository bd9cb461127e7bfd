"""Rough isometries between Cayley balls and energy transport along them.

A coarse map phi between two balls is stored with three fitted constants:
(a, b) such that on sampled vertex pairs

    d_Y(phi x, phi x') <= a d_X(x, x') + b      (no large stretching)
    d_X(x, x')  <= a d_Y(phi x, phi x') + a b   (no large collapsing)

and a coverage radius c >= 1 such that every codomain vertex of depth at
most R_Y - c lies within distance c of the image set. The fit scans b = 0..8
first and a = 1.0, 1.25, ..., 4.0 second, returning the first pair that
clears every sampled pair, so the reported constants favour small additive
slack. Pair distances are measured inside the ball graphs; for the stock
families these agree with the word metric because geodesics between ball
vertices can be routed through the ball, and for extended generating sets
they are a safe overestimate on the stretching side.

On top of the fitted maps sit: a nearest-preimage rough inverse, the energy
pullback inequality with an exactly counted arc-multiplicity constant, a
coarse-identity deviation check, and transport of a p-harmonic field to the
other group by pulling back along the rough inverse and keeping the
harmonic part of its Royden split.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .dirichlet import SolverConfig
from .energy import ScalarField, check_exponent, seminorm_p
from .exhaustion import RoydenReport, royden_decompose
from .groups import CayleyBall, Element, build_group

A_GRID = tuple(1.0 + 0.25 * i for i in range(13))  # 1.0 .. 4.0
B_GRID = tuple(range(0, 9))
HEAD_PAIR_COUNT = 50
RANDOM_SOURCES = 64
RANDOM_TARGETS = 16
SOURCE_BLOCK = 16


class FitError(ValueError):
    """No grid constants (or no coverage radius) satisfy the sampled data."""


def _hops(dist: np.ndarray) -> np.ndarray:
    """csgraph distances as integers, -1 where unreached."""
    return np.where(np.isfinite(dist), dist, -1).astype(np.int64)


def _bfs_parents(ball: CayleyBall, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distances and deterministic BFS parents from one source.

    The parent of a vertex is its smallest-index neighbor one step closer to
    the source, so shortest paths are reproducible across runs.
    """
    dist = _hops(dijkstra(ball.csr(), indices=source, unweighted=True))
    full = ball.full_adj()
    n = len(ball)
    closer = (full >= 0) & (dist[full] == dist[:, None] - 1) & (dist[:, None] > 0)
    parent = np.where(closer, full, n).min(axis=1)
    parent[parent == n] = -1
    return dist, parent


def _sample_pairs(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic pair sample: all pairs among the first vertices in BFS
    order plus seeded random source/target pairs across the whole ball."""
    head = min(HEAD_PAIR_COUNT, n)
    ia: List[int] = []
    ib: List[int] = []
    for i in range(head):
        for j in range(i + 1, head):
            ia.append(i)
            ib.append(j)
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, n, size=min(RANDOM_SOURCES, n))
    for s in srcs:
        for t in rng.integers(0, n, size=RANDOM_TARGETS):
            if int(t) != int(s):
                ia.append(int(s))
                ib.append(int(t))
    return np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)


def _pair_distances(ball: CayleyBall, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    sources, row = np.unique(ia, return_inverse=True)
    out = np.empty(ia.size)
    # a block of sources at a time bounds the distance matrix held in memory
    for lo in range(0, sources.size, SOURCE_BLOCK):
        pick = (row >= lo) & (row < lo + SOURCE_BLOCK)
        dist = dijkstra(ball.csr(), indices=sources[lo : lo + SOURCE_BLOCK], unweighted=True)
        out[pick] = dist[row[pick] - lo, ib[pick]]
    if not np.all(np.isfinite(out)):
        raise FitError("sampled vertices are not connected inside the ball")
    return out.astype(np.int64)


@dataclass
class FitReport:
    n_pairs: int
    a: float
    b: int
    max_stretch: float
    max_compress: float

    def to_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "a": self.a,
            "b": self.b,
            "max_stretch": self.max_stretch,
            "max_compress": self.max_compress,
        }


def fit_rough_constants(
    domain: CayleyBall,
    codomain: CayleyBall,
    images: np.ndarray,
    seed: int = 0,
) -> Tuple[float, int, FitReport]:
    """Smallest grid constants (b first, then a) valid on the sampled pairs."""
    images = np.asarray(images, dtype=np.int64)
    if images.shape != (len(domain),):
        raise ValueError("images must assign one codomain index per domain vertex")
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
    of the image set."""
    sources = np.unique(np.asarray(images, dtype=np.int64))
    dist = _hops(dijkstra(codomain.csr(), indices=sources, unweighted=True, min_only=True))
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
    def fit(cls, domain: CayleyBall, codomain: CayleyBall, fn: Callable[[Element], Element], seed: int = 0) -> "CoarseMap":
        images = np.empty(len(domain), dtype=np.int64)
        for i, g in enumerate(domain.vertices):
            y = fn(g)
            if y not in codomain.index:
                raise ValueError(
                    f"image of domain vertex {i} lies outside the codomain ball of radius {codomain.radius}"
                )
            images[i] = codomain.index[y]
        a, b, report = fit_rough_constants(domain, codomain, images, seed)
        c = coverage_radius(codomain, images)
        return cls(domain, codomain, images, a, b, c, fit_report=report)

    def map_element(self, g: Element) -> Element:
        return self.codomain.vertices[int(self.images[self.domain.index[g]])]

    def to_dict(self, include_images: bool = False) -> dict:
        out = {
            "domain": {"group": self.domain.model.spec.to_dict(), "radius": self.domain.radius},
            "codomain": {"group": self.codomain.model.spec.to_dict(), "radius": self.codomain.radius},
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "n_vertices": len(self.domain),
        }
        if include_images:
            to_obj = self.codomain.model.element_to_obj
            out["images"] = [to_obj(self.codomain.vertices[int(i)]) for i in self.images]
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "CoarseMap":
        dom_model = build_group(obj["domain"]["group"])
        cod_model = build_group(obj["codomain"]["group"])
        domain = dom_model.ball(int(obj["domain"]["radius"]))
        codomain = cod_model.ball(int(obj["codomain"]["radius"]))
        if "images" not in obj:
            raise ValueError("serialized coarse map lacks the image list")
        images = np.array(
            [codomain.index[cod_model.element_from_obj(o)] for o in obj["images"]], dtype=np.int64
        )
        if images.shape != (len(domain),):
            raise ValueError("image list length does not match the domain ball")
        return cls(domain, codomain, images, float(obj["a"]), int(obj["b"]), int(obj["c"]))


@dataclass
class InverseReport:
    n_scope: int
    max_displacement_domain: int
    displacement_bound_domain: float
    max_displacement_codomain: int
    displacement_bound_codomain: int
    within_bounds: bool

    def to_dict(self) -> dict:
        return {
            "n_scope": self.n_scope,
            "max_displacement_domain": self.max_displacement_domain,
            "displacement_bound_domain": self.displacement_bound_domain,
            "max_displacement_codomain": self.max_displacement_codomain,
            "displacement_bound_codomain": self.displacement_bound_codomain,
            "within_bounds": self.within_bounds,
        }


def rough_inverse(cmap: CoarseMap, seed: int = 0) -> Tuple[CoarseMap, InverseReport]:
    """Nearest-preimage inverse on the codomain ball shrunk by the coverage
    radius; ties pick the earliest domain vertex in BFS order."""
    scope_radius = cmap.codomain.radius - cmap.c
    if scope_radius < 1:
        raise FitError(f"coverage radius {cmap.c} leaves no room inside radius {cmap.codomain.radius}")
    scope = cmap.codomain.model.ball(scope_radius)
    n_scope = len(scope)

    # distance to the image set, and layer by layer the smallest domain
    # preimage label among the neighbors one step closer to it
    order = np.argsort(cmap.images, kind="stable")
    ys = cmap.images[order]
    first = np.ones(ys.size, dtype=bool)
    first[1:] = ys[1:] != ys[:-1]
    sources = ys[first]
    dist = _hops(dijkstra(cmap.codomain.csr(), indices=sources, unweighted=True, min_only=True))
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

    cod_src, cod_dst = cod.arcs()
    arc_id = {(int(u), int(v)): i for i, (u, v) in enumerate(zip(cod_src, cod_dst))}
    usage = np.zeros(cod_src.size, dtype=np.int64)
    full = cod.full_adj()

    key = ys_k * len(cod) + yd_k
    uniq, counts = np.unique(key, return_counts=True)
    parents_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    max_len = 0
    for pair_key, mult in zip(uniq, counts):
        u = int(pair_key // len(cod))
        v = int(pair_key % len(cod))
        if u == v:
            continue
        if v in full[u]:
            usage[arc_id[(u, v)]] += mult
            max_len = max(max_len, 1)
            continue
        if u not in parents_cache:
            parents_cache[u] = _bfs_parents(cod, u)
        dist, parent = parents_cache[u]
        if dist[v] < 0:
            raise FitError("adjacent images are not connected inside the codomain ball")
        path = [v]
        while path[-1] != u:
            path.append(int(parent[path[-1]]))
        path.reverse()
        max_len = max(max_len, len(path) - 1)
        for z, w in zip(path, path[1:]):
            usage[arc_id[(z, w)]] += mult
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
class PullbackReport:
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

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "k": self.k,
            "prefactor": self.prefactor,
            "codomain_energy": self.codomain_energy,
            "collar_depth": self.collar_depth,
            "n_arcs": self.n_arcs,
            "max_path_length": self.max_path_length,
            "holds": self.holds,
        }


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
class CoarseIdentityRow:
    radius: int
    count: int
    max_deviation: float

    def to_dict(self) -> dict:
        return {"radius": self.radius, "count": self.count, "max_deviation": self.max_deviation}


@dataclass
class CoarseIdentityReport:
    p: float
    displacement: int
    k: int
    lhs: float
    rhs: float
    n_scoped: int
    rows: List[CoarseIdentityRow]
    holds: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "displacement": self.displacement,
            "k": self.k,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "n_scoped": self.n_scoped,
            "rows": [r.to_dict() for r in self.rows],
            "holds": self.holds,
        }


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
        for s, t in zip(back[moved], xs[moved]):
            s, t = int(s), int(t)
            if s not in parents:
                parents[s] = _bfs_parents(dom, s)
            dist, par = parents[s]
            if dist[t] < 0:
                raise FitError("roundtrip endpoints are not connected inside the domain ball")
            path = [t]
            while path[-1] != s:
                path.append(int(par[path[-1]]))
            path.reverse()
            paths[(s, t)] = path
            max_disp = max(max_disp, len(path) - 1)

    scope_depth = dom.radius - max_disp - 1
    scoped_mask = dom.depth[xs] <= scope_depth
    scoped = xs[scoped_mask]
    scoped_back = back[scoped_mask]

    dev = np.abs(f.values[scoped_back] - f.values[scoped])
    lhs = float(np.sum(dev ** p))

    dom_src, dom_dst = dom.arcs()
    arc_id = {(int(u), int(v)): i for i, (u, v) in enumerate(zip(dom_src, dom_dst))}
    usage = np.zeros(dom_src.size, dtype=np.int64)
    for s, t in zip(scoped_back, scoped):
        s, t = int(s), int(t)
        if s == t:
            continue
        for z, w in zip(paths[(s, t)], paths[(s, t)][1:]):
            usage[arc_id[(z, w)]] += 1
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
class TransportReport:
    model_name: str
    p: float
    radii: List[int]
    royden: RoydenReport
    h_energy: float

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "p": self.p,
            "radii": self.radii,
            "royden": self.royden.to_dict(),
            "h_energy": self.h_energy,
        }


def transport_harmonic(
    field: ScalarField,
    pull_map: CoarseMap,
    p: float,
    radii: Sequence[int],
    config: Optional[SolverConfig] = None,
    budget: Optional[int] = None,
) -> Tuple[ScalarField, TransportReport]:
    """Move a (near-)harmonic field to the other group along a rough inverse.

    ``pull_map`` goes from the target ball into the group carrying ``field``;
    the composite field value at y is field(pull_map(y)). The harmonic part
    of its Royden split at the scheduled radii is the transported field.
    """
    check_exponent(p)
    radii = [int(r) for r in radii]
    if radii and max(radii) > pull_map.domain.radius:
        raise ValueError(
            f"royden radii go up to {max(radii)} but the transported field lives on radius {pull_map.domain.radius}"
        )
    values = np.empty(len(pull_map.domain))
    for i in range(len(pull_map.domain)):
        y = pull_map.codomain.vertices[int(pull_map.images[i])]
        try:
            values[i] = field.value_at(y)
        except KeyError:
            raise ValueError("field does not cover the image of the transport map") from None
    pulled = ScalarField(pull_map.domain, values)
    _, h, royden_report = royden_decompose(pull_map.domain.model, pulled, p, radii, config, budget)
    report = TransportReport(
        model_name=pull_map.domain.model.name,
        p=p,
        radii=radii,
        royden=royden_report,
        h_energy=royden_report.h_energy,
    )
    return h, report
