"""Coarse maps between balls: constant fitting, inverses, energy
comparison under pullback, and moving near-harmonic fields across.

The running scenario is the same group with an enlarged generating set,
where the word metrics are 2-bi-Lipschitz and the identity map is the
coarse equivalence.
"""

import numpy as np
import pytest

from pharmonic import (
    CayleyBall,
    CoarseMap,
    FitError,
    ScalarField,
    boundary_witness,
    build_group,
    check_coarse_identity,
    coverage_radius,
    fit_rough_constants,
    pullback,
    rough_inverse,
    seminorm_p,
    transport_harmonic,
    validate_rough_map,
)
from pharmonic.cli import main
from pharmonic.groups import GroupModel
from pharmonic.roughiso import (
    HEAD_PAIR_COUNT,
    RANDOM_SOURCES,
    RANDOM_TARGETS,
    _arc_ids,
    _bfs_parents,
    _path_usage,
    _pullback_data,
    _sample_pairs,
)

F2 = {"family": "free", "params": {"k": 2}}


@pytest.fixture(scope="module")
def ext_model():
    return build_group({"family": "free", "params": {"k": 2, "extra_generators": [["a", "b"]]}})


def scenario_map(f2_model, ext_model, radius, seed=0):
    return CoarseMap.fit(f2_model.ball(radius), ext_model.ball(radius), seed)


def with_extra(spec, word):
    return build_group({"family": spec["family"], "params": {**spec["params"], "extra_generators": [word]}})


# ---------------------------------------------------------------------------
# fitting


def loop_sample_pairs(n, seed):
    """The pair sample drawn one source at a time, as a plain loop."""
    ia, ib = [], []
    for i in range(min(HEAD_PAIR_COUNT, n)):
        for j in range(i + 1, min(HEAD_PAIR_COUNT, n)):
            ia.append(i)
            ib.append(j)
    rng = np.random.default_rng(seed)
    for s in rng.integers(0, n, size=min(RANDOM_SOURCES, n)):
        for t in rng.integers(0, n, size=RANDOM_TARGETS):
            if t != s:
                ia.append(int(s))
                ib.append(int(t))
    return ia, ib


@pytest.mark.parametrize("n", [1, 2, 10, 50, 60, 64, 65, 221, 331, 850, 1272, 4373, 32767, 118097])
def test_sample_pairs_equal_the_per_source_loop(n):
    for seed in range(4):
        ia, ib = _sample_pairs(n, seed)
        assert ia.dtype == ib.dtype == np.int64
        assert (ia.tolist(), ib.tolist()) == loop_sample_pairs(n, seed)


def test_identity_self_fit(f2_model):
    ball = f2_model.ball(4)
    cmap = CoarseMap.fit(ball, ball)
    assert (cmap.a, cmap.b, cmap.c) == (1.0, 0, 1)
    assert cmap.fit_report.max_stretch <= 1.0


def test_generator_change_fit(f2_model, ext_model):
    cmap = scenario_map(f2_model, ext_model, radius=4)
    assert (cmap.a, cmap.b, cmap.c) == (2.0, 0, 1)
    # seeding the pair sample differently cannot change an exact 2-Lipschitz pair
    again = scenario_map(f2_model, ext_model, radius=4, seed=5)
    assert (again.a, again.b) == (2.0, 0)


def test_generator_change_survives_fresh_pairs(f2_model, ext_model):
    cmap = scenario_map(f2_model, ext_model, radius=5)
    result = validate_rough_map(cmap, n_pairs=1000, seed=1)
    assert result["n_pairs"] == 1000
    assert result["violations_forward"] == 0
    assert result["violations_backward"] == 0


def test_coverage_grows_with_radius(f2_model, ext_model):
    # the shortcut generator halves some distances, so ball images thin
    # out near the sphere: by radius 7 the uncovered collar is 2 deep
    cmap = scenario_map(f2_model, ext_model, radius=7)
    assert (cmap.a, cmap.b) == (2.0, 0)
    assert cmap.c == 2


def test_fit_rejects_collapsing_map(z_model):
    ball = z_model.ball(40)
    # every vertex to the identity, vertex 0
    with pytest.raises(FitError):
        fit_rough_constants(ball, ball, np.zeros(len(ball), dtype=np.int64))


def test_fit_rejects_images_outside_codomain(z_model):
    # Z + [x1, x1] reaches 4 in two steps: the stock ball of radius 6 sticks out
    big, small = z_model.ball(6), with_extra({"family": "free_abelian", "params": {"d": 1}}, ["x1", "x1"]).ball(2)
    with pytest.raises(ValueError, match="outside the codomain ball"):
        CoarseMap.fit(big, small)
    assert CoarseMap.fit(z_model.ball(4), small).images.min() >= 0


def test_doubling_map_on_z(z_model):
    domain = z_model.ball(8)
    codomain = z_model.ball(16)
    # Z code rows are the coordinates: doubling them doubles the element
    images = codomain.locate(2 * domain.codes)
    assert images.min() >= 0
    a, b, report = fit_rough_constants(domain, codomain, images)
    cmap = CoarseMap(domain, codomain, images, a, b, coverage_radius(codomain, images), fit_report=report)
    assert cmap.a == 2.0
    assert cmap.b == 0
    # only even points are hit, so coverage needs one step
    assert cmap.c == 1
    assert validate_rough_map(cmap, n_pairs=400, seed=3)["violations_forward"] == 0


# ---------------------------------------------------------------------------
# inclusions looked up by array code


INCLUSIONS = [
    ({"family": "free_abelian", "params": {"d": 2}}, ["x1", "x2"], 6),
    (F2, ["a", "b"], 4),
    ({"family": "free_product_z2", "params": {"m": 3}}, ["s1", "s2"], 5),
    ({"family": "lamplighter", "params": {}}, ["t", "a"], 5),
]


@pytest.mark.parametrize("spec, word, radius", INCLUSIONS)
def test_fit_by_code_equals_the_element_loop(spec, word, radius):
    stock, extended = build_group(spec), with_extra(spec, word)
    # the stock ball in the extended one, and the extended ball of half the
    # radius in the stock one (its rows are wider than the stock ball's)
    for domain, codomain in ((stock.ball(radius), extended.ball(radius)),
                             (extended.ball(radius // 2), stock.ball(radius))):
        by_code = CoarseMap.fit(domain, codomain)
        by_element = np.array([codomain.index[g] for g in domain.vertices])
        assert np.array_equal(by_code.images, by_element)
        a, b, _ = fit_rough_constants(domain, codomain, by_element)
        assert (by_code.a, by_code.b, by_code.c) == (a, b, coverage_radius(codomain, by_element))


def test_fit_by_code_names_the_first_vertex_outside(z_model):
    big, small = z_model.ball(6), z_model.ball(3)
    with pytest.raises(ValueError) as err:
        CoarseMap.fit(big, small)
    assert str(err.value) == "image of domain vertex 7 lies outside the codomain ball of radius 3"


def test_constants_and_coverage_name_the_first_image_outside(z_model):
    # -1 is locate's miss marker; an id past the codomain is no vertex either
    big, small = z_model.ball(6), z_model.ball(3)
    want = "image of domain vertex 7 lies outside the codomain ball of radius 3"
    for images in (small.locate(big.codes), np.minimum(np.arange(len(big)), 7)):
        with pytest.raises(ValueError) as err:
            fit_rough_constants(big, small, images)
        assert str(err.value) == want
        with pytest.raises(ValueError) as err:
            coverage_radius(small, images)
        assert str(err.value) == want


def test_fit_by_code_refuses_balls_of_another_group():
    # Z^2 and lamplighter rows are both two int64 columns, and F_2 rows are F_3 rows
    z2 = build_group({"family": "free_abelian", "params": {"d": 2}}).ball(3)
    lamp = with_extra({"family": "lamplighter", "params": {}}, ["t", "a"]).ball(3)
    f2 = build_group(F2).ball(3)
    f3 = build_group({"family": "free", "params": {"k": 3}}).ball(3)
    zz2 = build_group({"family": "free_product_z2", "params": {"m": 3}}).ball(3)
    for domain, codomain in ((z2, lamp), (lamp, z2), (f2, f3), (f2, zz2)):
        with pytest.raises(ValueError, match="not the same group"):
            CoarseMap.fit(domain, codomain)


def test_coverage_radius_identity(f2_model):
    ball = f2_model.ball(4)
    images = np.arange(len(ball))
    assert coverage_radius(ball, images) == 1


# ---------------------------------------------------------------------------
# rough inverses


def test_inverse_of_identity_is_identity(f2_model):
    ball = f2_model.ball(5)
    cmap = CoarseMap.fit(ball, ball)
    psi, report = rough_inverse(cmap)
    assert report.max_displacement_domain == 0
    assert report.max_displacement_codomain == 0
    assert report.within_bounds
    scope = psi.domain
    for i in range(len(scope)):
        assert psi.codomain.vertices[psi.images[i]] == scope.vertices[i]


def test_inverse_of_generator_change(f2_model, ext_model):
    cmap = scenario_map(f2_model, ext_model, radius=6)
    psi, report = rough_inverse(cmap)
    assert report.within_bounds
    assert report.max_displacement_domain <= cmap.a * (cmap.c + cmap.b)
    assert report.max_displacement_codomain <= cmap.c
    # the inverse is itself a legal coarse map
    assert psi.fit_report.n_pairs > 0
    assert psi.domain.radius == cmap.codomain.radius - cmap.c


def test_inverse_determinism(f2_model, ext_model):
    cmap = scenario_map(f2_model, ext_model, radius=5)
    psi1, _ = rough_inverse(cmap)
    psi2, _ = rough_inverse(cmap)
    assert np.array_equal(psi1.images, psi2.images)


@pytest.mark.parametrize("spec, word, radius", INCLUSIONS)
def test_inverse_of_a_map_built_by_hand_equals_that_of_the_fit(spec, word, radius, monkeypatch):
    """The fit measures the codomain's distances to the image set once, for
    its coverage radius, and its rough inverse reuses them; a map built by
    hand, with no such distances, gets the same inverse and report."""
    domain, codomain = build_group(spec).ball(radius), with_extra(spec, word).ball(radius)
    searched = []
    hops = CayleyBall.hops
    monkeypatch.setattr(CayleyBall, "hops", lambda ball, sources: searched.append(ball) or hops(ball, sources))
    fitted = CoarseMap.fit(domain, codomain)
    psi, report = rough_inverse(fitted)
    assert sum(ball is codomain for ball in searched) == 1
    by_hand = CoarseMap(domain, codomain, fitted.images.copy(), fitted.a, fitted.b,
                        coverage_radius(codomain, fitted.images), fit_report=fitted.fit_report)
    assert by_hand.c == fitted.c
    psi_hand, report_hand = rough_inverse(by_hand)
    assert report_hand == report
    assert np.array_equal(psi_hand.images, psi.images)
    assert psi_hand.domain.radius == psi.domain.radius and psi_hand.codomain is psi.codomain
    assert (psi_hand.a, psi_hand.b, psi_hand.c, psi_hand.fit_report) == (psi.a, psi.b, psi.c, psi.fit_report)


# ---------------------------------------------------------------------------
# pullback energy comparison


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pullback_bound_on_random_fields(f2_model, ext_model, p):
    cmap = scenario_map(f2_model, ext_model, radius=5)
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = ScalarField(cmap.codomain, rng.standard_normal(len(cmap.codomain)))
        pulled, report = pullback(f, cmap, p)
        assert report.holds
        assert report.lhs > 0.0
        assert report.k >= 1
        np.testing.assert_array_equal(pulled.values, f.values[cmap.images])


def test_pullback_identity_is_tight(f2_model):
    ball = f2_model.ball(5)
    cmap = CoarseMap.fit(ball, ball)
    rng = np.random.default_rng(9)
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    pulled, report = pullback(f, cmap, 2.0)
    # identity routes every arc through itself exactly once
    assert report.k == 1
    assert report.max_path_length <= 1
    assert report.lhs <= report.codomain_energy + 1e-12
    np.testing.assert_array_equal(pulled.values, f.values)


def dict_arc_usage(ball, pairs):
    """Arc usage of routed image pairs, counted one pair at a time through a
    (src, dst) -> arc dict, which keeps the last of parallel arcs."""
    src, dst = ball.arcs()
    arc_id = dict(zip(zip(src.tolist(), dst.tolist()), range(src.size)))
    full = ball.full_adj()
    usage = np.zeros(src.size, dtype=np.int64)
    parents = {}
    for u, v in pairs:
        if u == v:
            continue
        if v in full[u]:
            usage[arc_id[(u, v)]] += 1
            continue
        if u not in parents:
            parents[u] = _bfs_parents(ball, u)[1]
        path = [v]
        while path[-1] != u:
            path.append(int(parents[u][path[-1]]))
        path.reverse()
        for z, w in zip(path, path[1:]):
            usage[arc_id[(z, w)]] += 1
    return usage


def test_arc_ids_match_the_last_entry_of_a_dict_of_arcs():
    # F_2 + [a] has parallel arcs: a and u1 lead to the same vertex
    ball = with_extra(F2, ["a"]).ball(3)
    src, dst = ball.arcs()
    arc_id = dict(zip(zip(src.tolist(), dst.tolist()), range(src.size)))
    assert len(arc_id) < src.size
    assert _arc_ids(ball, src, dst).tolist() == [arc_id[arc] for arc in zip(src.tolist(), dst.tolist())]
    with pytest.raises(FitError):
        _arc_ids(ball, src[:1], src[:1])


@pytest.mark.parametrize("spec, word, radius", [
    (F2, ["a"], 7),
    ({"family": "free_abelian", "params": {"d": 2}}, ["x1", "x2"], 11),
    ({"family": "lamplighter", "params": {}}, ["t", "a"], 7),
])
def test_path_usage_equals_a_dict_of_arcs_on_random_pairs(spec, word, radius):
    # one-way pairs with multiplicities, unlike the arc pairs of a pullback:
    # a path counted backwards or a multiplicity dropped on the climb shows
    ball = with_extra(spec, word).ball(radius)
    # every shortest path between vertices of depth <= (R - 1) / 2 stays
    # on interior vertices, so on counted arcs
    core = np.flatnonzero(ball.depth <= (radius - 1) // 2)
    rng = np.random.default_rng(13)
    tails = rng.choice(core, size=300)
    heads = np.where(np.arange(300) % 3 == 0, tails, rng.choice(core, size=300))
    heads[1::3] = ball.full_adj()[tails[1::3], 0]
    mults = rng.integers(1, 4, size=300)
    usage, longest = _path_usage(ball, tails, heads, mults)
    pairs = [(s, t) for s, t, m in zip(tails.tolist(), heads.tolist(), mults.tolist()) for _ in range(m)]
    assert np.array_equal(usage, dict_arc_usage(ball, pairs))
    assert longest == max(int(ball.hops(s)[t]) for s, t in pairs) >= 3


@pytest.mark.parametrize("word, radius", [(["a", "b"], 7), (["a"], 5)])
def test_pullback_usage_equals_a_dict_of_arcs(f2_model, word, radius):
    cmap = CoarseMap.fit(f2_model.ball(radius), with_extra(F2, word).ball(radius))
    data = _pullback_data(cmap)
    want = dict_arc_usage(cmap.codomain, zip(data["ys"].tolist(), data["yd"].tolist()))
    assert want.any()
    assert np.array_equal(data["usage"], want)
    assert data["k"] == want.max()


@pytest.mark.parametrize("spec, word, radius", [
    ({"family": "free_abelian", "params": {"d": 2}}, ["x1", "x2"], 8),
    ({"family": "lamplighter", "params": {}}, ["t", "a"], 6),
])
def test_pullback_usage_along_a_rough_inverse_equals_a_dict_of_arcs(spec, word, radius):
    # the rough inverse of an inclusion sends some adjacent vertices to images
    # two or more steps apart, so those arcs are routed along BFS parents
    psi, _ = rough_inverse(CoarseMap.fit(build_group(spec).ball(radius), with_extra(spec, word).ball(radius)))
    data = _pullback_data(psi)
    assert data["max_path_length"] >= 2
    want = dict_arc_usage(psi.codomain, zip(data["ys"].tolist(), data["yd"].tolist()))
    assert np.array_equal(data["usage"], want)
    assert data["k"] == want.max()


def test_readme_roughiso_decodes_no_extended_ball(tmp_path, monkeypatch):
    built = []
    ball = GroupModel.ball

    def recording_ball(self, n, budget=None):
        built.append(ball(self, n, budget))
        return built[-1]

    monkeypatch.setattr(GroupModel, "ball", recording_ball)
    args = ["roughiso", "--group", "free:k=2", "--radius", "7", "--extra", "a,b", "--p", "2.0"]
    assert main(args + ["--out", str(tmp_path / "iso.json")]) == 0
    extended = [b for b in built if "extra_generators" in b.model.spec.params]
    assert 32767 in [len(b) for b in extended]
    assert all(b._vertices is None and b._index is None for b in extended)


def test_pullback_requires_codomain_field(f2_model, ext_model):
    cmap = scenario_map(f2_model, ext_model, radius=4)
    wrong = ScalarField.constant(cmap.domain, 1.0)
    with pytest.raises(ValueError):
        pullback(wrong, cmap, 2.0)


def test_coarse_identity_of_identity_map(f2_model):
    ball = f2_model.ball(5)
    cmap = CoarseMap.fit(ball, ball)
    psi, _ = rough_inverse(cmap)
    rng = np.random.default_rng(10)
    f = ScalarField(ball, rng.standard_normal(len(ball)))
    report = check_coarse_identity(f, cmap, psi, 2.0)
    assert report.displacement == 0
    assert report.lhs == 0.0
    assert report.holds


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_coarse_identity_of_generator_change(f2_model, ext_model, p):
    cmap = scenario_map(f2_model, ext_model, radius=6)
    psi, _ = rough_inverse(cmap)
    rng = np.random.default_rng(11)
    f = ScalarField(cmap.domain, rng.standard_normal(len(cmap.domain)))
    report = check_coarse_identity(f, cmap, psi, p)
    assert report.holds
    assert report.n_scoped > 0
    assert report.rows  # per-radius deviations are reported


def loop_coarse_identity(f, cmap, inverse, p):
    """(displacement, k, n_scoped, lhs, rhs) of ``check_coarse_identity``
    and the longest scoped route, one roundtrip pair at a time."""
    dom = cmap.domain
    pairs = [(int(inverse.images[y]), x) for x, y in enumerate(cmap.images.tolist()) if y < len(inverse.domain)]
    hops = {s: dom.hops(s) for s, t in pairs if s != t}
    disp = max((int(hops[s][t]) for s, t in pairs if s != t), default=0)
    scoped = [(s, t) for s, t in pairs if dom.depth[t] <= dom.radius - disp - 1]
    lhs = float(np.sum(np.array([abs(f.values[s] - f.values[t]) for s, t in scoped]) ** p))
    usage = dict_arc_usage(dom, scoped)
    k = int(usage.max(initial=0))
    rhs = disp ** (p - 1.0) * k * seminorm_p(f, p) ** p if disp > 0 else 0.0
    longest = max((int(hops[s][t]) for s, t in scoped if s != t), default=0)
    return (disp, k, len(scoped), lhs, rhs), longest


@pytest.mark.parametrize("spec, radius", [
    (F2, 5),
    ({"family": "free_abelian", "params": {"d": 2}}, 8),
    ({"family": "lamplighter", "params": {}}, 6),
])
def test_coarse_identity_of_a_moving_map_equals_the_per_pair_loop(spec, radius):
    # each vertex goes to its BFS parent toward the identity, so the
    # roundtrip takes it to the first child of that parent: itself or a
    # sibling two steps away
    ball = build_group(spec).ball(radius)
    parent = _bfs_parents(ball, 0)[1].copy()
    parent[0] = 0
    a, b, _ = fit_rough_constants(ball, ball, parent)
    cmap = CoarseMap(ball, ball, parent, a, b, coverage_radius(ball, parent))
    psi, _ = rough_inverse(cmap)
    f = ScalarField(ball, np.random.default_rng(12).standard_normal(len(ball)))
    for p in (1.5, 2.0, 3.0):
        report = check_coarse_identity(f, cmap, psi, p)
        want, longest = loop_coarse_identity(f, cmap, psi, p)
        assert report.displacement == 2 and longest == 2
        assert (report.displacement, report.k, report.n_scoped, report.lhs, report.rhs) == want
        assert report.holds


# ---------------------------------------------------------------------------
# transporting near-harmonic fields


def roundtrip_core_error(f2_model, ext_model, radius, p):
    cmap = scenario_map(f2_model, ext_model, radius)
    psi, _ = rough_inverse(cmap)
    h = boundary_witness(f2_model, p, [radius - 1, radius]).field
    scope_r = psi.domain.radius
    radii = [scope_r - 2, scope_r - 1, scope_r] if scope_r >= 4 else [scope_r - 1, scope_r]
    moved, t1 = transport_harmonic(h, psi, p, radii)
    back_ball = f2_model.ball(scope_r)
    back = CoarseMap.fit(back_ball, moved.ball)
    returned, t2 = transport_harmonic(moved, back, p, radii)
    core = back_ball.core_indices(2)
    h_small = h.restrict(back_ball)
    assert all(r.converged for r in t1.royden.rows)
    assert all(r.converged for r in t2.royden.rows)
    return float(np.max(np.abs(returned.values[core] - h_small.values[core])))


def test_transport_roundtrip_small(f2_model, ext_model):
    err = roundtrip_core_error(f2_model, ext_model, radius=6, p=2.0)
    assert err <= 0.05


def test_transport_requires_covering_field(f2_model, ext_model):
    cmap = scenario_map(f2_model, ext_model, radius=4)
    psi, _ = rough_inverse(cmap)
    tiny = ScalarField.constant(f2_model.ball(2), 1.0)
    with pytest.raises(ValueError):
        transport_harmonic(tiny, psi, 2.0, [2, 3])


def test_transport_radius_validation(f2_model, ext_model):
    cmap = scenario_map(f2_model, ext_model, radius=4)
    psi, _ = rough_inverse(cmap)
    h = boundary_witness(f2_model, 2.0, [3, 4]).field
    too_far = psi.domain.radius + 1
    with pytest.raises(ValueError):
        transport_harmonic(h, psi, 2.0, [too_far - 1, too_far])
