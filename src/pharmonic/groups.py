"""Finitely generated group families, word metrics, and Cayley-ball enumeration.

Four built-in families, each with a fixed symmetric generating set S and a
canonical element form so that equality of canonical forms is equality in the
group:

* ``free_abelian`` (Z^d, 1 <= d <= 4): elements are integer d-tuples, the
  generating set is [x1, x1-, x2, x2-, ...] meaning +e_1, -e_1, +e_2, ...
  The word length is the l^1 norm.
* ``free`` (F_k, 1 <= k <= 3): elements are reduced words stored as tuples of
  signed letter codes (+1 = a, -1 = a-, +2 = b, ...), generating set
  [a, a-, b, b-, c, c-][:2k]. Word length is the reduced word length.
* ``free_product_z2`` (Z2 * ... * Z2, m factors, 2 <= m <= 4): elements are
  alternating words over the involutive letters s1..sm (no two consecutive
  letters equal), generating set [s1, ..., sm]. Each letter is its own
  inverse. Word length is the word length.
* ``lamplighter`` (Z2 wr Z): elements are pairs (lamps, cursor) where lamps
  is the sorted tuple of lit positions; generating set [t, t-, a] (cursor
  moves and the involutive toggle at the cursor). There is no closed form
  for the word length; it is read off the model's cached ball.

Any base family can be wrapped with extra generators given as words over the
base generating set (``extra_generators`` in the spec params); the wrapped
model carries the enlarged symmetric generating set, and its word lengths
are read off its cached ball as well.

All enumeration is deterministic: breadth-first from the identity, expanding
each vertex g through its neighbor list [g s^{-1} for s in S] in the fixed
generator order and appending unseen vertices in encounter order. The pass
records each expanded vertex's adjacency row as it goes. A model keeps the
largest ball it has built: a larger ball continues that ball's pass, and a
smaller one is a prefix view of it. This module is the only place that walks
the Cayley graph by hand; every other traversal runs on ``CayleyBall.csr()``
through ``scipy.sparse.csgraph``. Hop distances from one vertex come from
``CayleyBall.hops``, which reads them off csgraph's breadth-first order.
"""

from __future__ import annotations

import numbers
from array import array
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

Element = tuple

DEFAULT_VERTEX_BUDGET = 200_000

_FREE_LETTERS = "abc"

_FAMILIES = ("free_abelian", "free", "free_product_z2", "lamplighter")


class BudgetError(ValueError):
    """A requested enumeration would exceed the vertex budget."""


@dataclass
class GroupSpec:
    """Family name plus small integer parameters (JSON friendly)."""

    family: str
    params: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, obj: Mapping) -> "GroupSpec":
        if not isinstance(obj, Mapping) or "family" not in obj:
            raise ValueError("group spec must be a mapping with a 'family' key")
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("group spec 'params' must be a mapping")
        return cls(family=str(obj["family"]), params=dict(params))


def _require_int(params: Mapping, key: str, lo: int, hi: int, default=None) -> int:
    if key not in params:
        if default is not None:
            return default
        raise ValueError(f"missing group parameter '{key}'")
    value = params[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"group parameter '{key}' must be an integer")
    if not lo <= value <= hi:
        raise ValueError(f"group parameter '{key}'={value} outside the supported range {lo} <= {key} <= {hi}")
    return value


def _int_tuple(obj, what: str) -> Tuple[int, ...]:
    """The entries of a JSON list of integers (integral floats allowed) as a
    tuple; ValueError naming ``what`` for any other shape."""
    if not isinstance(obj, (list, tuple)) or not all(
        (isinstance(x, numbers.Integral) and not isinstance(x, bool)) or (isinstance(x, float) and x.is_integer())
        for x in obj
    ):
        raise ValueError(f"expected {what}, got {obj!r}")
    return tuple(int(x) for x in obj)


class GroupModel:
    """Base class: a group with a fixed symmetric generating set.

    Subclasses fill in ``name``, ``spec``, ``gen_labels``, the label-inverse
    table and the element operations. Everything else (neighbors, balls,
    word lengths without a closed form, describe) is generic.
    """

    name: str
    spec: GroupSpec
    gen_labels: Tuple[str, ...]
    _inv_label: Dict[str, str]
    _cached_ball: Optional["CayleyBall"] = None  # the largest ball built so far

    # -- element operations supplied by subclasses --------------------------
    def identity(self) -> Element:
        raise NotImplementedError

    def apply_gen(self, g: Element, label: str) -> Element:
        """Right multiplication g * s for a generator label s."""
        raise NotImplementedError

    def mul(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def inv(self, g: Element) -> Element:
        raise NotImplementedError

    def element_to_obj(self, g: Element):
        raise NotImplementedError

    def element_from_obj(self, obj) -> Element:
        raise NotImplementedError

    # -- generic operations --------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.gen_labels)

    def reduce(self, letters: Iterable[str]) -> Element:
        """Fold a word (sequence of generator labels) into canonical form."""
        g = self.identity()
        for label in letters:
            if label not in self._inv_label:
                raise ValueError(f"unknown generator label {label!r} for {self.name}")
            g = self.apply_gen(g, label)
        return g

    def neighbors(self, g: Element) -> List[Element]:
        """[g s^{-1} for s in S], in generating-set order."""
        return [self.apply_gen(g, self._inv_label[s]) for s in self.gen_labels]

    def ball_size(self, n: int) -> Optional[int]:
        """Closed-form vertex count of the closed ball, or None if unknown."""
        return None

    def ball(self, n: int, budget: Optional[int] = None) -> "CayleyBall":
        """The closed ball of radius n: a prefix view of the cached ball when
        that is at least as large, else the cached ball's pass continued."""
        if n < 1:
            raise ValueError(f"ball radius must be >= 1, got {n}")
        budget = DEFAULT_VERTEX_BUDGET if budget is None else int(budget)
        projected = self.ball_size(n)
        if projected is not None and projected > budget:
            raise BudgetError(
                f"ball of radius {n} on {self.name} has {projected} vertices, "
                f"over the budget {budget}"
            )
        cached = self._cached_ball
        if cached is not None:
            # the vertices a fresh enumeration would have counted against the budget
            if np.searchsorted(cached.depth, n, side="right") > budget:
                raise _over_budget(self, n, budget, int(cached.depth[budget]))
            if n <= cached.radius:
                return cached._prefix(n)
        ball = _enumerate(self, n, budget, cached)
        self._cached_ball = ball
        return ball

    def word_length(self, g: Element) -> int:
        """Depth of g in the cached ball, enlarged one layer at a time up to
        radius 64. Families with a closed form override this."""
        ball = self._cached_ball if self._cached_ball is not None else self.ball(1)
        while g not in ball.index:
            if ball.radius >= 64:
                raise ValueError(f"element {g!r} not reached within radius 64")
            ball = self.ball(ball.radius + 1)
        return int(ball.depth[ball.index[g]])

    def distance(self, g: Element, h: Element) -> int:
        return self.word_length(self.mul(self.inv(g), h))

    def power(self, g: Element, k: int) -> Element:
        if k < 0:
            return self.power(self.inv(g), -k)
        out = self.identity()
        for _ in range(k):
            out = self.mul(out, g)
        return out

    def describe(self, radius: int = 6, budget: Optional[int] = None) -> dict:
        ball = self.ball(radius, budget)
        sizes = [int(np.sum(ball.depth == r)) for r in range(radius + 1)]
        return {
            "name": self.name,
            "spec": self.spec.to_dict(),
            "generators": list(self.gen_labels),
            "degree": self.degree,
            "sphere_sizes": sizes,
        }


class FreeAbelianModel(GroupModel):
    """Z^d with the standard generators and the l^1 word metric."""

    def __init__(self, d: int):
        self.d = d
        self.name = f"Z^{d}" if d > 1 else "Z"
        self.spec = GroupSpec("free_abelian", {"d": d})
        labels = []
        for i in range(1, d + 1):
            labels += [f"x{i}", f"x{i}-"]
        self.gen_labels = tuple(labels)
        self._inv_label = {}
        for i in range(1, d + 1):
            self._inv_label[f"x{i}"] = f"x{i}-"
            self._inv_label[f"x{i}-"] = f"x{i}"
        self._steps = {}
        for i in range(1, d + 1):
            e = [0] * d
            e[i - 1] = 1
            self._steps[f"x{i}"] = tuple(e)
            self._steps[f"x{i}-"] = tuple(-v for v in e)

    def identity(self) -> Element:
        return (0,) * self.d

    def apply_gen(self, g: Element, label: str) -> Element:
        step = self._steps[label]
        return tuple(a + b for a, b in zip(g, step))

    def mul(self, g: Element, h: Element) -> Element:
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g: Element) -> Element:
        return tuple(-a for a in g)

    def word_length(self, g: Element) -> int:
        return int(sum(abs(a) for a in g))

    def ball_size(self, n: int) -> int:
        # l^1 ball count: sum_k 2^k C(d,k) C(n,k)
        from math import comb

        return sum((2 ** k) * comb(self.d, k) * comb(n, k) for k in range(0, min(self.d, n) + 1))

    def element_to_obj(self, g: Element):
        return [int(a) for a in g]

    def element_from_obj(self, obj) -> Element:
        g = _int_tuple(obj, f"a length-{self.d} integer vector")
        if len(g) != self.d:
            raise ValueError(f"expected a length-{self.d} integer vector, got {obj!r}")
        return g


class _ReducedWordModel(GroupModel):
    """A free product of cyclic groups of order infinity or 2.

    Built from (label, code, inverse label) triples. Elements are reduced
    words stored as tuples of letter codes: no letter sits next to its
    inverse, and an involutive letter is its own inverse.
    """

    def __init__(self, name: str, spec: GroupSpec, letters: Sequence[Tuple[str, int, str]]):
        self.name = name
        self.spec = spec
        self.gen_labels = tuple(label for label, _, _ in letters)
        self._inv_label = {label: inv for label, _, inv in letters}
        self._codes = {label: code for label, code, _ in letters}
        self._labels_by_code = {code: label for label, code, _ in letters}
        self._inv_code = {code: self._codes[inv] for _, code, inv in letters}

    def identity(self) -> Element:
        return ()

    def apply_gen(self, g: Element, label: str) -> Element:
        code = self._codes[label]
        if g and g[-1] == self._inv_code[code]:
            return g[:-1]
        return g + (code,)

    def mul(self, g: Element, h: Element) -> Element:
        inv_code = self._inv_code
        out = list(g)
        for code in h:
            if out and out[-1] == inv_code[code]:
                out.pop()
            else:
                out.append(code)
        return tuple(out)

    def inv(self, g: Element) -> Element:
        inv_code = self._inv_code
        return tuple(inv_code[c] for c in reversed(g))

    def word_length(self, g: Element) -> int:
        return len(g)

    def ball_size(self, n: int) -> int:
        q = self.degree
        if q == 2:
            return 2 * n + 1
        # 1 + q + q(q-1) + ... + q(q-1)^{n-1}
        return 1 + q * ((q - 1) ** n - 1) // (q - 2)

    def letter_code(self, label: str) -> int:
        try:
            return self._codes[label]
        except KeyError:
            raise ValueError(f"unknown generator label {label!r} for {self.name}") from None

    def element_to_obj(self, g: Element):
        return [self._labels_by_code[c] for c in g]

    def element_from_obj(self, obj) -> Element:
        if not isinstance(obj, (list, tuple)) or not all(isinstance(label, str) for label in obj):
            raise ValueError(f"expected a list of generator labels, got {obj!r}")
        return self.reduce(obj)


class FreeGroupModel(_ReducedWordModel):
    """F_k with reduced words over letters a, b, c and their inverses."""

    def __init__(self, k: int):
        self.k = k
        letters = []
        for code, a in enumerate(_FREE_LETTERS[:k], start=1):
            letters += [(a, code, a + "-"), (a + "-", -code, a)]
        super().__init__(f"F_{k}", GroupSpec("free", {"k": k}), letters)


class FreeProductZ2Model(_ReducedWordModel):
    """Free product of m copies of Z/2; every generator is an involution."""

    def __init__(self, m: int):
        self.m = m
        letters = [(f"s{i}", i, f"s{i}") for i in range(1, m + 1)]
        super().__init__("*".join(["Z2"] * m), GroupSpec("free_product_z2", {"m": m}), letters)


class LamplighterModel(GroupModel):
    """Z2 wr Z with generators t (cursor +1), t- (cursor -1), a (toggle)."""

    def __init__(self):
        self.name = "Z2wrZ"
        self.spec = GroupSpec("lamplighter", {})
        self.gen_labels = ("t", "t-", "a")
        self._inv_label = {"t": "t-", "t-": "t", "a": "a"}

    def identity(self) -> Element:
        return ((), 0)

    def apply_gen(self, g: Element, label: str) -> Element:
        lamps, cursor = g
        if label == "t":
            return (lamps, cursor + 1)
        if label == "t-":
            return (lamps, cursor - 1)
        if cursor in lamps:
            return (tuple(x for x in lamps if x != cursor), cursor)
        return (tuple(sorted(lamps + (cursor,))), cursor)

    def mul(self, g: Element, h: Element) -> Element:
        lamps1, c1 = g
        lamps2, c2 = h
        shifted = {x + c1 for x in lamps2}
        return (tuple(sorted(set(lamps1) ^ shifted)), c1 + c2)

    def inv(self, g: Element) -> Element:
        lamps, c = g
        return (tuple(sorted(x - c for x in lamps)), -c)

    def element_to_obj(self, g: Element):
        lamps, cursor = g
        return [[int(x) for x in lamps], int(cursor)]

    def element_from_obj(self, obj) -> Element:
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError(f"expected [lamps, cursor], got {obj!r}")
        lamps = _int_tuple(obj[0], "a list of integer lamp positions")
        (cursor,) = _int_tuple(obj[1:], "an integer cursor")
        return (tuple(sorted(lamps)), cursor)


class ExtendedGeneratorModel(GroupModel):
    """A base model with extra generators given as words over the base set.

    The canonical element form is inherited from the base model; only the
    generating set (hence the word metric and the Cayley graph) changes.
    Extra generators are labeled u1, u2, ... with inverses u1-, u2-, ...;
    an involutive extra word contributes a single label.
    """

    def __init__(self, base: GroupModel, extra_words: Sequence[Sequence[str]]):
        if not extra_words:
            raise ValueError("extra_generators must be a non-empty list of words")
        self.base = base
        self.spec = GroupSpec(base.spec.family, dict(base.spec.params))
        self.spec.params["extra_generators"] = [list(w) for w in extra_words]
        labels = list(base.gen_labels)
        inv_label = dict(base._inv_label)
        steps: Dict[str, Element] = {l: base.apply_gen(base.identity(), l) for l in base.gen_labels}
        for i, word in enumerate(extra_words, start=1):
            g = base.reduce(word)
            if g == base.identity():
                raise ValueError(f"extra generator {list(word)} reduces to the identity")
            gi = base.inv(g)
            lab, lab_inv = f"u{i}", f"u{i}-"
            if g == gi:
                labels.append(lab)
                inv_label[lab] = lab
                steps[lab] = g
            else:
                labels += [lab, lab_inv]
                inv_label[lab] = lab_inv
                inv_label[lab_inv] = lab
                steps[lab] = g
                steps[lab_inv] = gi
        self.gen_labels = tuple(labels)
        self._inv_label = inv_label
        self._steps = steps
        extra_desc = ",".join("".join(w) for w in extra_words)
        self.name = f"{base.name}+[{extra_desc}]"

    def identity(self) -> Element:
        return self.base.identity()

    def apply_gen(self, g: Element, label: str) -> Element:
        try:
            step = self._steps[label]
        except KeyError:
            raise ValueError(f"unknown generator label {label!r} for {self.name}") from None
        return self.base.mul(g, step)

    def mul(self, g: Element, h: Element) -> Element:
        return self.base.mul(g, h)

    def inv(self, g: Element) -> Element:
        return self.base.inv(g)

    def element_to_obj(self, g: Element):
        return self.base.element_to_obj(g)

    def element_from_obj(self, obj) -> Element:
        return self.base.element_from_obj(obj)


def _over_budget(model: GroupModel, radius: int, budget: int, r: int) -> BudgetError:
    return BudgetError(
        f"ball of radius {radius} on {model.name} exceeds the vertex budget "
        f"{budget} (already {budget + 1} vertices at radius {r})"
    )


def _enumerate(model: GroupModel, radius: int, budget: int, start: Optional["CayleyBall"]) -> "CayleyBall":
    """The one breadth-first pass, from the identity or from the sphere of a
    smaller enumerated ball, recording the adjacency row of each expanded
    vertex into a flat buffer."""
    if start is None:
        e = model.identity()
        vertices, index = [e], {e: 0}
        depth, rows = array("i", [0]), array("q")
        done, first = 0, 1
    else:
        vertices, index = list(start.vertices), dict(start.index)
        depth, rows = array("i", start.depth.tobytes()), array("q", start.adj.tobytes())
        done, first = start.n_interior, start.radius + 1
    neighbors = model.neighbors
    for r in range(first, radius + 1):
        end = len(vertices)
        for k in range(done, end):
            for h in neighbors(vertices[k]):
                j = index.get(h)
                if j is None:
                    j = index[h] = len(vertices)
                    if j >= budget:
                        raise _over_budget(model, radius, budget, r)
                    vertices.append(h)
                    depth.append(r)
                rows.append(j)
        done = end
    depth_arr = np.frombuffer(depth, dtype=np.intc).astype(np.int32, copy=False)
    adj = np.frombuffer(rows, dtype=np.int64).reshape(-1, model.degree)
    return CayleyBall(model, radius, vertices, index, depth_arr, adj)


class CayleyBall:
    """Closed word-metric ball of a given radius, split into interior and sphere.

    ``vertices`` lists the interior (word length < radius) first, then the
    bounding sphere (word length == radius), both in deterministic BFS order.
    ``adj[i, j]`` is the vertex index of ``neighbors(vertices[i])[j]`` for
    interior ``i``; every neighbor of an interior vertex stays in the ball.
    ``arcs()`` returns the directed arc multiset used by truncated energy
    sums: both directions of every edge having at least one interior
    endpoint (sphere-to-sphere edges are excluded). ``csr()`` is the whole
    induced graph, sphere-to-sphere edges included, for ``scipy.sparse.csgraph``;
    ``hops(source)`` gives the hop distances in it from one vertex.

    Balls come from ``GroupModel.ball`` and are never modified; a smaller
    ball shares the arrays of the larger one it is a prefix of.
    """

    def __init__(self, model: GroupModel, radius: int, vertices: List[Element], index: Dict[Element, int],
                 depth: np.ndarray, rows: np.ndarray):
        self.model = model
        self.radius = radius
        self.vertices = vertices
        self.index = index
        self.depth = depth
        self.n_interior = int(np.searchsorted(depth, radius))
        # full adjacency rows of the first len(rows) vertices; a prefix view
        # has them for its sphere too, pointing past the ball where it ends
        self._rows = rows
        self.adj = rows[: self.n_interior]
        self._arcs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._full_adj: Optional[np.ndarray] = None
        self._csr: Optional[sp.csr_matrix] = None

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def n_boundary(self) -> int:
        return len(self.vertices) - self.n_interior

    def _prefix(self, radius: int) -> "CayleyBall":
        """The ball of a radius no larger than this one's, as a prefix view."""
        if radius == self.radius:
            return self
        size = int(np.searchsorted(self.depth, radius, side="right"))
        vertices = self.vertices[:size]
        return CayleyBall(self.model, radius, vertices, dict(zip(vertices, range(size))), self.depth[:size],
                          self._rows[:size])

    def boundary_elements(self) -> List[Element]:
        return self.vertices[self.n_interior :]

    def sphere_indices(self, r: int) -> np.ndarray:
        return np.flatnonzero(self.depth == r)

    def core_indices(self, r: int) -> np.ndarray:
        return np.flatnonzero(self.depth <= r)

    def full_adj(self) -> np.ndarray:
        """Adjacency rows for every vertex, sphere included; -1 marks a
        neighbor that falls outside the ball."""
        if self._full_adj is None:
            n = len(self.vertices)
            full = np.full((n, self.model.degree), -1, dtype=np.int64)
            known = len(self._rows)
            full[:known] = self._rows
            full[full >= n] = -1
            for i in range(known, n):
                for j, h in enumerate(self.model.neighbors(self.vertices[i])):
                    full[i, j] = self.index.get(h, -1)
            self._full_adj = full
        return self._full_adj

    def csr(self) -> sp.csr_matrix:
        """Unit-weight adjacency matrix of the ball's induced Cayley graph."""
        if self._csr is None:
            full = self.full_adj()
            inside = full >= 0
            indptr = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(inside.sum(axis=1), out=indptr[1:])
            n = len(self)
            self._csr = sp.csr_matrix((np.ones(int(indptr[-1])), full[inside], indptr), shape=(n, n))
        return self._csr

    def hops(self, source: int) -> np.ndarray:
        """Hop distances inside the ball from one vertex, -1 where unreached.

        csgraph's breadth-first search is first in, first out: ``order`` lists
        the reached vertices level by level, and the positions of their
        parents in ``order`` never decrease. So a level ends just after the
        last vertex whose parent lies in the level before it.
        """
        order, parent = breadth_first_order(self.csr(), source, directed=True, return_predecessors=True)
        position = np.empty(len(self), dtype=np.int64)
        position[order] = np.arange(order.size)
        parent_pos = position[parent[order[1:]]]
        bounds = [0, 1]
        while bounds[-1] < order.size:
            bounds.append(1 + int(np.searchsorted(parent_pos, bounds[-1])))
        dist = np.full(len(self), -1, dtype=np.int64)
        dist[order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        return dist

    def arcs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Directed arc arrays (src, dst) of the truncated energy sums."""
        if self._arcs is None:
            deg = self.model.degree
            src = np.repeat(np.arange(self.n_interior, dtype=np.int64), deg)
            dst = self.adj.reshape(-1)
            out = dst >= self.n_interior
            self._arcs = (
                np.concatenate([src, dst[out]]),
                np.concatenate([dst, src[out]]),
            )
        return self._arcs

    def compatible(self, other: "CayleyBall") -> bool:
        return self is other or (
            self.radius == other.radius and self.model.spec == other.model.spec
        )


def build_group(spec) -> GroupModel:
    """Build a model from a GroupSpec, a dict, or a family-name string."""
    if isinstance(spec, str):
        spec = GroupSpec(spec, {})
    elif isinstance(spec, Mapping):
        spec = GroupSpec.from_dict(spec)
    if not isinstance(spec, GroupSpec):
        raise ValueError(f"cannot build a group from {spec!r}")
    family = spec.family
    params = dict(spec.params)
    extra = params.pop("extra_generators", None)
    if family == "free_abelian":
        base: GroupModel = FreeAbelianModel(_require_int(params, "d", 1, 4))
    elif family == "free":
        base = FreeGroupModel(_require_int(params, "k", 1, 3))
    elif family == "free_product_z2":
        base = FreeProductZ2Model(_require_int(params, "m", 2, 4))
    elif family == "lamplighter":
        base = LamplighterModel()
    else:
        raise ValueError(f"unknown family {family!r}; supported: {', '.join(_FAMILIES)}")
    if extra is not None:
        if not isinstance(extra, (list, tuple)) or not all(
            isinstance(w, (list, tuple)) and all(isinstance(label, str) for label in w) for w in extra
        ):
            raise ValueError(f"extra_generators must be a list of generator-label words, got {extra!r}")
        base = ExtendedGeneratorModel(base, [list(w) for w in extra])
    return base
