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
  moves and the involutive toggle at the cursor). For lamps L and cursor c,
  with m = min(L u {0, c}) and M = max(L u {0, c}), the word length is
  |L| + (M - m) + min(-m + |M - c|, M + |c - m|): each lamp is toggled once,
  and the cursor sweeps [m, M] from 0, turning at one end, to end at c.

Every model holds its generating set as a table of words over the family's
letters: each letter is the word of itself, and a spec may add extra
generators as words over the letters (``extra_generators`` in the spec
params). The elements and the group law stay those of the family; only the
word metric and the Cayley graph change. A family supplies its per-letter
law, its array codes and its closed-form ball sizes on the stock generating
set; on an extended set, ball sizes have no closed form. Word lengths are
ball depths (``CayleyBall.depth``); the closed forms above are the
independent reference the tests check depth against.

Inside a ball, elements are array-coded: each is one fixed-width row of small
integers, and the identity is the zero row. Reduced words are their letter
codes padded with zeros, Z^d elements their coordinates, lamplighter elements
the cursor followed by the lamp bits (position x at bit 2x, or -2x - 1 for
x < 0). A ball of radius R gets (R + 1) x (longest generator word) letters of
room, so that one step out of its sphere still fits, and each model
right-multiplies a whole array of rows by a generator word at once, one
letter after another. This row law is the only group law on elements: the
tuple operations (``apply_gen``, ``neighbors``, ``reduce``) never touch the
codes, and they are the independent reference the codes are tested against.

Rows are compared through one lookup key each, in a layout fixed per pass
by the model and the letter capacity (``_KeyLayout``): one exact ``uint64``
where the row fits in 64 bits (4 bits per letter of a reduced word, so up to
16 letters; Z^d coordinates offset by their bound; the lamplighter's cursor
beside its lamp bits), else the whole row as an ``np.void`` (F_1 at R = 300,
F_2 + [a,b,a,b,a] at R = 7, the lamplighter past 28 letters of room).

All enumeration is deterministic: breadth-first from the identity, level by
level. The rows of level r - 1 times the inverse generators, taken in
row-major order (vertex, then generator), give the neighbor lists
[g s^{-1} for s in S]. Their keys are sorted once and looked up, with one
``searchsorted``, in a sorted index of levels r - 2 and r - 1; each run of
equal keys left over is one vertex of level r, numbered in order of first
encounter. This is the vertex order of a vertex-by-vertex breadth-first
search. The pass records each expanded vertex's adjacency row as it goes.
Every ``GroupModel.ball`` call is one fresh pass from the identity, and a
model keeps no ball. Since vertex ids are prefix-stable, the ball of a
smaller radius is a prefix of every larger one: ``CayleyBall.prefix`` takes
it as a view of the larger ball's arrays, with no enumeration.

``CayleyBall.locate`` maps code rows to vertex ids through a sorted key
index of the whole ball, built on first use; ``full_adj`` finds the
neighbors of an enumerated ball's sphere through it. Rows from a ball of the same
group under another generating set may be narrower or wider: a zero column
is no letter, no coordinate and no lamp word, so rows are padded or trimmed
with zero columns, and a row with a value outside the ball's key layout is
no vertex of it. This is how vertices move between balls, and no ball is
decoded on the way; TILF translates a field the same way, multiplying code
rows by the letters of x^-1.

Inside the package a vertex is named by its id, which is prefix-stable: it
means the same element in every ball of the model that holds it. The
identity is vertex 0, and generator s is vertex ``adj[0, j]`` where s_j is
s^-1. ``CayleyBall.vertices`` and ``CayleyBall.index`` decode the rows into
tuples and an element -> id dict on first use; they are the public decode,
for the element-level edges only: JSON manifests and reports, the tuple
predicates of markings and subsets, and ``ScalarField.value_at``.

Hop distances inside a ball come from one bit-parallel breadth-first pass
over ``CayleyBall.full_adj``: up to 64 searches run at once, each vertex
holding a ``uint64`` word with one bit per search that has reached it. A
level gives each vertex the OR of its neighbors' words, and the bits new
there are the searches that reach it at that level. ``hops`` gives
the distances from one vertex or from the nearest of several, and
``pair_hops`` those of many (source, target) pairs, 64 sources per pass.
This module is the only place that walks the Cayley graph by hand; every
other traversal is a connected-component query through
``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

Element = tuple

DEFAULT_VERTEX_BUDGET = 200_000
# bytes of array codes a ball may hold per budgeted vertex: on thin balls
# of long words the vertex budget alone would admit rows of up to R letters
CODE_BYTES_PER_VERTEX = 1024

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
    """Base class: a group with a finite symmetric generating set.

    Every model holds its generating set as a table of words over the
    family's letters: a letter is the word of itself, and each extra
    generator is the word it was given as. Subclasses supply the per-letter
    tuple law, the array codes and the closed-form ball sizes on the stock
    generating set. Everything else (the generator law, neighbors, balls,
    describe) is generic.
    """

    name: str
    spec: GroupSpec
    gen_labels: Tuple[str, ...]
    _inv_label: Dict[str, str]
    _inv_letter: Dict[str, str]
    _words: Dict[str, Tuple[str, ...]]

    def _set_generators(self, name: str, spec: GroupSpec, inv_letter: Dict[str, str], extra_words) -> None:
        """The generating set: the family's letters (``inv_letter`` maps each
        to its inverse), then each extra word, labeled u1, u2, ... with
        inverses u1-, u2-, ...; an involutive extra word contributes a single
        label."""
        self.name, self.spec = name, spec
        self._inv_letter = inv_letter
        self._inv_label = dict(inv_letter)
        self._words = {letter: (letter,) for letter in inv_letter}
        labels = list(inv_letter)
        if extra_words is not None:
            if not isinstance(extra_words, (list, tuple)) or not all(
                isinstance(w, (list, tuple)) and all(isinstance(label, str) for label in w) for w in extra_words
            ):
                raise ValueError(f"extra_generators must be a list of generator-label words, got {extra_words!r}")
            if not extra_words:
                raise ValueError("extra_generators must be a non-empty list of words")
            for i, word in enumerate(extra_words, start=1):
                g = self._fold(self.identity(), word)
                if g == self.identity():
                    raise ValueError(f"extra generator {list(word)} reduces to the identity")
                inverse_word = tuple(inv_letter[letter] for letter in reversed(word))
                lab, lab_inv = f"u{i}", f"u{i}-"
                self._words[lab] = tuple(word)
                if g == self._fold(self.identity(), inverse_word):
                    labels.append(lab)
                    self._inv_label[lab] = lab
                else:
                    labels += [lab, lab_inv]
                    self._inv_label[lab] = lab_inv
                    self._inv_label[lab_inv] = lab
                    self._words[lab_inv] = inverse_word
            self.spec = GroupSpec(spec.family, {**spec.params, "extra_generators": [list(w) for w in extra_words]})
            self.name = f"{name}+[{','.join(''.join(w) for w in extra_words)}]"
        self.gen_labels = tuple(labels)

    # -- supplied by subclasses: the per-letter law and the stock closed forms
    def identity(self) -> Element:
        raise NotImplementedError

    def _apply_letter(self, g: Element, letter: str) -> Element:
        """Right multiplication g * s for a letter s of the family."""
        raise NotImplementedError

    def element_to_obj(self, g: Element):
        raise NotImplementedError

    def element_from_obj(self, obj) -> Element:
        raise NotImplementedError

    def _stock_ball_size(self, n: int) -> Optional[int]:
        """Vertex count of the closed ball of radius n over the family's
        letters, or None if there is no closed form."""
        return None

    # -- array codes supplied by subclasses (see the module docstring) -------
    _code_dtype: type

    def _code_width(self, n_letters: int) -> int:
        """Columns of a row with room for any element spelled by at most
        ``n_letters`` letters of the family."""
        raise NotImplementedError

    def _code_bounds(self, n_letters: int) -> Tuple[List[int], List[int]]:
        """The least and greatest value of each of the ``_code_width`` columns
        over the elements spelled by at most ``n_letters`` letters."""
        raise NotImplementedError

    def _times_letters(self, codes: np.ndarray, letters: Sequence[str]) -> np.ndarray:
        """New rows: each row of ``codes`` right-multiplied by the word ``letters``."""
        raise NotImplementedError

    def _decode(self, codes: np.ndarray) -> List[Element]:
        raise NotImplementedError

    # -- generic operations --------------------------------------------------
    @property
    def _extended(self) -> bool:
        """Whether the generating set has extra generators beyond the letters."""
        return "extra_generators" in self.spec.params

    def _letters(self, label: str) -> Tuple[str, ...]:
        """The family's letters spelling generator ``label``."""
        return self._words[label]

    def _fold(self, g: Element, letters: Iterable[str]) -> Element:
        """g times a word of the family's letters."""
        for letter in letters:
            if letter not in self._inv_letter:
                raise ValueError(f"unknown generator label {letter!r} for {self.name}")
            g = self._apply_letter(g, letter)
        return g

    def apply_gen(self, g: Element, label: str) -> Element:
        """Right multiplication g * s for a generator label s: the fold of
        the per-letter law over the word of s."""
        if label not in self._words:
            raise ValueError(f"unknown generator label {label!r} for {self.name}")
        return self._fold(g, self._words[label])

    @property
    def degree(self) -> int:
        return len(self.gen_labels)

    @property
    def _word_bound(self) -> int:
        """Letters in the longest generator word."""
        return max(map(len, self._words.values()))

    def _key_layout(self, n_letters: int) -> "_KeyLayout":
        """The lookup keys of a pass with room for ``n_letters`` letters."""
        return _KeyLayout(*self._code_bounds(n_letters), self._code_dtype)

    def _neighbor_codes(self, codes: np.ndarray, **row_facts) -> np.ndarray:
        """The rows of [g s^{-1} for s in S] for every row g, row-major.
        ``row_facts`` go to every ``_times_letters`` call."""
        out = np.empty((len(codes), self.degree, codes.shape[1]), dtype=codes.dtype)
        for j, s in enumerate(self.gen_labels):
            out[:, j] = self._times_letters(codes, self._letters(self._inv_label[s]), **row_facts)
        return out.reshape(-1, codes.shape[1])

    def reduce(self, labels: Iterable[str]) -> Element:
        """Fold a word (sequence of generator labels) into canonical form."""
        g = self.identity()
        for label in labels:
            g = self.apply_gen(g, label)
        return g

    def neighbors(self, g: Element) -> List[Element]:
        """[g s^{-1} for s in S], in generating-set order."""
        return [self.apply_gen(g, self._inv_label[s]) for s in self.gen_labels]

    @property
    def group_spec(self) -> GroupSpec:
        """The spec of the group without its extra generators; models with
        the same group spec code their elements alike."""
        if not self._extended:
            return self.spec
        return GroupSpec(self.spec.family, {k: v for k, v in self.spec.params.items() if k != "extra_generators"})

    def ball_size(self, n: int) -> Optional[int]:
        """Closed-form vertex count of the closed ball, or None if unknown:
        there is none on an extended generating set."""
        return None if self._extended else self._stock_ball_size(n)

    def _size_bound(self, n: int) -> Optional[int]:
        """An upper bound on the vertex count of the closed ball, or None: a
        word of n generators spells at most n x _word_bound letters."""
        return self._stock_ball_size(n * self._word_bound)

    def ball(self, n: int, budget: Optional[int] = None) -> "CayleyBall":
        """The closed ball of radius n, enumerated afresh; take a smaller
        ball of one already built with ``CayleyBall.prefix``. BudgetError
        when the ball has more than ``budget`` vertices, or when the pass
        would hold more than CODE_BYTES_PER_VERTEX bytes of codes per vertex
        of the budget (counting ``budget`` vertices, or fewer where a closed
        form bounds the ball's size)."""
        if n < 1:
            raise ValueError(f"ball radius must be >= 1, got {n}")
        budget = DEFAULT_VERTEX_BUDGET if budget is None else int(budget)
        projected = self.ball_size(n)
        if projected is not None and projected > budget:
            raise BudgetError(
                f"ball of radius {n} on {self.name} has {projected} vertices, "
                f"over the budget {budget}"
            )
        row_bytes = self._code_width((n + 1) * self._word_bound) * np.dtype(self._code_dtype).itemsize
        # narrower rows always fit, and the size bound can be a huge integer
        bound = self._size_bound(n) if row_bytes > CODE_BYTES_PER_VERTEX else None
        code_bytes = (budget if bound is None else min(budget, bound)) * row_bytes
        if code_bytes > budget * CODE_BYTES_PER_VERTEX:
            raise BudgetError(
                f"ball of radius {n} on {self.name} would hold {code_bytes} bytes of codes, "
                f"over {CODE_BYTES_PER_VERTEX} per vertex of the budget {budget}"
            )
        return _enumerate(self, n, budget)

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
    """Z^d with the letters x1, x1-, ..., xd, xd- and the l^1 word metric."""

    def __init__(self, d: int, extra_generators=None):
        self.d = d
        inv_letter = {}
        # letter -> (coordinate, sign)
        self._moves = {}
        for i in range(d):
            inv_letter[f"x{i + 1}"], inv_letter[f"x{i + 1}-"] = f"x{i + 1}-", f"x{i + 1}"
            self._moves[f"x{i + 1}"] = (i, 1)
            self._moves[f"x{i + 1}-"] = (i, -1)
        self._set_generators(f"Z^{d}" if d > 1 else "Z", GroupSpec("free_abelian", {"d": d}), inv_letter,
                             extra_generators)

    def identity(self) -> Element:
        return (0,) * self.d

    def _apply_letter(self, g: Element, letter: str) -> Element:
        i, sign = self._moves[letter]
        return g[:i] + (g[i] + sign,) + g[i + 1 :]

    def _stock_ball_size(self, n: int) -> int:
        # l^1 ball count: sum_k 2^k C(d,k) C(n,k)
        from math import comb

        return sum((2 ** k) * comb(self.d, k) * comb(n, k) for k in range(0, min(self.d, n) + 1))

    _code_dtype = np.int64

    def _code_width(self, n_letters: int) -> int:
        return self.d

    def _code_bounds(self, n_letters: int) -> Tuple[List[int], List[int]]:
        return [-n_letters] * self.d, [n_letters] * self.d

    def _times_letters(self, codes: np.ndarray, letters: Sequence[str]) -> np.ndarray:
        step = np.zeros(self.d, dtype=codes.dtype)
        for label in letters:
            i, sign = self._moves[label]
            step[i] += sign
        return codes + step

    def _decode(self, codes: np.ndarray) -> List[Element]:
        return list(map(tuple, codes.tolist()))

    def element_to_obj(self, g: Element):
        return [int(a) for a in g]

    def element_from_obj(self, obj) -> Element:
        g = _int_tuple(obj, f"a length-{self.d} integer vector")
        if len(g) != self.d:
            raise ValueError(f"expected a length-{self.d} integer vector, got {obj!r}")
        return g


class _ReducedWordModel(GroupModel):
    """A free product of cyclic groups of order infinity or 2.

    Built from (letter, code, inverse letter) triples. Elements are reduced
    words stored as tuples of letter codes: no letter sits next to its
    inverse, and an involutive letter is its own inverse.
    """

    _code_dtype = np.int8

    def __init__(self, name: str, spec: GroupSpec, letters: Sequence[Tuple[str, int, str]], extra_generators):
        self._codes = {label: code for label, code, _ in letters}
        self._labels_by_code = {code: label for label, code, _ in letters}
        self._inv_code = {code: self._codes[inv] for _, code, inv in letters}
        self._set_generators(name, spec, {label: inv for label, _, inv in letters}, extra_generators)

    def identity(self) -> Element:
        return ()

    def _apply_letter(self, g: Element, letter: str) -> Element:
        code = self._codes[letter]
        if g and g[-1] == self._inv_code[code]:
            return g[:-1]
        return g + (code,)

    def _stock_ball_size(self, n: int) -> int:
        q = len(self._codes)
        if q == 2:
            return 2 * n + 1
        # 1 + q + q(q-1) + ... + q(q-1)^{n-1}
        return 1 + q * ((q - 1) ** n - 1) // (q - 2)

    def _code_width(self, n_letters: int) -> int:
        return n_letters

    def _code_bounds(self, n_letters: int) -> Tuple[List[int], List[int]]:
        return [min(0, *self._codes.values())] * n_letters, [max(0, *self._codes.values())] * n_letters

    def _times_letters(
        self, codes: np.ndarray, letters: Sequence[str], length: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``length``, if given, is the word length of each row of ``codes``."""
        out = codes.copy()
        rows = np.arange(len(out))
        if length is None:
            length = np.count_nonzero(out, axis=1)
        for label in letters:
            code = self._codes[label]
            # an empty row reads its last column, which is 0 and no letter
            cancel = out[rows, length - 1] == self._inv_code[code]
            out[rows[cancel], length[cancel] - 1] = 0
            out[rows[~cancel], length[~cancel]] = code
            length = length + np.where(cancel, -1, 1)
        return out

    def _neighbor_codes(self, codes: np.ndarray) -> np.ndarray:
        # the word lengths are the same for every generator: count them once
        return super()._neighbor_codes(codes, length=np.count_nonzero(codes, axis=1))

    def _decode(self, codes: np.ndarray) -> List[Element]:
        lengths = np.count_nonzero(codes, axis=1)
        out: List[Element] = [()] * len(codes)
        for k in np.unique(lengths).tolist():
            rows = np.flatnonzero(lengths == k)
            for i, word in zip(rows.tolist(), map(tuple, codes[rows, :k].tolist())):
                out[i] = word
        return out

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
        return self._fold(self.identity(), obj)


class FreeGroupModel(_ReducedWordModel):
    """F_k with reduced words over letters a, b, c and their inverses."""

    def __init__(self, k: int, extra_generators=None):
        self.k = k
        letters = []
        for code, a in enumerate(_FREE_LETTERS[:k], start=1):
            letters += [(a, code, a + "-"), (a + "-", -code, a)]
        super().__init__(f"F_{k}", GroupSpec("free", {"k": k}), letters, extra_generators)


class FreeProductZ2Model(_ReducedWordModel):
    """Free product of m copies of Z/2; every letter is an involution."""

    def __init__(self, m: int, extra_generators=None):
        self.m = m
        letters = [(f"s{i}", i, f"s{i}") for i in range(1, m + 1)]
        super().__init__("*".join(["Z2"] * m), GroupSpec("free_product_z2", {"m": m}), letters, extra_generators)


class LamplighterModel(GroupModel):
    """Z2 wr Z with letters t (cursor +1), t- (cursor -1), a (toggle)."""

    def __init__(self, extra_generators=None):
        self._set_generators("Z2wrZ", GroupSpec("lamplighter", {}), {"t": "t-", "t-": "t", "a": "a"},
                             extra_generators)

    def identity(self) -> Element:
        return ((), 0)

    def _apply_letter(self, g: Element, letter: str) -> Element:
        lamps, cursor = g
        if letter == "t":
            return (lamps, cursor + 1)
        if letter == "t-":
            return (lamps, cursor - 1)
        if cursor in lamps:
            return (tuple(x for x in lamps if x != cursor), cursor)
        return (tuple(sorted(lamps + (cursor,))), cursor)

    # rows: the cursor, then 64-bit words of lamp bits, position x at bit 2x or -2x - 1
    _code_dtype = np.int64

    def _code_width(self, n_letters: int) -> int:
        return 2 + (2 * n_letters) // 64

    def _code_bounds(self, n_letters: int) -> Tuple[List[int], List[int]]:
        # lamps lie within n_letters of 0, on bits 0 to 2 n_letters; a word
        # whose bit 63 may be set takes every int64 value
        lo, hi = [-n_letters], [n_letters]
        for first in range(0, 2 * n_letters + 1, 64):
            bits = min(64, 2 * n_letters + 1 - first)
            lo.append(-(1 << 63) if bits == 64 else 0)
            hi.append((1 << 63) - 1 if bits == 64 else (1 << bits) - 1)
        return lo, hi

    def _times_letters(self, codes: np.ndarray, letters: Sequence[str]) -> np.ndarray:
        out = codes.copy()
        rows = np.arange(len(out))
        for label in letters:
            if label == "a":
                bit = 2 * out[:, 0]
                bit = np.where(bit < 0, -1 - bit, bit)
                out[rows, 1 + bit // 64] ^= np.left_shift(1, bit % 64)
            else:
                out[:, 0] += 1 if label == "t" else -1
        return out

    def _decode(self, codes: np.ndarray) -> List[Element]:
        bit = np.arange(64 * (codes.shape[1] - 1))
        position = np.where(bit % 2 == 0, bit // 2, -(bit + 1) // 2)
        order = np.argsort(position)
        lit_bits = np.unpackbits(codes[:, 1:].astype("<i8").view(np.uint8), axis=1, bitorder="little")
        rows, cols = np.nonzero(lit_bits[:, order])
        lit = position[order][cols].tolist()
        ends = np.cumsum(np.bincount(rows, minlength=len(codes))).tolist()
        out, start = [], 0
        for end, cursor in zip(ends, codes[:, 0].tolist()):
            out.append((tuple(lit[start:end]), cursor))
            start = end
        return out

    def element_to_obj(self, g: Element):
        lamps, cursor = g
        return [[int(x) for x in lamps], int(cursor)]

    def element_from_obj(self, obj) -> Element:
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError(f"expected [lamps, cursor], got {obj!r}")
        lamps = tuple(sorted(_int_tuple(obj[0], "a list of integer lamp positions")))
        (cursor,) = _int_tuple(obj[1:], "an integer cursor")
        repeated = [x for x, y in zip(lamps, lamps[1:]) if x == y]
        if repeated:
            raise ValueError(f"lamp position {repeated[0]} is listed more than once in {obj!r}")
        return (lamps, cursor)


class _KeyLayout:
    """How one breadth-first pass turns its code rows into lookup keys.

    Column j of a row holds a value in [lo[j], hi[j]] for every element the
    pass can meet, which is every element spelled by at most its letter
    capacity. A row's key is one ``uint64`` with a bit field per column: a
    letter of a reduced word takes the low 4 bits of its ``int8`` code (codes
    lie in [-8, 7]), two letters to a byte; any other column holds row[j] -
    lo[j] in just enough bits for hi[j] - lo[j]. Two rows inside the layout
    share a key only if they are equal. Where the fields do not fit in 64
    bits, the key is the row's bytes as one ``np.void``. The layout is fixed
    per pass, never per array, so all keys of a ball have one dtype; rows
    from elsewhere are checked with ``inside`` before their keys are trusted.
    """

    def __init__(self, lo: Sequence[int], hi: Sequence[int], dtype):
        self._dtype = np.dtype(dtype)
        self._nibbles = self._dtype.itemsize == 1
        if self._nibbles:
            self.packed = len(lo) <= 16 and min(lo) >= -8 and max(hi) <= 7
        else:
            bits = [int(h - l).bit_length() for l, h in zip(lo, hi)]
            shifts = np.cumsum([0] + bits[:-1]).tolist()
            self.packed = sum(bits) <= 64
            self._fields = [(j, int(l), np.uint64(shift)) for j, (l, shift) in enumerate(zip(lo, shifts))]
        self._lo = np.array(lo, dtype=np.int64)
        self._hi = np.array(hi, dtype=np.int64)

    def keys(self, codes: np.ndarray) -> np.ndarray:
        """One key per row of ``codes``; exact for rows inside the layout."""
        codes = np.asarray(codes, dtype=self._dtype)
        if not self.packed:
            codes = np.ascontiguousarray(codes)
            return codes.view(np.dtype((np.void, codes.dtype.itemsize * codes.shape[1]))).reshape(-1)
        if self._nibbles:
            # uint8 shifts drop the high half of each code
            letters = codes.view(np.uint8)
            width = letters.shape[1]
            key = np.zeros((len(codes), 8), dtype=np.uint8)
            np.bitwise_and(letters[:, 0::2], 15, out=key[:, : (width + 1) // 2])
            key[:, : width // 2] |= letters[:, 1::2] << 4
            return key.view(np.uint64).reshape(-1)
        key = np.zeros(len(codes), dtype=np.uint64)
        for j, lo, shift in self._fields:
            # keys stay uint64 throughout: numpy < 2 promotes uint64 with int64 to float64
            key |= (codes[:, j].astype(np.int64) - lo).view(np.uint64) << shift
        return key

    def inside(self, codes: np.ndarray) -> np.ndarray:
        """Whether each row's columns lie within their bounds."""
        return ((codes >= self._lo) & (codes <= self._hi)).all(axis=1)


def _sorted_level(codes: np.ndarray, first_id: int, layout: _KeyLayout) -> Tuple[np.ndarray, np.ndarray]:
    """A level's keys in sorted order, with the vertex id of each."""
    keys = layout.keys(codes)
    order = np.argsort(keys)
    return keys[order], first_id + order


def _merge(a: Tuple[np.ndarray, np.ndarray], b: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Two sorted (keys, ids) indexes as one; the stable sort merges the two runs."""
    keys = np.concatenate([a[0], b[0]])
    order = np.argsort(keys, kind="stable")
    return keys[order], np.concatenate([a[1], b[1]])[order]


def _search(sorted_keys: np.ndarray, index: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The vertex id of each of some sorted keys in a sorted (keys, ids)
    index, -1 where absent. Sorted needles keep each binary search near the
    last one."""
    index_keys, index_ids = index
    pos = np.searchsorted(index_keys, sorted_keys)
    np.minimum(pos, index_keys.size - 1, out=pos)
    hit = index_keys[pos] == sorted_keys
    ids = np.full(sorted_keys.size, -1, dtype=np.int64)
    ids[hit] = index_ids[pos[hit]]
    return ids


def _locate(keys: np.ndarray, index: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The vertex id of each key in a sorted (keys, ids) index, -1 where absent."""
    order = np.argsort(keys)
    found = _search(keys[order], index)
    ids = np.empty_like(found)
    ids[order] = found
    return ids


def _enumerate(model: GroupModel, radius: int, budget: int) -> "CayleyBall":
    """The one breadth-first pass, from the identity, one level at a time,
    recording the adjacency rows of each expanded level.

    A level sorts its candidates' keys once: the sorted keys are looked up
    in one sorted index of the two levels before, and the runs of equal keys
    left over are the new vertices, numbered by the first candidate of each
    run."""
    capacity = (radius + 1) * model._word_bound
    layout = model._key_layout(capacity)
    frontier = np.zeros((1, model._code_width(capacity)), dtype=model._code_dtype)
    codes, depth, rows = [frontier], [np.zeros(1, dtype=np.int32)], []
    last = index = _sorted_level(frontier, 0, layout)
    n = 1
    for r in range(1, radius + 1):
        candidates = model._neighbor_codes(frontier)
        keys = layout.keys(candidates)
        order = np.argsort(keys)
        keys = keys[order]
        ids = _search(keys, index)
        new = np.flatnonzero(ids < 0)
        # a run of equal new keys is one vertex, first met at its least candidate
        run = np.ones(new.size, dtype=bool)
        run[1:] = keys[new[1:]] != keys[new[:-1]]
        starts = np.flatnonzero(run)
        if n + starts.size > budget:
            raise BudgetError(
                f"ball of radius {radius} on {model.name} exceeds the vertex budget "
                f"{budget} (already {budget + 1} vertices at radius {r})"
            )
        first_seen = np.minimum.reduceat(order[new], starts)
        encounter = np.argsort(first_seen)
        rank = np.empty_like(encounter)
        rank[encounter] = np.arange(encounter.size)
        ids[new] = n + rank[np.cumsum(run) - 1]
        frontier = candidates[first_seen[encounter]]
        adjacency = np.empty_like(ids)
        adjacency[order] = ids
        rows.append(adjacency.reshape(-1, model.degree))
        codes.append(frontier)
        depth.append(np.full(starts.size, r, dtype=np.int32))
        if r < radius:  # the index of the last level would go unread
            level = (keys[new[starts]], n + rank)
            last, index = level, _merge(last, level)
        n += starts.size
    return CayleyBall(model, radius, layout, np.concatenate(codes), np.concatenate(depth), np.concatenate(rows))


class CayleyBall:
    """Closed word-metric ball of a given radius, split into interior and sphere.

    Vertices are numbered with the interior (word length < radius) first,
    then the bounding sphere (word length == radius), both in deterministic
    BFS order; vertex 0 is the identity, and ``depth`` is each vertex's word
    length. ``codes`` holds one array-coded element per vertex, and
    ``locate(codes)`` gives the vertex id of each code row, or -1, also for
    rows from a ball of the same group under other generators. ``vertices``
    (the elements as tuples) and ``index`` (element -> vertex id) are decoded
    from the codes on first use. They are the public decode, for the
    element-level edges only: JSON manifests and reports, the tuple
    predicates of markings and subsets, and ``ScalarField.value_at``; the
    probes name vertices by id. ``adj[i, j]`` is the vertex index of
    ``neighbors(vertices[i])[j]`` for interior ``i``; every neighbor of an
    interior vertex stays in the ball.
    ``arcs()`` returns the directed arc multiset used by truncated energy
    sums: both directions of every edge having at least one interior
    endpoint (sphere-to-sphere edges are excluded). ``csr()`` is the whole
    induced graph, sphere-to-sphere edges included, for ``scipy.sparse.csgraph``;
    ``hops(sources)`` gives the hop distances in it from the nearest of some
    vertices, and ``pair_hops(ia, ib)`` the distance of each vertex pair.

    Balls come from ``GroupModel.ball`` and are never modified; the model
    keeps none of them. ``prefix(r)`` is the ball of a smaller radius r as a
    view sharing this ball's arrays.
    """

    def __init__(self, model: GroupModel, radius: int, layout: _KeyLayout, codes: np.ndarray, depth: np.ndarray,
                 rows: np.ndarray):
        self.model = model
        self.radius = radius
        # the key layout of the pass that made the codes, shared by its prefix views
        self._layout = layout
        self._codes = codes
        self.depth = depth
        self.n_interior = int(np.searchsorted(depth, radius))
        # full adjacency rows of the first len(rows) vertices; a prefix view
        # has them for its sphere too, pointing past the ball where it ends
        self._rows = rows
        self.adj = rows[: self.n_interior]
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._vertices: Optional[List[Element]] = None
        self._index: Optional[Dict[Element, int]] = None
        self._arcs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._full_adj: Optional[np.ndarray] = None
        self._csr: Optional[sp.csr_matrix] = None

    def __len__(self) -> int:
        return len(self.depth)

    @property
    def codes(self) -> np.ndarray:
        """One code row per vertex, in vertex order (read-only use)."""
        return self._codes

    def locate(self, codes: np.ndarray) -> np.ndarray:
        """The vertex id of each code row, -1 where the row is not in the
        ball. Rows of another width over the same group are padded with zero
        columns, or trimmed where their extra columns are zero; a wider row
        with a nonzero extra column is absent, and so is a row with a value
        outside the key layout of the ball's pass. The rows are searched in a
        sorted key index of the whole ball, built on first use."""
        codes = np.asarray(codes)
        width = self._codes.shape[1]
        if codes.shape[1] < width:
            codes = np.pad(codes, ((0, 0), (0, width - codes.shape[1])))
        codes, extra = codes[:, :width], codes[:, width:]
        ids = self._find(self._layout.keys(codes))
        ids[extra.any(axis=1) | ~self._layout.inside(codes)] = -1
        return ids

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """The vertex id of each key of the ball's layout, -1 where absent,
        from a sorted key index of the whole ball built on first use."""
        if self._sorted is None:
            self._sorted = _sorted_level(self._codes, 0, self._layout)
        return _locate(keys, self._sorted)

    @property
    def vertices(self) -> List[Element]:
        if self._vertices is None:
            self._vertices = self.model._decode(self._codes)
        return self._vertices

    @property
    def index(self) -> Dict[Element, int]:
        if self._index is None:
            self._index = dict(zip(self.vertices, range(len(self))))
        return self._index

    @property
    def n_boundary(self) -> int:
        return len(self) - self.n_interior

    def prefix(self, radius: int) -> "CayleyBall":
        """The ball of radius 1 <= ``radius`` <= this one's, as a view of the
        first vertices of this ball: vertex ids are prefix-stable, so it is
        the ball ``model.ball(radius)`` enumerates, without a pass."""
        if not 1 <= radius <= self.radius:
            raise ValueError(f"prefix radius must lie in [1, {self.radius}], got {radius}")
        if radius == self.radius:
            return self
        size = int(np.searchsorted(self.depth, radius, side="right"))
        return CayleyBall(self.model, radius, self._layout, self._codes[:size], self.depth[:size], self._rows[:size])

    def boundary_elements(self) -> List[Element]:
        return self.vertices[self.n_interior :]

    def sphere_indices(self, r: int) -> np.ndarray:
        return np.flatnonzero(self.depth == r)

    def core_indices(self, r: int) -> np.ndarray:
        return np.flatnonzero(self.depth <= r)

    def _spell(self, v: int) -> List[str]:
        """A geodesic word of generator labels for vertex v. ``full_adj[v, j]``
        is v s_j^{-1}, so a slot one level closer to the identity gives the
        word's last letter s_j."""
        full = self.full_adj()
        word: List[str] = []
        while self.depth[v] > 0:
            row = full[v]
            closer = (row >= 0) & (self.depth[row] == self.depth[v] - 1)
            j = int(np.argmax(closer))
            word.append(self.model.gen_labels[j])
            v = int(row[j])
        return word[::-1]

    def full_adj(self) -> np.ndarray:
        """Adjacency rows for every vertex, sphere included; -1 marks a
        neighbor that falls outside the ball. The pass recorded the rows of
        the vertices it expanded; those of a sphere the pass did not expand
        are looked up in the key index of ``locate``."""
        if self._full_adj is None:
            n = len(self)
            known = len(self._rows)
            full = np.empty((n, self.model.degree), dtype=np.int64)
            full[:known] = self._rows
            if known < n:
                # one step out of the sphere stays inside the pass's key layout
                nbr_keys = self._layout.keys(self.model._neighbor_codes(self._codes[known:]))
                full[known:] = self._find(nbr_keys).reshape(-1, self.model.degree)
            full[full >= n] = -1
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

    def _search(self, ids: np.ndarray, words: np.ndarray):
        """Up to 64 breadth-first searches inside the ball at once, one bit
        per search: bit k of ``words[i]`` starts search k at the distinct
        vertex ``ids[i]``. Yields, for level 0, 1, ... until a level reaches
        nothing new, the vertices newly reached at that level and ``seen``,
        every vertex's word of the searches that have reached it.

        A level pulls, at each vertex, the OR of its neighbors' words, masked
        by its own; a bit that is new there arrived from the level before.
        While that level has fewer than 1 / (2 x degree) of the vertices, only
        its neighbors pull; this keeps long thin balls from paying for the
        whole ball at every level. ``seen`` carries one zero slot at the end,
        which the -1 entries of ``full_adj`` read. Every word array stays
        ``uint64``: numpy < 2 promotes ``uint64`` with ``int64`` to float64,
        where bitwise operations fail."""
        full = self.full_adj()
        seen = np.zeros(len(self) + 1, dtype=np.uint64)
        near = np.zeros(len(self) + 1, dtype=bool)
        seen[ids] = words
        while ids.size:
            yield ids, seen
            if 2 * full.shape[1] * ids.size < len(self):
                near[full[ids]] = True
                near[-1] = False
                pull = near.nonzero()[0]
                near[pull] = False
                rows = full[pull]
            else:
                pull, rows = np.arange(len(self)), full
            reached = seen[rows[:, 0]]
            for j in range(1, rows.shape[1]):
                reached |= seen[rows[:, j]]
            reached &= ~seen[pull]
            new = reached.nonzero()[0]
            ids = pull[new]
            seen[ids] |= reached[new]

    def _ids(self, ids) -> np.ndarray:
        """``ids`` as an int64 array of vertex ids; ValueError naming the
        first outside [0, len(self)), such as the -1 of ``locate``."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = (ids < 0) | (ids >= len(self))
        if bad.any():
            raise ValueError(f"vertex id {int(ids[bad].flat[0])} outside [0, {len(self)})")
        return ids

    def hops(self, sources) -> np.ndarray:
        """Hop distances inside the ball from one vertex, or from the nearest
        of an array of vertices; -1 where unreached. ValueError for a source
        that is no vertex id of the ball."""
        sources = np.unique(self._ids(sources))
        dist = np.full(len(self), -1, dtype=np.int64)
        for level, (ids, _) in enumerate(self._search(sources, np.ones(sources.size, dtype=np.uint64))):
            dist[ids] = level
        return dist

    def pair_hops(self, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """Hop distance inside the ball from ``ia[k]`` to ``ib[k]`` for each
        k, -1 where unreached; ValueError for an entry that is no vertex id
        of the ball. The distinct sources run 64 at a time, one bit each
        (Then et al., "The More the Merrier", VLDB 2014): a pair's distance
        is the level at which its source's bit first reaches its target, and
        a block stops once all of its pairs are resolved."""
        ia, ib = self._ids(ia), self._ids(ib)
        out = np.full(ia.size, -1, dtype=np.int64)
        sources, slot = np.unique(ia, return_inverse=True)
        for first in range(0, sources.size, 64):
            block = sources[first : first + 64]
            pairs = np.flatnonzero((slot >= first) & (slot < first + block.size))
            bits = np.left_shift(np.uint64(1), (slot[pairs] - first).astype(np.uint64))
            targets = ib[pairs]
            words = np.left_shift(np.uint64(1), np.arange(block.size, dtype=np.uint64))
            for level, (_, seen) in enumerate(self._search(block, words)):
                hit = (seen[targets] & bits) != 0
                if hit.any():
                    out[pairs[hit]] = level
                    pairs, bits, targets = pairs[~hit], bits[~hit], targets[~hit]
                    if not pairs.size:
                        break
        return out

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
        return FreeAbelianModel(_require_int(params, "d", 1, 4), extra)
    if family == "free":
        return FreeGroupModel(_require_int(params, "k", 1, 3), extra)
    if family == "free_product_z2":
        return FreeProductZ2Model(_require_int(params, "m", 2, 4), extra)
    if family == "lamplighter":
        return LamplighterModel(extra)
    raise ValueError(f"unknown family {family!r}; supported: {', '.join(_FAMILIES)}")
