"""Translation machinery and the linear functionals induced by p-harmonic fields.

A field h with vanishing p-Laplacian on the interior acts on finitely
supported test functions f through the energy pairing

    T_h(f) = sum over arcs phi_p(dh) df = -2 sum_g f(g) (p-Laplacian of h)(g),

the second form holding whenever the support of f plus one neighbor layer
stays interior. T_h kills differences f - f_x of right translates, which is
what makes it translation invariant; the residual left by a numerical h is
the honest noise floor of that invariance.

Right translation f_x(g) = f(g x^{-1}) shortens the ball it lives on by the
word length of x, so every helper here reports the shrunken radius it ended
up on; the shrunken ball is a prefix of f's ball (``CayleyBall.prefix``).
x is a vertex id of f's ball; ids are prefix-stable, so x names the same
element on every ball of the model that holds it. Translates are row
lookups: x is spelled as a geodesic word off the ball's adjacency, the code
rows of the shrunken ball are right-multiplied by the letters of x^{-1} all
at once, and ``CayleyBall.locate`` finds the products in f's ball.
difference_approximation splits f into a mean of translates along powers of
x (the remainder, small in l^p when n is large) plus a sum of difference
functions that any T_h annihilates; with pairwise disjoint supports the
remainder norm is exactly n^(1/p - 1) times the norm of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dirichlet import Record
from .energy import ScalarField, check_exponent, p_laplacian_interior, pairing, vertex_id
from .groups import CayleyBall


@dataclass
class TranslateReport(Record):
    shift_length: int
    original_radius: int
    radius: int


def _inverse_letters(ball: CayleyBall, x: int) -> Tuple[int, List[str]]:
    """|x| and the family letters spelling x^{-1}, for vertex id x of ``ball``."""
    model = ball.model
    word = ball._spell(vertex_id(x, len(ball)))
    return len(word), [l for s in reversed(word) for l in model._letters(model._inv_label[s])]


def _values_times(f: ScalarField, sub: CayleyBall, letters: List[str]) -> np.ndarray:
    """f(g w) for every vertex g of ``sub``, w the word of family letters."""
    ids = f.ball.locate(f.ball.model._times_letters(sub.codes, letters))
    if (ids < 0).any():
        raise RuntimeError(f"{int(np.count_nonzero(ids < 0))} translated vertices fall outside the field's ball")
    return f.values[ids]


def translate(f: ScalarField, x: int) -> Tuple[ScalarField, TranslateReport]:
    """Right translate f_x(g) = f(g x^{-1}) on the ball shrunk by |x|, x a
    vertex id of f's ball."""
    shift, letters = _inverse_letters(f.ball, x)
    radius = f.ball.radius - shift
    if radius < 1:
        raise ValueError(
            f"translating by a word of length {shift} leaves no ball inside radius {f.ball.radius}"
        )
    sub = f.ball.prefix(radius)
    return ScalarField(sub, _values_times(f, sub, letters)), TranslateReport(shift, f.ball.radius, radius)


@dataclass
class DifferenceReport(Record):
    n_translates: int
    shift_length: int
    radius: int
    remainder_norm: float
    expected_remainder_norm: float
    mass_preserved: bool


def difference_approximation(
    f: ScalarField, x: int, n: int, p: float
) -> Tuple[ScalarField, ScalarField, DifferenceReport]:
    """Split f = d + r with r the mean of the translates along x^0 .. x^(n-1),
    x a vertex id of f's ball.

    The difference part d = (1/n) sum_k (f - f_{x^k}) is a combination of
    translate differences, so any translation-invariant functional sends it
    to zero; the remainder r carries norm about n^(1/p-1) of f's. Translate
    supports must be pairwise disjoint on the shrunken ball (ValueError
    names the first colliding pair of powers otherwise), which also makes
    the remainder norm identity exact when no support mass is clipped.
    """
    check_exponent(p)
    if n < 1:
        raise ValueError("need at least one translate")
    shift, letters = _inverse_letters(f.ball, x)
    radius = f.ball.radius - (n - 1) * shift
    if radius < 1:
        raise ValueError(
            f"{n} translates along a word of length {shift} do not fit inside radius {f.ball.radius}"
        )
    sub = f.ball.prefix(radius)
    translates = [_values_times(f, sub, letters * k) for k in range(n)]

    supports = [np.flatnonzero(v != 0.0) for v in translates]
    owner = np.full(len(sub), -1)
    for k, idx in enumerate(supports):
        taken = idx[owner[idx] >= 0]
        if taken.size:
            i = int(taken[0])
            raise ValueError(f"translates along x^{owner[i]} and x^{k} overlap at vertex id {i}")
        owner[idx] = k

    remainder_vals = np.mean(translates, axis=0)
    remainder = ScalarField(sub, remainder_vals)
    difference = ScalarField(sub, translates[0] - remainder_vals)

    f_mass = int(np.count_nonzero(f.values))
    preserved = all(idx.size == f_mass for idx in supports)
    report = DifferenceReport(
        n_translates=n,
        shift_length=shift,
        radius=radius,
        remainder_norm=remainder.lp_norm(p),
        expected_remainder_norm=float(n ** (1.0 / p - 1.0)) * f.lp_norm(p),
        mass_preserved=preserved,
    )
    return difference, remainder, report


def tilf_evaluate(h: ScalarField, f: ScalarField, p: float, harmonic_tol: Optional[float] = None) -> float:
    """Apply the functional induced by h to the test function f.

    With ``harmonic_tol`` set, first insists that the interior p-Laplacian
    residual of h stays below it, since the functional is only translation
    invariant up to that residual.
    """
    if harmonic_tol is not None:
        residual = float(np.max(np.abs(p_laplacian_interior(h, p)))) if h.ball.n_interior else 0.0
        if residual > harmonic_tol:
            raise ValueError(
                f"field is not p-harmonic to tolerance {harmonic_tol:g} (residual {residual:.3g})"
            )
    return pairing(h, f, p)


def invariance_defect(h: ScalarField, f: ScalarField, x: int, p: float) -> float:
    """|T_h(f) - T_h(f_x)| computed on the common shrunken ball, x a vertex
    id of f's ball.

    Both pairings are evaluated against h restricted to the ball on which
    the translate is defined; for an exactly p-harmonic h and finitely
    supported f this is zero, so the returned value measures how far the
    numerical h is from inducing a genuinely invariant functional.
    """
    check_exponent(p)
    f_x, rep = translate(f, x)
    if rep.shift_length == 0:
        return 0.0
    h_small = h.restrict(f_x.ball)
    f_small = f.restrict(f_x.ball)
    return abs(pairing(h_small, f_small, p) - pairing(h_small, f_x, p))
