"""Scalar fields on Cayley balls and the discrete p-energy calculus.

The truncated p-th power energy of a field f on a ball is

    sum over arcs (g, gs^{-1}) of |f(gs^{-1}) - f(g)|^p,

where the arc multiset runs over both directions of every edge with at least
one interior endpoint, so each unordered edge is counted twice (an involutive
generator contributes one arc per occurrence). ``seminorm_p`` is the p-th
root of that sum; it vanishes exactly on constants and is monotone
nondecreasing in the ball radius for a fixed function.

The p-Laplacian at an interior vertex g is

    sum_s |f(gs^{-1}) - f(g)|^{p-2} (f(gs^{-1}) - f(g)),

with the convention that a zero difference contributes zero (needed for
1 < p < 2); terms are evaluated as sign(d) |d|^{p-1}. The pairing

    pairing(h, f) = sum over arcs of sign(dh) |dh|^{p-1} df

recovers seminorm_p(f)^p when h = f and vanishes against constants.

Exponents are restricted to the closed desk range [1.1, 8].
"""

from __future__ import annotations

import numbers
from typing import Callable

import numpy as np

from .groups import CayleyBall, Element

P_MIN = 1.1
P_MAX = 8.0


def check_exponent(p: float) -> float:
    """Validate the exponent; the supported range is [1.1, 8]."""
    p = float(p)
    if not np.isfinite(p) or not (P_MIN <= p <= P_MAX):
        raise ValueError(f"exponent p={p} outside the supported range [{P_MIN}, {P_MAX}]")
    return p


def vertex_id(v, n: int) -> int:
    """v as a vertex id of a ball of n vertices. ValueError for anything but
    an integer in [0, n): a negative id would silently index from the end."""
    if not isinstance(v, numbers.Integral) or not 0 <= v < n:
        raise ValueError(f"vertex id {v!r} outside [0, {n})")
    return int(v)


def phi_p(diff, p: float):
    """sign(diff) * |diff|^{p-1}, elementwise; maps 0 to 0."""
    d = np.asarray(diff, dtype=np.float64)
    return np.sign(d) * np.abs(d) ** (p - 1.0)


class ScalarField:
    """A real-valued function on the vertices of a Cayley ball."""

    __slots__ = ("ball", "values")

    def __init__(self, ball: CayleyBall, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(ball),):
            raise ValueError(f"expected {len(ball)} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.ball = ball
        self.values = values

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(cls, ball: CayleyBall, c: float) -> "ScalarField":
        return cls(ball, np.full(len(ball), float(c)))

    @classmethod
    def delta(cls, ball: CayleyBall, v: int) -> "ScalarField":
        """1 at vertex id v, 0 elsewhere."""
        values = np.zeros(len(ball))
        values[vertex_id(v, len(ball))] = 1.0
        return cls(ball, values)

    @classmethod
    def indicator(cls, ball: CayleyBall, contains: Callable[[Element], bool]) -> "ScalarField":
        values = np.array([1.0 if contains(g) else 0.0 for g in ball.vertices])
        return cls(ball, values)

    # -- access ----------------------------------------------------------------
    def value_at(self, g: Element) -> float:
        return float(self.values[self.ball.index[g]])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def lp_norm(self, p: float) -> float:
        p = check_exponent(p)
        return float(np.sum(np.abs(self.values) ** p) ** (1.0 / p))

    def restrict(self, sub: CayleyBall) -> "ScalarField":
        """Restriction to a smaller ball of the same model, which is a prefix."""
        if sub.model.spec != self.ball.model.spec:
            raise ValueError("restriction target is a ball of another group")
        if len(sub) > len(self.ball):
            raise ValueError("restriction target must not be larger than the source ball")
        return ScalarField(sub, self.values[: len(sub)].copy())

    # -- arithmetic --------------------------------------------------------------
    def _check_same_ball(self, other: "ScalarField") -> None:
        if not self.ball.compatible(other.ball):
            raise ValueError("fields live on different balls")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_ball(other)
        return ScalarField(self.ball, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_ball(other)
        return ScalarField(self.ball, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.ball, self.values * float(scalar))

    __rmul__ = __mul__


def seminorm_p(f: ScalarField, p: float) -> float:
    """p-th root of the truncated energy sum over the ball's arc multiset."""
    p = check_exponent(p)
    src, dst = f.ball.arcs()
    diffs = f.values[dst] - f.values[src]
    return float(np.sum(np.abs(diffs) ** p) ** (1.0 / p))


def bdp_norm(f: ScalarField, p: float) -> float:
    """Sup norm plus the p-seminorm (bounded p-Dirichlet scale)."""
    return f.sup_norm() + seminorm_p(f, p)


def p_laplacian(f: ScalarField, v: int, p: float) -> float:
    """Discrete p-Laplacian at interior vertex id v (zero-difference terms drop)."""
    p = check_exponent(p)
    ball = f.ball
    i = vertex_id(v, len(ball))
    if i >= ball.n_interior:
        raise ValueError(f"vertex index {i} lies on the bounding sphere; the p-Laplacian needs all neighbors")
    diffs = f.values[ball.adj[i]] - f.values[i]
    return float(np.sum(phi_p(diffs, p)))


def p_laplacian_interior(f: ScalarField, p: float) -> np.ndarray:
    """Vector of p-Laplacian values over all interior vertices."""
    p = check_exponent(p)
    ball = f.ball
    diffs = f.values[ball.adj] - f.values[: ball.n_interior, None]
    return np.sum(phi_p(diffs, p), axis=1)


def pairing(h: ScalarField, f: ScalarField, p: float) -> float:
    """sum over arcs of sign(dh)|dh|^{p-1} df; equals seminorm_p(f,p)^p at h=f."""
    p = check_exponent(p)
    if not h.ball.compatible(f.ball):
        raise ValueError("pairing requires both fields on the same ball")
    src, dst = h.ball.arcs()
    dh = h.values[dst] - h.values[src]
    df = f.values[dst] - f.values[src]
    return float(np.sum(phi_p(dh, p) * df))
