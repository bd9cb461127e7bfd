"""Independent checks for the benchmark cases.

None of these call the pharmonic code they check. They read a program ball
only through its vertex list, its index and ``model.neighbors`` (the same
inputs a user has) and compute the expected answer apart:

* closed forms on regular trees from the p-resistance series rule: with
  branching b and q = 1/(p-1) the marked field has u(e) = 1/(1+b^q), the
  probe gap is 1/sum_{r<R} b^(-rq), capacities follow the radial rule of
  the test suite, and the subtree potential rises by the same series;
* a p = 2 sparse solve assembled from ``model.neighbors``;
* stored reference fields for lattices and the lamplighter, computed by
  ``refmin.py`` (its own balls, its own Newton minimiser);
* properties every solution has: the maximum principle and, on lattices,
  the reflection symmetry of the first d-1 coordinates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import refmin

FIELD_TOL = 1e-6
LINEAR_TOL = 1e-8
SYMMETRY_TOL = 1e-6


# ---------------------------------------------------------------------------
# closed forms on regular trees


def tree_branching(spec: dict) -> Optional[int]:
    """Branching number b of the Cayley tree, or None for other families."""
    params = spec.get("params", {})
    if spec["family"] == "free":
        return 2 * int(params["k"]) - 1
    if spec["family"] == "free_product_z2":
        return int(params["m"]) - 1
    return None


def _series(b: int, q: float, n: int) -> float:
    return sum(float(b) ** (-r * q) for r in range(n))


def tree_gap(b: int, radius: int, p: float) -> float:
    """u(plus probe) - u(minus probe) of the marked field on a radius-R tree ball."""
    return 1.0 / _series(b, 1.0 / (p - 1.0), radius)


def tree_identity_value(b: int, p: float) -> float:
    return 1.0 / (1.0 + float(b) ** (1.0 / (p - 1.0)))


def tree_marked_profile(b: int, radius: int, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """Marked field by depth: (values on the marked branch, values elsewhere)."""
    q = 1.0 / (p - 1.0)
    jq = 1.0 / (_series(b, q, radius) * (1.0 + float(b) ** -q))
    ue = tree_identity_value(b, p)
    climb = np.array([jq * _series(b, q, r) for r in range(radius + 1)])
    return ue + climb, ue - float(b) ** -q * climb


def tree_marked_field(ball, b: int, p: float) -> np.ndarray:
    """Closed-form marked field in the ball's vertex order. The first letter
    of the marked branch is the first generator label (a or s1)."""
    model = ball.model
    first = model.gen_labels[0]
    up, down = tree_marked_profile(b, ball.radius, p)
    out = np.empty(len(ball))
    for i, g in enumerate(ball.vertices):
        word = model.element_to_obj(g)
        out[i] = up[len(word)] if word and word[0] == first else down[len(word)]
    return out


def tree_capacity(degree: int, inner: int, outer: int, p: float) -> float:
    """Radial condenser value: shells r and r+1 are joined by degree*b^r edges."""
    b = degree - 1
    q = 1.0 / (p - 1.0)
    total = sum(float(degree * b ** r) ** (-q) for r in range(inner, outer))
    return 2.0 * total ** (1.0 - p)


def tree_subtree_core_sup(b: int, radius: int, p: float) -> float:
    """Potential at depth 2 inside the first-letter subtree (0 off it, 1 on its sphere)."""
    q = 1.0 / (p - 1.0)
    return _series(b, q, 2) / _series(b, q, radius)


# ---------------------------------------------------------------------------
# p = 2 sparse solve


def linear_field(ball, clamped: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """2-harmonic extension of the clamped values, assembled from model.neighbors."""
    model = ball.model
    index = ball.index
    free = np.flatnonzero(~mask)
    local = np.full(len(ball), -1, dtype=np.int64)
    local[free] = np.arange(free.size)
    deg = model.degree
    nbr = np.fromiter(
        (index[h] for i in free for h in model.neighbors(ball.vertices[i])), dtype=np.int64, count=free.size * deg
    ).reshape(free.size, deg)
    inner = local[nbr] >= 0
    rows = np.repeat(np.arange(free.size), deg).reshape(free.size, deg)
    mat = sp.csc_matrix(
        (
            np.concatenate([np.full(free.size, float(deg)), -np.ones(int(inner.sum()))]),
            (np.concatenate([np.arange(free.size), rows[inner]]), np.concatenate([np.arange(free.size), local[nbr][inner]])),
        ),
        shape=(free.size, free.size),
    )
    rhs = np.where(inner, 0.0, clamped[nbr]).sum(axis=1)
    out = clamped.astype(float).copy()
    out[free] = spla.spsolve(mat, rhs)
    return out


# ---------------------------------------------------------------------------
# stored references and field properties


def reference_field(ball, family: str, values: Dict[tuple, float]) -> np.ndarray:
    return np.array([values[refmin.element_key(family, g)] for g in ball.vertices])


def reflection_defect(ball, u: np.ndarray) -> float:
    """Largest |u(x) - u(x with coordinate i negated)| over i < d-1 on Z^d."""
    d = len(ball.vertices[0])
    worst = 0.0
    for axis in range(d - 1):
        for i, x in enumerate(ball.vertices):
            if x[axis] > 0:
                y = x[:axis] + (-x[axis],) + x[axis + 1 :]
                worst = max(worst, abs(u[i] - u[ball.index[y]]))
    return worst


def maximum_principle_defect(u: np.ndarray, clamped: Sequence[float]) -> float:
    lo, hi = float(np.min(clamped)), float(np.max(clamped))
    return float(max(lo - np.min(u), np.max(u) - hi, 0.0))


def close(actual: float, expected: float, tol: float) -> bool:
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def sphere_sizes_ok(sizes: List[int], degree: int) -> bool:
    """Sphere sizes of the 2k-regular tree: 1, then degree*(degree-1)^(r-1)."""
    return sizes == [1] + [degree * (degree - 1) ** (r - 1) for r in range(1, len(sizes))]
