"""Independent reference minimiser for marked p-Dirichlet problems.

Nothing here imports pharmonic. The balls are enumerated from scratch
(lattice points by their l^1 norm, lamplighter elements by a breadth-first
search over right multiplication by t, t^-1 and a, reduced words for the
trees), the marked boundary is written out from its definition, and the
p-harmonic field is found by Newton's method on the p-Laplacian equations
with continuation in p from the linear problem at p = 2.

Stopping rule: the Newton correction itself. Near the solution Newton
converges quadratically, so once the sup of the correction falls below
``STEP_TOL`` the field is within about that distance of the exact discrete
minimiser. The p-Laplacian residual is never used as the stop test, because
at large p it pins values only to about residual^(1/(p-1)).

Run ``python3 bench/refmin.py`` from the repository root to recompute every
stored reference field under ``bench/refs``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import deque
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

STEP_TOL = 1e-13
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


class Ball:
    """Closed ball: keys (interior first), key -> index, interior neighbor table."""

    def __init__(self, keys: List[tuple], depth: List[int], radius: int, neighbors: Callable[[tuple], List[tuple]]):
        order = sorted(range(len(keys)), key=lambda i: (depth[i] >= radius, i))
        self.keys = [keys[i] for i in order]
        self.depth = np.array([depth[i] for i in order], dtype=np.int64)
        self.radius = radius
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.n_interior = int(np.sum(self.depth < radius))
        self.nbr = np.array(
            [[self.index[h] for h in neighbors(g)] for g in self.keys[: self.n_interior]], dtype=np.int64
        )


def lattice_ball(d: int, radius: int) -> Ball:
    """Z^d with the l^1 word metric; neighbors are the 2d unit steps."""
    keys, depth = [], []
    for x in itertools.product(range(-radius, radius + 1), repeat=d):
        n = sum(abs(c) for c in x)
        if n <= radius:
            keys.append(x)
            depth.append(n)

    def neighbors(x):
        out = []
        for i in range(d):
            for s in (1, -1):
                y = list(x)
                y[i] += s
                out.append(tuple(y))
        return out

    return Ball(keys, depth, radius, neighbors)


def lamplighter_step(g: tuple, move: str) -> tuple:
    lamps, cursor = g
    if move == "t":
        return (lamps, cursor + 1)
    if move == "T":
        return (lamps, cursor - 1)
    return (tuple(sorted(set(lamps) ^ {cursor})), cursor)


def lamplighter_ball(radius: int) -> Ball:
    """Z2 wr Z with generators t, t^-1, a, enumerated breadth first."""
    moves = ("t", "T", "a")
    start = ((), 0)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        g = queue.popleft()
        if dist[g] == radius:
            continue
        for m in moves:
            h = lamplighter_step(g, m)
            if h not in dist:
                dist[h] = dist[g] + 1
                queue.append(h)
    keys = list(dist)
    return Ball(keys, [dist[k] for k in keys], radius, lambda g: [lamplighter_step(g, m) for m in moves])


def tree_ball(letters: Sequence[int], involutive: bool, radius: int) -> Ball:
    """Reduced words over ``letters``; inverse of letter c is -c, or c itself
    when ``involutive``. F_k uses letters +-1..+-k, Z2*...*Z2 uses 1..m."""
    inv = (lambda c: c) if involutive else (lambda c: -c)

    def times(g, c):
        return g[:-1] if g and g[-1] == inv(c) else g + (c,)

    keys, depth = [()], [0]
    frontier = [()]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for c in letters:
                if not (g and g[-1] == inv(c)):
                    nxt.append(g + (c,))
        keys += nxt
        depth += [r] * len(nxt)
        frontier = nxt
    return Ball(keys, depth, radius, lambda g: [times(g, c) for c in letters])


def family_ball(family: str, params: dict, radius: int) -> Ball:
    if family == "free_abelian":
        return lattice_ball(int(params["d"]), radius)
    if family == "lamplighter":
        return lamplighter_ball(radius)
    if family == "free":
        k = int(params["k"])
        return tree_ball([c for i in range(1, k + 1) for c in (i, -i)], False, radius)
    if family == "free_product_z2":
        return tree_ball(list(range(1, int(params["m"]) + 1)), True, radius)
    raise ValueError(f"no reference ball for family {family!r}")


def marked(family: str, key: tuple) -> bool:
    """The direction marking: last coordinate > 0 on lattices, cursor > 0 on
    the lamplighter, first letter a (code 1) or s1 on the trees."""
    if family == "free_abelian":
        return key[-1] > 0
    if family == "lamplighter":
        return key[1] > 0
    return len(key) > 0 and key[0] == 1


def marked_values(ball: Ball, family: str) -> np.ndarray:
    u = np.zeros(len(ball.keys))
    for i in range(ball.n_interior, len(ball.keys)):
        u[i] = 1.0 if marked(family, ball.keys[i]) else 0.0
    return u


def _phi(d: np.ndarray, p: float) -> np.ndarray:
    return np.sign(d) * np.abs(d) ** (p - 1.0)


def _energy(u: np.ndarray, ball: Ball, p: float) -> float:
    d = u[ball.nbr] - u[: ball.n_interior, None]
    # interior-interior edges appear twice in the table, interior-sphere once;
    # the arc multiset counts each such edge twice, so add the sphere arcs again
    to_sphere = ball.nbr >= ball.n_interior
    return float(np.sum(np.abs(d) ** p) + np.sum(np.abs(d[to_sphere]) ** p))


def _residual(u: np.ndarray, ball: Ball, p: float) -> np.ndarray:
    """Interior p-Laplacian: sum over neighbours of sign(d)|d|^(p-1)."""
    return np.sum(_phi(u[ball.nbr] - u[: ball.n_interior, None], p), axis=1)


def _newton_direction(u: np.ndarray, ball: Ball, p: float) -> np.ndarray:
    """Solve J delta = -F for the interior p-Laplacian F (all interior free)."""
    n = ball.n_interior
    d = u[ball.nbr] - u[:n, None]
    scale = float(np.max(np.abs(d)))
    if p < 2.0:
        mu = 1e-14 * max(scale, 1e-300)
        w = (p - 1.0) * (d * d + mu * mu) ** (0.5 * (p - 2.0))
    else:
        w = (p - 1.0) * np.abs(d) ** (p - 2.0)
    F = _residual(u, ball, p)
    inner = ball.nbr < n
    rows = np.repeat(np.arange(n), ball.nbr.shape[1]).reshape(n, -1)
    data = np.concatenate([-w.sum(axis=1), w[inner]])
    ii = np.concatenate([np.arange(n), rows[inner]])
    jj = np.concatenate([np.arange(n), ball.nbr[inner]])
    jac = sp.csc_matrix((data, (ii, jj)), shape=(n, n))
    return spla.spsolve(jac, -F)


def _newton(u: np.ndarray, ball: Ball, p: float, step_tol: float, max_steps: int = 400) -> Tuple[np.ndarray, float, int]:
    """Damped Newton on the interior p-Laplacian; returns (field, last step, steps).

    Steps are accepted under an energy decrease. Close to the solution the
    energy is flat at float64 resolution (at large p long before the field
    is accurate), and then a full step is accepted when it lowers the
    residual norm instead. The run ends when the correction is below
    ``step_tol``, when it stops shrinking at roundoff level, or when neither
    test accepts a step (float64 resolution at p < 2, where the regions that
    cannot be resolved are nearly flat, so their values are still pinned).
    """
    n = ball.n_interior
    energy = _energy(u, ball, p)
    last = np.inf
    for k in range(1, max_steps + 1):
        delta = _newton_direction(u, ball, p)
        size = float(np.max(np.abs(delta)))
        if not np.isfinite(size):
            raise FloatingPointError("Newton direction is not finite")
        if size <= step_tol or (size < 1e-10 and size >= 0.5 * last):
            return u, size, k
        alpha = 1.0
        while alpha >= 1e-12:
            trial = u.copy()
            trial[:n] += alpha * delta
            e = _energy(trial, ball, p)
            if e < energy:
                break
            alpha *= 0.5
        else:
            alpha = 1.0
            trial = u.copy()
            trial[:n] += delta
            e = _energy(trial, ball, p)
            if np.linalg.norm(_residual(trial, ball, p)) >= np.linalg.norm(_residual(u, ball, p)):
                return u, size, k
        u, energy = trial, e
        last = size if alpha == 1.0 else np.inf
    raise RuntimeError(f"Newton did not settle within {max_steps} steps at p={p}")


def linear_start(ball: Ball, clamped: np.ndarray) -> np.ndarray:
    u = clamped.copy()
    u[: ball.n_interior] = 0.5 * (clamped[ball.n_interior :].min() + clamped[ball.n_interior :].max())
    return _newton(u, ball, 2.0, STEP_TOL)[0]


def p_schedule(p: float) -> List[float]:
    if p >= 2.0:
        stages = [q for q in (2.5, 3.0, 4.0, 5.0, 6.0, 7.0) if q < p]
    else:
        stages = [q for q in (1.8, 1.6, 1.5, 1.4, 1.3, 1.2) if q > p]
    return stages + [p]


def solve(ball: Ball, clamped: np.ndarray, p: float) -> Tuple[np.ndarray, dict]:
    """p-harmonic extension of the sphere values in ``clamped``."""
    u = linear_start(ball, clamped)
    steps = 0
    size = 0.0
    if p != 2.0:
        for q in p_schedule(p):
            tol = STEP_TOL if q == p else 1e-8
            u, size, k = _newton(u, ball, q, tol)
            steps += k
    return u, {"newton_steps": steps, "last_step": size, "residual": float(np.max(np.abs(_residual(u, ball, p))))}


# ---------------------------------------------------------------------------
# stored references


def lattice_key(x: tuple) -> tuple:
    """Orbit key under reflections and permutations of the first d-1 coordinates."""
    return tuple(sorted(abs(c) for c in x[:-1])) + (x[-1],)


def element_key(family: str, x: tuple) -> tuple:
    return lattice_key(x) if family == "free_abelian" else x


# (name, family, params, radius, p): every lattice or lamplighter field at
# p != 2 that the benchmark checks against a stored reference
REFERENCES = [
    ("z2_r30_p1.2", "free_abelian", {"d": 2}, 30, 1.2),
    ("z2_r30_p1.5", "free_abelian", {"d": 2}, 30, 1.5),
    ("z2_r30_p3", "free_abelian", {"d": 2}, 30, 3.0),
    ("z2_r30_p8", "free_abelian", {"d": 2}, 30, 8.0),
    ("z3_r14_p1.5", "free_abelian", {"d": 3}, 14, 1.5),
    ("z3_r14_p3", "free_abelian", {"d": 3}, 14, 3.0),
    ("z3_r20_p3", "free_abelian", {"d": 3}, 20, 3.0),
    ("lamp_r9_p1.2", "lamplighter", {}, 9, 1.2),
    ("lamp_r9_p1.5", "lamplighter", {}, 9, 1.5),
    ("lamp_r9_p3", "lamplighter", {}, 9, 3.0),
    ("lamp_r8_p1.5", "lamplighter", {}, 8, 1.5),
]


def reference_path(name: str) -> str:
    return os.path.join(REF_DIR, name + ".json")


def compute_reference(name: str, family: str, params: dict, radius: int, p: float) -> dict:
    ball = family_ball(family, params, radius)
    u, info = solve(ball, marked_values(ball, family), p)
    values: Dict[tuple, float] = {}
    for k, v in zip(ball.keys, u):
        key = element_key(family, k)
        if key in values and abs(values[key] - v) > 1e-10:
            raise AssertionError(f"{name}: reference breaks the coordinate symmetry at {k}")
        values.setdefault(key, float(v))
    entries = sorted(values.items())
    return {
        "name": name,
        "family": family,
        "params": params,
        "radius": radius,
        "p": p,
        "n_vertices": len(ball.keys),
        "newton_steps": info["newton_steps"],
        "last_newton_step": info["last_step"],
        "residual": info["residual"],
        "keys": [list(k) if family == "free_abelian" else [list(k[0]), k[1]] for k, _ in entries],
        "values": [float(f"{v:.15g}") for _, v in entries],
    }


def load_reference(name: str) -> Tuple[dict, Dict[tuple, float]]:
    """Stored reference as (header, key -> value) with keys as element tuples."""
    with open(reference_path(name), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj["family"] == "free_abelian":
        keys = [tuple(k) for k in obj["keys"]]
    else:
        keys = [(tuple(k[0]), k[1]) for k in obj["keys"]]
    return obj, dict(zip(keys, obj["values"]))


def main() -> int:
    os.makedirs(REF_DIR, exist_ok=True)
    for name, family, params, radius, p in REFERENCES:
        t0 = time.perf_counter()
        obj = compute_reference(name, family, params, radius, p)
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
            fh.write("\n")
        print(
            f"{name}: {obj['n_vertices']} vertices, {len(obj['keys'])} orbits, "
            f"{obj['newton_steps']} Newton steps, last step {obj['last_newton_step']:.1e}, "
            f"residual {obj['residual']:.1e}, {time.perf_counter() - t0:.1f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
