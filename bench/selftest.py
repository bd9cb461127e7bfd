"""Self-test of every oracle on tiny balls; run from the repository root:

    python3 bench/selftest.py

Each oracle is compared with a second, generic route: scipy's L-BFGS-B on
the energy written out here, or a dense numpy solve. The closed forms and
the reference minimiser must reach an energy at least as low as the generic
minimiser and agree with it on the field. Exits 1 on the first mismatch.
"""

import os
import sys
import types

import numpy as np
import scipy.optimize

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import refmin  # noqa: E402

EXPONENTS = (1.2, 1.5, 2.0, 3.0, 8.0)


def arcs(ball):
    """Directed arcs with an interior endpoint, both orientations."""
    out = []
    for i in range(ball.n_interior):
        for j in ball.nbr[i]:
            out.append((i, int(j)))
            if j >= ball.n_interior:
                out.append((int(j), i))
    return np.array(out)


def energy(u, arc, p):
    return float(np.sum(np.abs(u[arc[:, 1]] - u[arc[:, 0]]) ** p))


def generic_minimum(ball, clamped, free, p):
    """L-BFGS-B on the energy over the free vertices."""
    arc = arcs(ball)

    def fill(x):
        u = clamped.copy()
        u[free] = x
        return u

    def fun(x):
        u = fill(x)
        d = u[arc[:, 1]] - u[arc[:, 0]]
        g = np.zeros(len(u))
        w = p * np.sign(d) * np.abs(d) ** (p - 1.0)
        np.add.at(g, arc[:, 1], w)
        np.add.at(g, arc[:, 0], -w)
        return float(np.sum(np.abs(d) ** p)), g[free]

    res = scipy.optimize.minimize(fun, np.full(free.size, 0.5), jac=True, method="L-BFGS-B",
                                  options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20000})
    return fill(res.x)


FAILURES = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def compare(name, ball, clamped, free, u, p, field_tol):
    """u must be at least as good as the generic minimiser, and close to it."""
    v = generic_minimum(ball, clamped, free, p)
    arc = arcs(ball)
    eu, ev = energy(u, arc, p), energy(v, arc, p)
    expect(eu <= ev * (1 + 1e-9) + 1e-15, f"{name}: energy {eu:.12g} vs generic {ev:.12g}")
    if p <= 3.0:  # at p = 8 the generic minimiser pins values far less tightly than the energy
        err = float(np.max(np.abs(u - v)))
        expect(err <= field_tol, f"{name}: field within {err:.1e} of the generic minimiser")


def tree_keys_field(ball, b, p):
    up, down = oracles.tree_marked_profile(b, ball.radius, p)
    return np.array([up[len(g)] if g and g[0] == 1 else down[len(g)] for g in ball.keys])


def main() -> int:
    trees = [("F_2", "free", {"k": 2}, 3, 3), ("Z2*Z2*Z2", "free_product_z2", {"m": 3}, 2, 4)]
    for label, family, params, b, radius in trees:
        ball = refmin.family_ball(family, params, radius)
        clamped = refmin.marked_values(ball, family)
        free = np.arange(ball.n_interior)
        for p in EXPONENTS:
            closed = tree_keys_field(ball, b, p)
            compare(f"tree field {label} R={radius} p={p:g}", ball, clamped, free, closed, p, 1e-4)
            gap = closed[ball.index[(1,)]] - closed[ball.index[(2,) if family == "free_product_z2" else (-1,)]]
            expect(abs(gap - oracles.tree_gap(b, radius, p)) < 1e-12, f"tree gap {label} R={radius} p={p:g}")
            u, _ = refmin.solve(ball, clamped, p)
            err = float(np.max(np.abs(u - closed)))
            expect(err < 1e-9, f"reference minimiser on {label} R={radius} p={p:g}: {err:.1e} from the closed form")

    # capacity and subtree potential on F_2: clamps other than the marked sphere
    ball = refmin.family_ball("free", {"k": 2}, 4)
    arc = arcs(ball)
    for p in EXPONENTS:
        clamped = np.zeros(len(ball.keys))
        clamped[0] = 1.0
        free = np.arange(1, ball.n_interior)
        v = generic_minimum(ball, clamped, free, p)
        want = oracles.tree_capacity(4, 0, 4, p)
        expect(oracles.close(energy(v, arc, p), want, 1e-6), f"tree capacity F_2 R=4 p={p:g}: {energy(v, arc, p):.9g} vs {want:.9g}")
        in_a = np.array([bool(g) and g[0] == 1 for g in ball.keys])
        clamped = np.where(in_a & (ball.depth == 4), 1.0, 0.0)
        free = np.flatnonzero(in_a & (ball.depth < 4))
        v = generic_minimum(ball, clamped, free, p)
        core = float(max(v[i] for i, g in enumerate(ball.keys) if len(g) <= 2))
        want = oracles.tree_subtree_core_sup(3, 4, p)
        expect(abs(core - want) < 1e-5, f"subtree core sup F_2 R=4 p={p:g}: {core:.9g} vs {want:.9g}")

    # reference minimiser on lattices and the lamplighter
    for family, params, radius in (("free_abelian", {"d": 2}, 3), ("free_abelian", {"d": 3}, 2), ("lamplighter", {}, 3)):
        ball = refmin.family_ball(family, params, radius)
        clamped = refmin.marked_values(ball, family)
        free = np.arange(ball.n_interior)
        for p in EXPONENTS:
            u, info = refmin.solve(ball, clamped, p)
            compare(f"reference minimiser {family} R={radius} p={p:g}", ball, clamped, free, u, p, 1e-4)

    # p = 2 sparse solve from model.neighbors against a dense solve on refmin's own ball
    from pharmonic import build_group

    for family, params, radius in (("free", {"k": 2}, 3), ("free_abelian", {"d": 2}, 4), ("lamplighter", {}, 3)):
        model = build_group({"family": family, "params": params})
        pball = model.ball(radius)
        mask = np.zeros(len(pball), dtype=bool)
        mask[pball.n_interior :] = True
        clamped = np.array([float(mask[i] and refmin.marked(family, g)) for i, g in enumerate(pball.vertices)])
        sparse = oracles.linear_field(pball, clamped, mask)
        rball = refmin.family_ball(family, params, radius)
        n = rball.n_interior
        mat = np.zeros((n, n))
        rhs = np.zeros(n)
        rclamped = refmin.marked_values(rball, family)
        for i in range(n):
            for j in rball.nbr[i]:
                mat[i, i] += 1.0
                if j < n:
                    mat[i, j] -= 1.0
                else:
                    rhs[i] += rclamped[j]
        dense = rclamped.copy()
        dense[:n] = np.linalg.solve(mat, rhs)
        err = max(abs(sparse[i] - dense[rball.index[g]]) for i, g in enumerate(pball.vertices))
        expect(err < 1e-12, f"sparse p=2 solve {family} R={radius}: {err:.1e} from the dense solve")

    # stored references: present, complete and converged
    for name, family, params, radius, p in refmin.REFERENCES:
        header, values = refmin.load_reference(name)
        expect(
            header["n_vertices"] == len(refmin.family_ball(family, params, radius).keys)
            and header["last_newton_step"] <= 1e-9 and header["p"] == p,
            f"stored reference {name}: last Newton step {header['last_newton_step']:.1e}",
        )

    # field properties
    lattice = refmin.lattice_ball(2, 3)
    view = types.SimpleNamespace(vertices=lattice.keys, index=lattice.index)
    even = np.array([abs(x[0]) + 0.1 * x[1] for x in lattice.keys])
    expect(oracles.reflection_defect(view, even) == 0.0, "reflection symmetry of a symmetric field")
    expect(oracles.reflection_defect(view, even + 1e-3 * np.array([x[0] for x in lattice.keys])) > 1e-4,
           "reflection symmetry of an asymmetric field")
    expect(oracles.maximum_principle_defect(np.array([0.0, 0.5, 1.0 + 1e-9]), (0.0, 1.0)) > 0, "maximum principle defect")
    expect(oracles.sphere_sizes_ok([1, 4, 12, 36], 4) and not oracles.sphere_sizes_ok([1, 4, 12, 35], 4), "sphere sizes")
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
