"""The three workloads: their cases, the timed work of each case, and its check.

A case's ``run`` is the work a user waits for and the only part that is
timed. It builds its own group model and ball, as one CLI call would, so
nothing carries over between cases or passes. A case's ``check`` returns
the problems it found (an empty list means correct); it compares against
the independent computations in ``oracles`` and never against stored
program output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

# program functions are looked up through their modules at call time, so the
# traced run sees the wrapped bindings
from pharmonic import cli, dirichlet, exhaustion, groups

import oracles
import refmin

# sweep caps of the p = 1.1 rows that would otherwise run for minutes
P11_SWEEP_CAP = 300

# the program faults that make a case fail at this commit (bench/README.md,
# "Expected failures"); a failing case without one makes the run incorrect
P11_STOP_RULE = "p = 1.1 stop rule: dirichlet._convergence with the 40-round stall guard"
P8_ACCURACY = "p = 8 accuracy: absolute sup-residual tolerance 1e-8 in solve_dirichlet"
LAMP_ROUGHISO = "lamplighter roughiso fit: distances measured inside the ball graph"


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    report_path: Optional[str] = None  # CLI cases: the report file the run writes
    known_fault: Optional[str] = None  # the program fault this case is expected to fail from


def _spec(family: str, params: dict) -> dict:
    return {"family": family, "params": dict(params)}


def _label(family: str, params: dict) -> str:
    return family + "".join(f":{k}={v}" for k, v in params.items())


# ---------------------------------------------------------------------------
# marked solves


class SolveCheck:
    """Convergence, maximum principle, lattice symmetry and the field itself
    against the closed form, the p = 2 sparse solve or the stored reference."""

    def __init__(self, family: str, params: dict, radius: int, p: float):
        self.family, self.params, self.radius, self.p = family, params, radius, p
        self.reference = next(
            (r[0] for r in refmin.REFERENCES if r[1:] == (family, params, radius, p)), None
        )
        self._expected: Optional[list] = None  # [(what, tolerance, values)], built on first use

    def _expected_fields(self, ball) -> list:
        out = []
        spec = _spec(self.family, self.params)
        b = oracles.tree_branching(spec)
        if b is not None:
            out.append(("closed form", oracles.FIELD_TOL, oracles.tree_marked_field(ball, b, self.p)))
        if self.p == 2.0:
            mask = np.zeros(len(ball), dtype=bool)
            mask[ball.n_interior :] = True
            clamped = np.array([float(mask[i] and refmin.marked(self.family, g)) for i, g in enumerate(ball.vertices)])
            out.append(("sparse p=2 solve", oracles.LINEAR_TOL, oracles.linear_field(ball, clamped, mask)))
        if self.reference is not None:
            _, values = refmin.load_reference(self.reference)
            out.append(("reference " + self.reference, oracles.FIELD_TOL, oracles.reference_field(ball, self.family, values)))
        return out

    def __call__(self, result) -> List[str]:
        ball, u, report = result
        problems = []
        if not report.converged:
            problems.append(f"converged=False after {report.iterations} iterations (residual {report.residual:.2e})")
        mp = oracles.maximum_principle_defect(u, (0.0, 1.0))
        if mp > 1e-12:
            problems.append(f"maximum principle broken by {mp:.2e}")
        if self._expected is None:
            self._expected = self._expected_fields(ball)
        for what, tol, values in self._expected:
            err = float(np.max(np.abs(u - values)))
            if err > tol:
                problems.append(f"field off the {what} by {err:.2e} (tolerance {tol:g})")
        if self.family == "free_abelian":
            sym = oracles.reflection_defect(ball, u)
            if sym > oracles.SYMMETRY_TOL:
                problems.append(f"coordinate reflection symmetry broken by {sym:.2e}")
        return problems


def solve_case(
    family: str, params: dict, radius: int, p: float, max_sweeps: Optional[int] = None, known_fault: Optional[str] = None
) -> Case:
    spec = _spec(family, params)
    config = dirichlet.SolverConfig(max_sweeps=max_sweeps) if max_sweeps else None

    def run():
        model = groups.build_group(spec)
        ball = model.ball(radius)
        marking = exhaustion.default_marking(model)
        clamps = {i: float(marking.contains(ball.vertices[i])) for i in range(ball.n_interior, len(ball))}
        field, report = dirichlet.solve_dirichlet(dirichlet.DirichletProblem(ball, clamps, p), config)
        return ball, field.values, report

    cap = f" cap={max_sweeps}" if max_sweeps else ""
    name = f"solve {_label(family, params)} R={radius} p={p:g}{cap}"
    return Case(name, run, SolveCheck(family, params, radius, p), known_fault=known_fault)


def marked_solve_cases(out_dir: str) -> List[Case]:
    cases = []
    for p in (1.2, 1.5, 3.0, 8.0):
        fault = P8_ACCURACY if p == 8.0 else None
        cases.append(solve_case("free", {"k": 2}, 8, p, known_fault=fault))
        cases.append(solve_case("free_abelian", {"d": 2}, 30, p, known_fault=fault))
    for p in (1.5, 3.0):
        cases.append(solve_case("free_abelian", {"d": 3}, 14, p))
    cases.append(solve_case("free_product_z2", {"m": 3}, 9, 1.5))
    for p in (1.2, 1.5, 3.0):
        cases.append(solve_case("lamplighter", {}, 9, p))
    cases.append(solve_case("free", {"k": 2}, 7, 1.1, known_fault=P11_STOP_RULE))
    cases.append(solve_case("free_product_z2", {"m": 3}, 9, 1.1, known_fault=P11_STOP_RULE))
    cases.append(solve_case("free_abelian", {"d": 2}, 20, 1.1, P11_SWEEP_CAP, P11_STOP_RULE))
    cases.append(solve_case("lamplighter", {}, 8, 1.1, P11_SWEEP_CAP, P11_STOP_RULE))
    return cases


def big_ball_cases(out_dir: str) -> List[Case]:
    return [
        solve_case("free", {"k": 2}, 10, 2.0),
        solve_case("free", {"k": 2}, 10, 8.0, known_fault=P8_ACCURACY),
        solve_case("free_abelian", {"d": 3}, 20, 2.0),
        solve_case("free_abelian", {"d": 3}, 20, 3.0),
    ]


# ---------------------------------------------------------------------------
# CLI probes


class CliCheck:
    """Exit code 0, the same report bytes on every run, and the task's own check."""

    def __init__(self, check_results: Callable[[dict], List[str]]):
        self.check_results = check_results
        self.first_bytes: Optional[bytes] = None

    def __call__(self, result) -> List[str]:
        code, path, stderr = result
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        with open(path, "rb") as fh:
            data = fh.read()
        problems = []
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            problems.append("report bytes differ from the first run")
        return problems + self.check_results(json.loads(data)["results"])


def cli_case(
    out_dir: str,
    argv: List[str],
    out_name: str,
    check_results: Callable[[dict], List[str]],
    known_fault: Optional[str] = None,
) -> Case:
    path = os.path.join(out_dir, out_name)

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", path])
        return code, path, err.getvalue()

    return Case("cli " + " ".join(argv), run, CliCheck(check_results), report_path=path, known_fault=known_fault)


def _expect(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_describe(res: dict) -> List[str]:
    problems: List[str] = []
    _expect(problems, oracles.sphere_sizes_ok(res["sphere_sizes"], 4), f"sphere sizes {res['sphere_sizes']}")
    return problems


def _check_random_solve(res: dict) -> List[str]:
    # clamps are uniform in [-1, 1]; the maximum principle bounds the field
    problems: List[str] = []
    _expect(problems, res["report"]["converged"], "solve did not converge")
    _expect(problems, res["sup_norm"] <= 1.0 + 1e-12, f"sup norm {res['sup_norm']} above the clamp range")
    energy = res["seminorm"] ** res["p"]
    _expect(problems, oracles.close(energy, res["report"]["final_energy"], 1e-9), "seminorm^p differs from the reported energy")
    return problems


def _check_tree_capacity(b: int, p: float):
    def check(res: dict) -> List[str]:
        problems: List[str] = []
        for row in res["rows"]:
            want = oracles.tree_capacity(b + 1, res["inner_radius"], row["radius"], p)
            _expect(problems, row["converged"], f"R={row['radius']} did not converge")
            _expect(problems, oracles.close(row["capacity"], want, oracles.FIELD_TOL),
                    f"capacity at R={row['radius']} is {row['capacity']}, series rule gives {want}")
        _expect(problems, res["verdict"] == "non_parabolic", f"verdict {res['verdict']}")
        return problems

    return check


def _check_tree_witness(b: int, p: float):
    def check(res: dict) -> List[str]:
        problems: List[str] = []
        for row in res["rows"]:
            want = oracles.tree_gap(b, row["radius"], p)
            _expect(problems, row["converged"], f"R={row['radius']} did not converge")
            _expect(problems, oracles.close(row["gap"], want, oracles.FIELD_TOL),
                    f"gap at R={row['radius']} is {row['gap']}, series rule gives {want}")
        _expect(problems, res["verdict"] == "witness_found", f"verdict {res['verdict']}")
        return problems

    return check


def _check_royden(h_identity: float, tol: float):
    # the witness field is already p-harmonic: h equals it and u = f - h vanishes
    def check(res: dict) -> List[str]:
        problems: List[str] = []
        _expect(problems, all(r["converged"] for r in res["rows"]), "a Royden solve did not converge")
        _expect(problems, res["u_sphere_sup"] == 0.0, f"u on the sphere is {res['u_sphere_sup']}")
        _expect(problems, res["u_core_sup"] <= tol, f"u on the core is {res['u_core_sup']}")
        _expect(problems, abs(res["h_value_at_identity"] - h_identity) <= tol,
                f"h(e) is {res['h_value_at_identity']}, independent value {h_identity}")
        return problems

    return check


def _check_tree_massive(b: int, p: float):
    def check(res: dict) -> List[str]:
        problems: List[str] = []
        for row in res["rows"]:
            want = oracles.tree_subtree_core_sup(b, row["radius"], p)
            _expect(problems, row["converged"], f"R={row['radius']} did not converge")
            _expect(problems, oracles.close(row["core_sup"], want, oracles.FIELD_TOL),
                    f"core sup at R={row['radius']} is {row['core_sup']}, series rule gives {want}")
        _expect(problems, res["verdict"] == "massive", f"verdict {res['verdict']}")
        return problems

    return check


def _check_roughiso(res: dict) -> List[str]:
    problems: List[str] = []
    val = res["validation"]
    _expect(problems, res["pullback_all_hold"], "an energy pullback inequality fails")
    _expect(problems, res["inverse"]["within_bounds"], "rough inverse displacement out of bounds")
    _expect(problems, val["violations_forward"] == 0 and val["violations_backward"] == 0,
            f"validation finds {val['violations_forward']} forward and {val['violations_backward']} backward "
            f"violations of a={val['a']}, b={val['b']} in {val['n_pairs']} fresh pairs")
    return problems


def _check_tilf(res: dict) -> List[str]:
    problems: List[str] = []
    _expect(problems, res["max_delta_gap"] <= 1e-12, f"max_delta_gap {res['max_delta_gap']:.2e}")
    return problems


def _check_lattice_capacity(res: dict) -> List[str]:
    # Z^2 is p-hyperbolic for p < 2: capacities level off and never grow
    problems: List[str] = []
    caps = [r["capacity"] for r in res["rows"]]
    _expect(problems, all(r["converged"] for r in res["rows"]), "a capacity solve did not converge")
    _expect(problems, all(b <= a for a, b in zip(caps, caps[1:])), f"capacities increase: {caps}")
    _expect(problems, res["verdict"] == "non_parabolic", f"verdict {res['verdict']}")
    return problems


def probe_cli_cases(out_dir: str) -> List[Case]:
    os.makedirs(out_dir, exist_ok=True)
    _, lamp_r8 = refmin.load_reference("lamp_r8_p1.5")
    lamp_h_identity = lamp_r8[((), 0)]
    f2, z3 = "free:k=2", "free_product_z2:m=3"
    return [
        # the README commands; --out is pointed into the run directory
        cli_case(out_dir, ["describe", "--group", f2, "--radius", "4"], "describe.json", _check_describe),
        cli_case(out_dir, ["solve", "--group", "lamplighter", "--radius", "5", "--p", "1.5", "--boundary", "random",
                           "--seed", "7"], "run.json", _check_random_solve),
        cli_case(out_dir, ["capacity", "--group", f2, "--radii", "2,4,6,8", "--p", "2.0"], "cap.json",
                 _check_tree_capacity(3, 2.0)),
        cli_case(out_dir, ["witness", "--group", z3, "--radii", "5,6,7", "--p", "2.0"], "wit.json",
                 _check_tree_witness(2, 2.0)),
        cli_case(out_dir, ["royden", "--group", f2, "--radii", "4,5,6", "--p", "2.0", "--field", "witness"], "roy.json",
                 _check_royden(oracles.tree_identity_value(3, 2.0), oracles.LINEAR_TOL)),
        cli_case(out_dir, ["massive", "--group", f2, "--radii", "4,5,6,7", "--p", "2.0", "--subset", "subtree:a"],
                 "mas.json", _check_tree_massive(3, 2.0)),
        cli_case(out_dir, ["roughiso", "--group", f2, "--radius", "7", "--extra", "a,b", "--p", "2.0"], "iso.json",
                 _check_roughiso),
        cli_case(out_dir, ["tilf", "--group", f2, "--radii", "5,6", "--p", "2.0"], "tilf.json", _check_tilf),
        # six more probes
        cli_case(out_dir, ["witness", "--group", f2, "--radii", "6,7,8", "--p", "1.5"], "wit-f2-p1.5.json",
                 _check_tree_witness(3, 1.5)),
        cli_case(out_dir, ["capacity", "--group", "free_abelian:d=2", "--radii", "4,8,16,24", "--p", "1.5"],
                 "cap-z2-p1.5.json", _check_lattice_capacity),
        cli_case(out_dir, ["royden", "--group", "lamplighter", "--radii", "6,7,8", "--p", "1.5"], "roy-lamp-p1.5.json",
                 _check_royden(lamp_h_identity, oracles.FIELD_TOL)),
        cli_case(out_dir, ["tilf", "--group", z3, "--radii", "6,7", "--p", "3"], "tilf-z3-p3.json", _check_tilf),
        cli_case(out_dir, ["roughiso", "--group", "free_abelian:d=2", "--radius", "10", "--extra", "x1,x2", "--p", "2.0"],
                 "iso-z2.json", _check_roughiso),
        cli_case(out_dir, ["roughiso", "--group", "lamplighter", "--radius", "7", "--extra", "t,a", "--p", "2.0"],
                 "iso-lamp.json", _check_roughiso, LAMP_ROUGHISO),
    ]


WORKLOADS: Dict[str, Callable[[str], List[Case]]] = {
    "marked-solve": marked_solve_cases,
    "big-ball": big_ball_cases,
    "probe-cli": probe_cli_cases,
}
