"""Command-line front end: manifest-driven runs with reproducible reports.

Every subcommand accepts either a JSON manifest (--manifest run.json) or the
equivalent flags; explicit flags override manifest entries, and the merged
manifest is what gets executed, hashed, and embedded in the report. Reports
are deterministic byte-for-byte across reruns: vertex orders and sweep
schedules are fixed, sampling is seeded, and wall-clock timings are printed
to stdout but never written into files.

Exit codes: 0 on success, 1 on validation problems (bad manifests, unknown
groups, subsets failing their structural checks), 2 when every computation
ran but some solve failed to reach its tolerance. Reports are still written
in the exit-2 case so the run can be inspected.

Output: --out writes the report; --format json (default) gives the full
nested report, --format csv gives the per-radius row table of the task with
'#' header lines carrying the version and the manifest hash. Floats in CSV
use 17 significant digits; JSON floats use Python's shortest round-trip
form, which preserves the same information.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .dirichlet import DirichletProblem, SolverConfig, solve_dirichlet
from .energy import ScalarField, bdp_norm, seminorm_p
from .exhaustion import (
    boundary_witness,
    default_marking,
    half_space_subset,
    inner_potential,
    letter_subtree_subset,
    parabolicity_profile,
    royden_decompose,
)
from .groups import BudgetError, GroupModel, build_group
from .roughiso import CoarseMap, FitError, pullback, rough_inverse, transport_harmonic, validate_rough_map
from .tilf import difference_approximation, invariance_defect, tilf_evaluate, translate

TASKS = ("describe", "solve", "capacity", "witness", "royden", "massive", "roughiso", "tilf")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2


class _CliError(Exception):
    """Validation failure that should surface as exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for non-convergence only
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# manifest plumbing


def _parse_group(text: str) -> dict:
    """Accept '{"family": ...}' JSON, 'lamplighter', or 'free:k=2' shorthand."""
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _CliError(f"--group is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise _CliError("--group JSON must be an object")
        return obj
    family, _, tail = text.partition(":")
    params: Dict[str, object] = {}
    if tail:
        for piece in tail.split(","):
            key, eq, val = piece.partition("=")
            if not eq:
                raise _CliError(f"bad group parameter {piece!r}; expected key=value")
            params[key.strip()] = int(val)
    return {"family": family.strip(), "params": params}


def _parse_radii(text: str) -> List[int]:
    try:
        return [int(t) for t in text.replace(" ", "").split(",") if t]
    except ValueError:
        raise _CliError(f"--radii must be a comma list of integers, got {text!r}")


def _load_manifest(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read manifest: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"manifest is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise _CliError("manifest must be a JSON object")
    return obj


def _merge_manifest(task: str, args: argparse.Namespace) -> dict:
    manifest = _load_manifest(getattr(args, "manifest", None))
    if "task" in manifest and manifest["task"] != task:
        raise _CliError(f"manifest task {manifest['task']!r} does not match subcommand {task!r}")
    manifest["task"] = task
    if isinstance(manifest.get("group"), str):
        manifest["group"] = _parse_group(manifest["group"])
    overrides = {
        "group": getattr(args, "group", None) and _parse_group(args.group),
        "p": getattr(args, "p", None),
        "radius": getattr(args, "radius", None),
        "inner_radius": getattr(args, "inner_radius", None),
        "radii": getattr(args, "radii", None) and _parse_radii(args.radii),
        "tolerance": getattr(args, "tol", None),
        "max_sweeps": getattr(args, "max_sweeps", None),
        "seed": getattr(args, "seed", None),
        "budget": getattr(args, "budget", None),
    }
    for key, value in overrides.items():
        if value is not None:
            manifest[key] = value
    if getattr(args, "extra", None) is not None:
        manifest["extra_word"] = [s for s in args.extra.split(",") if s]
    if getattr(args, "subset", None) is not None:
        kind, _, arg = args.subset.partition(":")
        sub: Dict[str, object] = {"kind": kind}
        if kind == "half_space" and arg:
            sub["coordinate"] = int(arg)
        elif kind == "subtree" and arg:
            sub["letter"] = arg
        manifest["subset"] = sub
    if getattr(args, "field", None) is not None:
        manifest["field"] = {"preset": args.field}
    if getattr(args, "boundary", None) is not None:
        manifest["boundary"] = {"preset": args.boundary}
    return manifest


def _manifest_sha256(manifest: dict) -> str:
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _require(manifest: dict, key: str):
    if key not in manifest:
        raise _CliError(f"manifest for task {manifest.get('task')!r} needs {key!r}")
    return manifest[key]


def _as_int(key: str, value) -> int:
    """A JSON integer (or integral float) manifest value; anything else is exit 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _CliError(f"manifest {key!r} must be an integer, got {value!r}")
    return value


def _as_float(key: str, value) -> float:
    """A JSON number manifest value; anything else is exit 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _CliError(f"manifest {key!r} must be a number, got {value!r}")
    return float(value)


def _int_from(manifest: dict, key: str, default: int) -> int:
    return _as_int(key, manifest.get(key, default))


def _radii_from(manifest: dict) -> List[int]:
    radii = _require(manifest, "radii")
    if not isinstance(radii, list):
        raise _CliError(f"manifest 'radii' must be a list of integers, got {radii!r}")
    return [_as_int("radii", r) for r in radii]


def _budget_from(manifest: dict) -> Optional[int]:
    budget = manifest.get("budget")
    return None if budget is None else _as_int("budget", budget)


def _model_from(manifest: dict) -> GroupModel:
    group = _require(manifest, "group")
    try:
        return build_group(group)
    except (ValueError, KeyError) as exc:
        raise _CliError(f"bad group spec: {exc}")


def _config_from(manifest: dict) -> SolverConfig:
    kwargs = {}
    if "tolerance" in manifest:
        kwargs["tolerance"] = _as_float("tolerance", manifest["tolerance"])
    if "max_sweeps" in manifest:
        kwargs["max_sweeps"] = _as_int("max_sweeps", manifest["max_sweeps"])
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise _CliError(str(exc))


def _exponent_from(manifest: dict) -> float:
    p = _as_float("p", _require(manifest, "p"))
    from .energy import check_exponent

    try:
        return check_exponent(p)
    except ValueError as exc:
        raise _CliError(str(exc))


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_outputs(args, manifest: dict, results: dict, csv_rows: Tuple[List[str], List[list]]) -> None:
    report = {
        "version": __version__,
        "task": manifest["task"],
        "manifest": manifest,
        "manifest_sha256": _manifest_sha256(manifest),
        "results": results,
    }
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", "json") or "json"
    if out and out != "-":
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write_report(fh, fmt, manifest, report, csv_rows)
    else:
        _write_report(sys.stdout, fmt, manifest, report, csv_rows)


def _write_report(fh, fmt: str, manifest: dict, report: dict, csv_rows: Tuple[List[str], List[list]]) -> None:
    if fmt == "json":
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    else:
        colnames, rows = csv_rows
        fh.write(f"# pharmonic {__version__}\n")
        fh.write(f"# task: {manifest['task']}\n")
        fh.write(f"# manifest_sha256: {_manifest_sha256(manifest)}\n")
        fh.write(",".join(colnames) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _rows_from_dicts(dicts: Sequence[dict], columns: Sequence[str]) -> Tuple[List[str], List[list]]:
    return list(columns), [[d[c] for c in columns] for d in dicts]


# ---------------------------------------------------------------------------
# task runners; each returns (results dict, csv table, all_converged)


def _run_describe(manifest: dict):
    model = _model_from(manifest)
    radius = _int_from(manifest, "radius", 6)
    try:
        info = model.describe(radius, _budget_from(manifest))
    except BudgetError as exc:
        raise _CliError(str(exc))
    sizes = info["sphere_sizes"]
    rows = []
    total = 0
    for r, s in enumerate(sizes):
        total += s
        rows.append({"radius": r, "sphere": s, "ball": total})
    info["ball_sizes"] = [row["ball"] for row in rows]
    return info, _rows_from_dicts(rows, ["radius", "sphere", "ball"]), True


def _boundary_values(manifest: dict, model: GroupModel, ball) -> Dict[int, float]:
    boundary = manifest.get("boundary", {"preset": "marked"})
    if not isinstance(boundary, dict):
        raise _CliError(f"manifest 'boundary' must be an object, got {boundary!r}")
    clamps: Dict[int, float] = {}
    if "clamps" in boundary:
        pairs = boundary["clamps"]
        if not isinstance(pairs, list):
            raise _CliError("boundary 'clamps' must be a list of [vertex, value] pairs")
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[1], (int, float))):
                raise _CliError(f"boundary clamp {pair!r} is not a [vertex, value] pair")
            g = model.element_from_obj(pair[0])
            if g not in ball.index:
                raise _CliError(f"clamped vertex {pair[0]} is outside the ball")
            clamps[ball.index[g]] = float(pair[1])
        return clamps
    preset = boundary.get("preset", "marked")
    if preset == "marked":
        marking = default_marking(model)
        for i in range(ball.n_interior, len(ball)):
            clamps[i] = 1.0 if marking.contains(ball.vertices[i]) else 0.0
    elif preset == "random":
        rng = np.random.default_rng(_int_from(manifest, "seed", 0))
        for i in range(ball.n_interior, len(ball)):
            clamps[i] = float(rng.uniform(-1.0, 1.0))
    else:
        raise _CliError(f"unknown boundary preset {preset!r}")
    return clamps


def _run_solve(manifest: dict):
    model = _model_from(manifest)
    p = _exponent_from(manifest)
    radius = _as_int("radius", _require(manifest, "radius"))
    config = _config_from(manifest)
    ball = model.ball(radius, _budget_from(manifest))
    clamps = _boundary_values(manifest, model, ball)
    problem = DirichletProblem(ball, clamps, p)
    u, rep = solve_dirichlet(problem, config)
    results = {
        "model": model.name,
        "p": p,
        "radius": radius,
        "n_vertices": len(ball),
        "n_free": int(problem.free.size),
        "report": rep.to_dict(),
        "value_at_identity": u.value_at(model.identity()),
        "sup_norm": u.sup_norm(),
        "seminorm": seminorm_p(u, p),
        "bdp_norm": bdp_norm(u, p),
    }
    results["report"].pop("elapsed")
    obj = model.element_to_obj
    rows = (
        ["vertex", "depth", "value"],
        [[json.dumps(obj(g)), int(ball.depth[i]), float(u.values[i])] for i, g in enumerate(ball.vertices)],
    )
    return results, rows, rep.converged


def _run_capacity(manifest: dict):
    model = _model_from(manifest)
    p = _exponent_from(manifest)
    radii = _radii_from(manifest)
    inner = _int_from(manifest, "inner_radius", 0)
    config = _config_from(manifest)
    profile = parabolicity_profile(model, radii, p, inner, config, _budget_from(manifest))
    results = profile.to_dict()
    rows = _rows_from_dicts([r.to_dict() for r in profile.rows], ["radius", "capacity", "iterations", "residual", "converged"])
    return results, rows, all(r.converged for r in profile.rows)


def _run_witness(manifest: dict):
    model = _model_from(manifest)
    p = _exponent_from(manifest)
    radii = _radii_from(manifest)
    config = _config_from(manifest)
    report = boundary_witness(model, p, radii, None, config, _budget_from(manifest))
    results = report.to_dict()
    rows = _rows_from_dicts(
        [r.to_dict() for r in report.rows],
        ["radius", "marked_count", "unmarked_count", "u_plus", "u_minus", "gap", "energy", "iterations", "residual", "converged"],
    )
    return results, rows, all(r.converged for r in report.rows)


def _preset_field(manifest: dict, model: GroupModel, ball, p: float, config: SolverConfig) -> ScalarField:
    field_spec = manifest.get("field", {"preset": "witness"})
    if not isinstance(field_spec, dict):
        raise _CliError(f"manifest 'field' must be an object, got {field_spec!r}")
    if "values" in field_spec:
        if not isinstance(field_spec["values"], list):
            raise _CliError("field 'values' must be a list of numbers")
        values = [_as_float("field.values", v) for v in field_spec["values"]]
        if len(values) != len(ball):
            raise _CliError(f"field values list has length {len(values)}, ball has {len(ball)} vertices")
        return ScalarField(ball, np.asarray(values))
    preset = field_spec.get("preset", "witness")
    marking = default_marking(model)
    if preset == "witness":
        clamps = {
            i: (1.0 if marking.contains(ball.vertices[i]) else 0.0) for i in range(ball.n_interior, len(ball))
        }
        u, _ = solve_dirichlet(DirichletProblem(ball, clamps, p), config)
        return u
    if preset == "delta":
        return ScalarField.delta(ball, model.identity())
    if preset == "indicator":
        return ScalarField.indicator(ball, marking.contains)
    raise _CliError(f"unknown field preset {preset!r}")


def _run_royden(manifest: dict):
    model = _model_from(manifest)
    p = _exponent_from(manifest)
    radii = _radii_from(manifest)
    config = _config_from(manifest)
    ball = model.ball(max(radii), _budget_from(manifest))
    f = _preset_field(manifest, model, ball, p, config)
    u, h, report = royden_decompose(model, f, p, radii, config, _budget_from(manifest))
    results = report.to_dict()
    results["h_value_at_identity"] = h.value_at(model.identity())
    results["u_sup_norm"] = u.sup_norm()
    rows = _rows_from_dicts(
        [r.to_dict() for r in report.rows], ["radius", "energy", "core_delta", "iterations", "residual", "converged"]
    )
    return results, rows, all(r.converged for r in report.rows)


def _run_massive(manifest: dict):
    model = _model_from(manifest)
    p = _exponent_from(manifest)
    radii = _radii_from(manifest)
    config = _config_from(manifest)
    sub = _require(manifest, "subset")
    if not isinstance(sub, dict):
        raise _CliError(f"manifest 'subset' must be an object with a 'kind', got {sub!r}")
    kind = sub.get("kind")
    if kind == "half_space":
        subset = half_space_subset(model, _as_int("subset.coordinate", sub.get("coordinate", -1)))
    elif kind == "subtree":
        letter = sub.get("letter", "a")
        if not isinstance(letter, str):
            raise _CliError(f"subset 'letter' must be a generator label, got {letter!r}")
        subset = letter_subtree_subset(model, letter)
    else:
        raise _CliError(f"unknown subset kind {kind!r}; use half_space or subtree")
    field, report = inner_potential(model, subset, radii, p, config, _budget_from(manifest))
    results = report.to_dict()
    rows = _rows_from_dicts(
        [r.to_dict() for r in report.rows],
        ["radius", "core_sup", "core_stab", "boundary_count", "sphere_count", "connected", "energy", "iterations", "converged"],
    )
    return results, rows, all(r.converged for r in report.rows)


def _run_roughiso(manifest: dict):
    base_model = _model_from(manifest)
    p = _exponent_from(manifest)
    radius = _int_from(manifest, "radius", 4)
    seed = _int_from(manifest, "seed", 0)
    config = _config_from(manifest)
    word = manifest.get("extra_word", ["a", "b"])
    if not (isinstance(word, list) and all(isinstance(letter, str) for letter in word)):
        raise _CliError(f"manifest 'extra_word' must be a list of generator labels, got {word!r}")
    group_spec = dict(_require(manifest, "group"))
    params = dict(group_spec.get("params", {}))
    params["extra_generators"] = [list(word)]
    extended = build_group({"family": group_spec["family"], "params": params})

    budget = _budget_from(manifest)
    domain = base_model.ball(radius, budget)
    codomain = extended.ball(radius, budget)
    cmap = CoarseMap.fit(domain, codomain, lambda g: g, seed)
    validation = validate_rough_map(cmap, n_pairs=_int_from(manifest, "n_pairs", 1000), seed=seed + 1)
    psi, inv_report = rough_inverse(cmap, seed)

    rng = np.random.default_rng(seed)
    n_fields = _int_from(manifest, "n_fields", 20)
    pull_rows = []
    all_hold = True
    for i in range(n_fields):
        f = ScalarField(codomain, rng.standard_normal(len(codomain)))
        _, prep = pullback(f, cmap, p)
        all_hold = all_hold and prep.holds
        pull_rows.append({"field": i, "lhs": prep.lhs, "rhs": prep.rhs, "k": prep.k, "holds": prep.holds})

    # transport a witness potential out and back, compare on the core
    marking = default_marking(base_model)
    clamps = {
        i: (1.0 if marking.contains(domain.vertices[i]) else 0.0)
        for i in range(domain.n_interior, len(domain))
    }
    h, h_rep = solve_dirichlet(DirichletProblem(domain, clamps, p), config)
    converged = h_rep.converged
    scope_r = psi.domain.radius
    roundtrip_error = None
    if scope_r >= 3:
        fwd_radii = [scope_r - 1, scope_r]
        phi_fwd, t1 = transport_harmonic(h, psi, p, fwd_radii, config, budget)
        back_ball = base_model.ball(scope_r, budget)
        back_map = CoarseMap.fit(back_ball, phi_fwd.ball, lambda g: g, seed)
        h_back, t2 = transport_harmonic(phi_fwd, back_map, p, fwd_radii, config, budget)
        converged = converged and all(r.converged for r in t1.royden.rows) and all(
            r.converged for r in t2.royden.rows
        )
        core = back_ball.core_indices(2)
        h_small = h.restrict(back_ball)
        roundtrip_error = float(np.max(np.abs(h_back.values[core] - h_small.values[core])))

    results = {
        "domain": base_model.name,
        "codomain": extended.name,
        "p": p,
        "radius": radius,
        "fit": {"a": cmap.a, "b": cmap.b, "c": cmap.c},
        "fit_report": cmap.fit_report.to_dict() if cmap.fit_report else None,
        "validation": validation,
        "inverse": inv_report.to_dict(),
        "inverse_fit": {"a": psi.a, "b": psi.b, "c": psi.c},
        "pullback_checks": pull_rows,
        "pullback_all_hold": all_hold,
        "roundtrip_core_error": roundtrip_error,
    }
    rows = _rows_from_dicts(pull_rows, ["field", "lhs", "rhs", "k", "holds"])
    return results, rows, converged


def _run_tilf(manifest: dict):
    model = _model_from(manifest)
    p = _exponent_from(manifest)
    radii = _radii_from(manifest)
    config = _config_from(manifest)
    report = boundary_witness(model, p, radii, None, config, _budget_from(manifest))
    h = report.field
    ball = h.ball
    converged = all(r.converged for r in report.rows)

    from .energy import p_laplacian

    delta_rows = []
    obj = model.element_to_obj
    for i in ball.core_indices(2):
        g = ball.vertices[int(i)]
        d = ScalarField.delta(ball, g)
        t_val = tilf_evaluate(h, d, p)
        lap = -2.0 * p_laplacian(h, g, p)
        delta_rows.append({"vertex": json.dumps(obj(g)), "T": t_val, "minus_2_laplacian": lap, "gap": abs(t_val - lap)})

    marking = default_marking(model)
    indicator = ScalarField.indicator(ball, marking.contains)
    t_ind = tilf_evaluate(h, indicator, p)

    defects = []
    x = ball.vertices[1]  # first generator direction
    f = ScalarField.delta(ball, model.identity())
    for r in radii:
        sub_rep = boundary_witness(model, p, [max(2, r - 1), r], None, config, _budget_from(manifest))
        h_r = sub_rep.field
        f_r = ScalarField.delta(h_r.ball, model.identity())
        defects.append({"radius": r, "defect": invariance_defect(h_r, f_r, x, p)})
        converged = converged and all(row.converged for row in sub_rep.rows)

    results = {
        "model": model.name,
        "p": p,
        "radii": radii,
        "delta_identity": delta_rows,
        "max_delta_gap": max(r["gap"] for r in delta_rows),
        "indicator_value": t_ind,
        "invariance_defects": defects,
    }
    rows = _rows_from_dicts(delta_rows, ["vertex", "T", "minus_2_laplacian", "gap"])
    return results, rows, converged


_RUNNERS = {
    "describe": _run_describe,
    "solve": _run_solve,
    "capacity": _run_capacity,
    "witness": _run_witness,
    "royden": _run_royden,
    "massive": _run_massive,
    "roughiso": _run_roughiso,
    "tilf": _run_tilf,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="pharmonic", description="p-potential theory experiments on group balls")
    parser.add_argument("--version", action="version", version=f"pharmonic {__version__}")
    subs = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        sp = subs.add_parser(task, help=f"run the {task} task")
        sp.add_argument("--manifest", help="JSON manifest file; flags override its entries")
        sp.add_argument("--group", help="group spec: JSON, 'lamplighter', or 'free:k=2'")
        sp.add_argument("--out", help="write the report to this file")
        sp.add_argument("--format", choices=("json", "csv"), default=None, help="report format (default json)")
        sp.add_argument("--seed", type=int, help="seed for any random sampling")
        sp.add_argument("--budget", type=int, help="vertex budget override for ball construction")
        if task != "describe":
            sp.add_argument("--p", type=float, help="exponent in [1.1, 8]")
            sp.add_argument("--tol", type=float, help="solver tolerance")
            sp.add_argument("--max-sweeps", dest="max_sweeps", type=int, help="solver sweep budget")
        if task in ("describe", "solve", "roughiso"):
            sp.add_argument("--radius", type=int, help="ball radius")
        if task in ("capacity", "witness", "royden", "massive", "tilf"):
            sp.add_argument("--radii", help="comma list of increasing radii")
        if task == "capacity":
            sp.add_argument("--inner-radius", dest="inner_radius", type=int, help="clamped inner ball radius")
        if task == "solve":
            sp.add_argument("--boundary", choices=("marked", "random"), help="boundary preset")
        if task == "royden":
            sp.add_argument("--field", choices=("witness", "delta", "indicator"), help="input field preset")
        if task == "massive":
            sp.add_argument("--subset", help="subset spec: half_space[:coord] or subtree[:letter]")
        if task == "roughiso":
            sp.add_argument("--extra", help="comma list of labels for the extra generator word (default a,b)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        manifest = _merge_manifest(args.task, args)
        results, csv_rows, converged = _RUNNERS[args.task](manifest)
        _write_outputs(args, manifest, results, csv_rows)
    except (_CliError, BudgetError, FitError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    elapsed = time.perf_counter() - started
    where = getattr(args, "out", None) or "stdout"
    print(f"{args.task}: done in {elapsed:.2f}s -> {where}", file=sys.stderr)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
