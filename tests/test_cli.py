"""End-to-end command runs: manifests, report files, exit codes."""

import csv
import json
import os
import shlex
import subprocess
import sys

import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg

import pharmonic
import pharmonic.cli
import pharmonic.dirichlet
import pharmonic.exhaustion
from pharmonic import CayleyBall, solve_dirichlet
from pharmonic.cli import TASKS, main


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse-level failures
        return int(exc.code)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_describe_stdout(capsys):
    assert run_cli(["describe", "--group", "free:k=2", "--radius", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["sphere_sizes"] == [1, 4, 12, 36]
    assert report["results"]["ball_sizes"] == [1, 5, 17, 53]
    assert report["task"] == "describe"
    assert len(report["manifest_sha256"]) == 64


def test_solve_marked_boundary(tmp_path):
    out = tmp_path / "solve.json"
    code = run_cli(
        ["solve", "--group", "free_abelian:d=1", "--p", "2.0", "--radius", "6", "--boundary", "marked", "--out", str(out)]
    )
    assert code == 0
    report = load(out)
    # marked endpoint at 1, the other at 0: the ramp passes through 1/2
    assert report["results"]["value_at_identity"] == pytest.approx(0.5, abs=1e-10)
    assert "elapsed" not in report["results"]["report"]


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["witness", "--group", "free:k=2", "--p", "2.0", "--radii", "4,5"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_every_call_without_state_between_them(tmp_path, monkeypatch):
    """Two calls in one process whose flags differ go through the one
    parser, and the second, without --seed, writes the report that a fresh
    parser gives, not one with the first call's seed."""
    args = ["solve", "--group", "lamplighter", "--radius", "3", "--p", "1.5", "--boundary", "random"]
    seeded, unseeded, fresh = tmp_path / "seeded.json", tmp_path / "unseeded.json", tmp_path / "fresh.json"
    assert run_cli(args + ["--seed", "7", "--out", str(seeded)]) == 0
    parser = pharmonic.cli._build_parser()
    assert run_cli(args + ["--out", str(unseeded)]) == 0
    assert pharmonic.cli._build_parser() is parser
    monkeypatch.setattr(pharmonic.cli, "_build_parser", pharmonic.cli._build_parser.__wrapped__)
    assert run_cli(args + ["--out", str(fresh)]) == 0
    assert unseeded.read_bytes() == fresh.read_bytes() != seeded.read_bytes()
    assert "seed" not in load(unseeded)["manifest"]


def test_csv_format(tmp_path):
    out = tmp_path / "cap.csv"
    code = run_cli(
        ["capacity", "--group", "free_abelian:d=1", "--p", "2.0", "--radii", "4,8", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# pharmonic ")
    assert lines[1] == "# task: capacity"
    assert lines[2].startswith("# manifest_sha256: ")
    assert lines[3] == "radius,capacity,iterations,residual,converged"
    radius, cap = lines[4].split(",")[:2]
    assert (int(radius), float(cap)) == (4, pytest.approx(1.0, rel=1e-9))


def test_manifest_file_with_override(tmp_path):
    manifest = tmp_path / "run.json"
    manifest.write_text(
        json.dumps({"group": {"family": "free", "params": {"k": 2}}, "p": 2.0, "radii": [3, 4]})
    )
    out = tmp_path / "report.json"
    code = run_cli(["witness", "--manifest", str(manifest), "--p", "3.0", "--out", str(out)])
    assert code == 0
    report = load(out)
    assert report["manifest"]["p"] == 3.0  # flag wins
    assert report["manifest"]["radii"] == [3, 4]


def test_manifest_task_mismatch(tmp_path):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({"task": "witness", "group": "lamplighter"}))
    assert run_cli(["describe", "--manifest", str(manifest)]) == 1


def test_validation_exit_codes(tmp_path):
    assert run_cli(["witness", "--group", "dihedral", "--p", "2.0", "--radii", "3,4"]) == 1
    assert run_cli(["witness", "--group", "free:k=2", "--p", "99", "--radii", "3,4"]) == 1
    assert run_cli(["witness", "--group", "free:k=2", "--p", "2.0", "--radii", "4,3"]) == 1
    assert run_cli(["massive", "--group", "free:k=2", "--p", "2.0", "--radii", "3,4", "--subset", "half_space"]) == 1
    assert run_cli(["nope"]) == 1
    assert run_cli(["witness", "--group", "free:k=2", "--p", "2.0", "--radii", "3,4", "--budget", "10"]) == 1


def test_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "nc.json"
    code = run_cli(
        [
            "solve", "--group", "lamplighter", "--p", "1.2", "--radius", "5",
            "--boundary", "random", "--seed", "3", "--max-sweeps", "1", "--out", str(out),
        ]
    )
    assert code == 2
    assert load(out)["results"]["report"]["converged"] is False  # report still written


def test_royden_and_massive_commands(tmp_path):
    out = tmp_path / "royden.json"
    assert run_cli(["royden", "--group", "free:k=2", "--p", "2.0", "--radii", "3,4", "--field", "delta", "--out", str(out)]) == 0
    assert load(out)["results"]["h_energy"] == pytest.approx(0.0, abs=1e-18)
    out2 = tmp_path / "massive.json"
    assert run_cli(["massive", "--group", "free:k=2", "--p", "2.0", "--radii", "4,5,6", "--subset", "subtree:a", "--out", str(out2)]) == 0
    assert load(out2)["results"]["verdict"] == "massive"


def test_royden_indicator_rows_are_the_witness_solves(tmp_path):
    """The indicator preset clamps every sphere to the default marking, so
    each royden row is the witness solve of its radius; h(e) is 1/4 by the
    branch symmetry of F_2, and u(e) = -h(e) since the indicator is 0 at e."""
    roy, wit = tmp_path / "roy.json", tmp_path / "wit.json"
    args = ["--group", "free:k=2", "--radii", "4,5,6", "--p", "2.0"]
    assert run_cli(["royden", *args, "--field", "indicator", "--out", str(roy)]) == 0
    assert run_cli(["witness", *args, "--out", str(wit)]) == 0
    results, witness = load(roy)["results"], load(wit)["results"]
    assert [row["energy"] for row in results["rows"]] == [row["energy"] for row in witness["rows"]]
    assert results["h_energy"] == witness["rows"][-1]["energy"]
    assert results["h_value_at_identity"] == pytest.approx(0.25, abs=1e-12)
    assert results["u_sphere_sup"] == 0.0
    assert results["u_core_sup"] >= results["h_value_at_identity"] > 0.0


EXTENDED_F2 = '{"family":"free","params":{"k":2,"extra_generators":[["a","b"]]}}'
PROBE_RUNS = [
    ["describe", "--group", "free:k=2", "--radius", "3"],
    ["solve", "--group", "lamplighter", "--radius", "3", "--p", "1.5", "--boundary", "marked"],
    ["solve", "--group", "lamplighter", "--radius", "3", "--p", "1.5", "--boundary", "random", "--seed", "7"],
    ["capacity", "--group", "free:k=2", "--radii", "2,3", "--p", "2.0"],
    ["witness", "--group", "free_product_z2:m=3", "--radii", "3,4", "--p", "2.0"],
    ["witness", "--group", EXTENDED_F2, "--radii", "3,4", "--p", "2.0"],
    ["royden", "--group", "free:k=2", "--radii", "3,4", "--p", "2.0", "--field", "witness"],
    ["royden", "--group", "free:k=2", "--radii", "3,4", "--p", "2.0", "--field", "delta"],
    ["royden", "--group", "free:k=2", "--radii", "3,4", "--p", "2.0", "--field", "indicator"],
    ["massive", "--group", "free:k=2", "--radii", "3,4", "--p", "2.0", "--subset", "subtree:a"],
    ["roughiso", "--group", "free:k=2", "--radius", "4", "--extra", "a,b", "--p", "2.0"],
    ["tilf", "--group", "free_abelian:d=2", "--radii", "3,4", "--p", "2.0"],
]


def test_probes_build_no_element_dict(tmp_path, monkeypatch):
    """Inside the probes a vertex is named by its id: no task builds the
    element -> id dict, except to read the vertices of manifest clamps."""

    def no_index(ball):
        raise AssertionError("CayleyBall.index was built")

    monkeypatch.setattr(CayleyBall, "index", property(no_index))
    for args in PROBE_RUNS:
        assert run_cli(args + ["--out", str(tmp_path / "report.json")]) == 0, args
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"group": F2, "p": 2.0, "radius": 1, "boundary": {"clamps": [[["a"], 1.0]]}}))
    with pytest.raises(AssertionError, match="index was built"):
        run_cli(["solve", "--manifest", str(path)])


@pytest.mark.parametrize(
    "group, subset, name",
    [
        ('{"family":"free","params":{"k":2,"extra_generators":[["a","b"]]}}', "subtree:a", "subtree_a"),
        ('{"family":"free_abelian","params":{"d":2,"extra_generators":[["x1","x2"]]}}', "half_space", "half_space_x2"),
    ],
)
def test_massive_command_on_extended_generating_sets(tmp_path, group, subset, name):
    """The subsets read the elements, which an extended generating set
    leaves as they are."""
    out = tmp_path / "massive.json"
    assert run_cli(["massive", "--group", group, "--p", "2.0", "--radii", "4,5,6", "--subset", subset, "--out", str(out)]) == 0
    results = load(out)["results"]
    assert "+[" in results["model"] and results["subset"] == name


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--group", "lamplighter", "--radius", "2", "--p", "2.0"],
        ["tilf", "--group", "free:k=2", "--radii", "5,6", "--p", "2.0"],
    ],
)
def test_csv_rows_parse_to_the_header_width(tmp_path, args):
    """Vertex cells such as [[], 0] or ["a-", "b"] are quoted, so every row
    has as many fields as the header."""
    out = tmp_path / "rows.csv"
    assert run_cli(args + ["--format", "csv", "--out", str(out)]) == 0
    header, *rows = csv.reader(out.read_text().splitlines()[3:])
    assert len(rows) > 1
    assert all(len(row) == len(header) for row in rows)
    column = header.index("vertex")
    assert any("," in row[column] for row in rows)
    for row in rows:
        json.loads(row[column])


def test_royden_radius_below_the_core_exits_1_naming_the_minimum(capsys):
    assert run_cli(["royden", "--group", "free:k=2", "--radii", "1,3", "--p", "2.0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: radii must be >= 2, got [1, 3]"]


def test_tilf_radius_below_3_exits_1_naming_the_minimum(capsys):
    """At radius 2 the translated delta's neighbour layer is not interior,
    so the invariance defect would measure nothing."""
    assert run_cli(["tilf", "--group", "free:k=2", "--radii", "2,3", "--p", "2.0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: radii must be >= 3, got [2, 3]"]


def test_factorization_out_of_memory_exits_1_with_one_line(monkeypatch, capsys):
    def failing_splu(*args, **kwargs):
        raise SystemError("failed to allocate")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
    # the lamplighter R=5, which has cycles among its free vertices and grows
    # exponentially: a tree's systems go to the elimination sweep and those
    # of Z^2 to the band, not to SuperLU
    assert run_cli(["solve", "--group", "lamplighter", "--radius", "5", "--p", "2.0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: out of memory factoring the Newton system of 44 free vertices"]


def test_band_out_of_memory_exits_1_with_one_line(monkeypatch, capsys):
    def failing_dpbtrf(*args, **kwargs):
        raise MemoryError("failed to allocate")

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", failing_dpbtrf)
    # Z^2 R=3 takes the band (bandwidth 5)
    assert run_cli(["solve", "--group", "free_abelian:d=2", "--radius", "3", "--p", "2.0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: out of memory factoring the Newton system of 13 free vertices"]


def test_tilf_command(tmp_path):
    out = tmp_path / "tilf.json"
    assert run_cli(["tilf", "--group", "free:k=2", "--p", "2.0", "--radii", "4,5", "--out", str(out)]) == 0
    report = load(out)
    assert report["results"]["max_delta_gap"] <= 1e-10
    assert all(row["defect"] <= 1e-10 for row in report["results"]["invariance_defects"])


def test_tilf_solves_each_radius_once(tmp_path, monkeypatch):
    """The witness solves n radii, and the defects read their fields off
    the witness rows: n solves in all."""
    calls = []

    def counting(problem, *args, **kwargs):
        calls.append(problem.ball.radius)
        return solve_dirichlet(problem, *args, **kwargs)

    monkeypatch.setattr(pharmonic.cli, "solve_dirichlet", counting)
    monkeypatch.setattr(pharmonic.exhaustion, "solve_dirichlet", counting)
    out = tmp_path / "tilf.json"
    assert run_cli(["tilf", "--group", "free:k=2", "--p", "2.0", "--radii", "3,4,5", "--out", str(out)]) == 0
    assert calls == [3, 4, 5]
    assert [row["radius"] for row in load(out)["results"]["invariance_defects"]] == [3, 4, 5]


def test_royden_witness_solves_the_final_radius_once(tmp_path, monkeypatch):
    """The witness field is the cold solve of the last radius's problem, and
    royden reuses it for that radius: one solve per radius."""
    calls = []

    def counting(problem, *args, **kwargs):
        calls.append(problem.ball.radius)
        return solve_dirichlet(problem, *args, **kwargs)

    monkeypatch.setattr(pharmonic.cli, "solve_dirichlet", counting)
    monkeypatch.setattr(pharmonic.exhaustion, "solve_dirichlet", counting)
    out = tmp_path / "roy.json"
    assert run_cli(["royden", "--group", "lamplighter", "--radii", "6,7,8", "--p", "1.5", "--out", str(out)]) == 0
    assert sorted(calls) == [6, 7, 8]
    rows = load(out)["results"]["rows"]
    assert [row["radius"] for row in rows] == [6, 7, 8]
    assert all(row["converged"] for row in rows)
    assert load(out)["results"]["u_sphere_sup"] == 0.0


@pytest.mark.parametrize("task, extra", [("witness", []), ("capacity", []), ("massive", ["--subset", "subtree:a"])])
def test_over_budget_last_radius_exits_1_before_any_solve(monkeypatch, capsys, task, extra):
    """The probes build the ball of their last radius first: F_2 at R = 12
    has 1 062 881 vertices, over the default budget, so R = 4 and 5 are
    never solved."""
    calls = []

    def counting(problem, *args, **kwargs):
        calls.append(problem.ball.radius)
        return solve_dirichlet(problem, *args, **kwargs)

    monkeypatch.setattr(pharmonic.dirichlet, "solve_dirichlet", counting)
    monkeypatch.setattr(pharmonic.exhaustion, "solve_dirichlet", counting)
    assert run_cli([task, "--group", "free:k=2", "--radii", "4,5,12", "--p", "2.0", *extra]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: ball of radius 12 on F_2 has 1062881 vertices, over the budget 200000"]
    assert calls == []


def test_roughiso_command(tmp_path):
    out = tmp_path / "ri.json"
    code = run_cli(
        ["roughiso", "--group", "free:k=2", "--p", "2.0", "--radius", "4", "--extra", "a,b", "--out", str(out)]
    )
    assert code == 0
    report = load(out)
    assert report["results"]["fit"] == {"a": 2.0, "b": 0, "c": 1}
    assert report["results"]["pullback_all_hold"] is True
    assert report["results"]["validation"]["violations_forward"] == 0
    assert report["results"]["roundtrip_core_error"] <= 0.05


# the inclusion of a stock set S in S + [w]: d_{S+w} <= d_S <= |w| d_{S+w} on
# exact distances, so every fit reads b = 0 and a <= L = |w| = 2
@pytest.mark.parametrize(
    "group, extra, radius, a",
    [
        ("free:k=2", "a,b", 7, None),
        ("free_abelian:d=2", "x1,x2", 10, None),
        ("free_product_z2:m=3", "s1,s2", 7, None),
        ("lamplighter", "t,a", 7, 2.0),
    ],
)
def test_roughiso_constants_meet_the_inclusion_bound(tmp_path, group, extra, radius, a):
    out = tmp_path / "ri.json"
    code = run_cli(
        ["roughiso", "--group", group, "--p", "2.0", "--radius", str(radius), "--extra", extra, "--out", str(out)]
    )
    assert code == 0
    results = load(out)["results"]
    assert results["fit"]["b"] == 0 and results["fit"]["a"] <= 2.0
    assert a is None or results["fit"]["a"] == a
    validation = results["validation"]
    assert validation["n_pairs"] == 1000
    assert validation["violations_forward"] == validation["violations_backward"] == 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_dash_writes_stdout(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.chdir(tmp_path)
    args = ["describe", "--group", "free:k=2", "--radius", "4", "--format", fmt, "--out", "-"]
    assert run_cli(args) == 0
    out = capsys.readouterr().out
    assert not (tmp_path / "-").exists()
    if fmt == "json":
        assert json.loads(out)["results"]["sphere_sizes"] == [1, 4, 12, 36, 108]
    else:
        assert out.splitlines()[1] == "# task: describe"
        assert out.splitlines()[-1] == "4,108,161"


def module_env():
    """The environment of a ``python -m pharmonic.cli`` child that imports
    this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pharmonic.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


THIN_GROUP = '{"family":"free","params":{"k":1,"extra_generators":[["a","a"]]}}'


def test_out_dash_into_a_closed_pipe_exits_1_without_a_traceback():
    # the shell pipeline as users type it; whether head closes before the
    # last write is a race, so either exit code is fine, a traceback is not
    cmd = (
        f"{shlex.quote(sys.executable)} -m pharmonic.cli describe --group {shlex.quote(THIN_GROUP)} --radius 600 --out - "
        "| head -c 300"
        "; exit ${PIPESTATUS[0]}"
    )
    done = subprocess.run(["bash", "-c", cmd], env=module_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 1)
    assert len(done.stdout) == 300
    assert "Traceback" not in done.stderr
    # a pipe closed before the first write breaks every time
    with subprocess.Popen(
        [sys.executable, "-m", "pharmonic.cli", "describe", "--group", THIN_GROUP, "--radius", "600", "--out", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    ) as child:
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == ["error: standard output was closed before the whole report was written"]


F2 = {"family": "free", "params": {"k": 2}}


@pytest.mark.parametrize(
    "task, manifest",
    [
        ("massive", {"group": F2, "p": 2.0, "radii": [3, 4], "subset": "subtree"}),
        ("solve", {"group": F2, "p": 2.0, "radius": 3, "boundary": {"clamps": [[["a"]]]}}),
        ("roughiso", {"group": F2, "p": 2.0, "radius": 3, "n_fields": 0}),
        # clamps whose energy at p = 8 would pass the largest float
        ("solve", {"group": F2, "p": 8.0, "radius": 1, "boundary": {"clamps": [[["a"], 1e100], [["a-"], 0.0], [["b"], 0.0], [["b-"], 0.0]]}}),
        # no fresh pairs would make a clean validation over none
        ("roughiso", {"group": F2, "p": 2.0, "radius": 4, "n_pairs": 0}),
        ("roughiso", {"group": F2, "p": 2.0, "radius": 4, "n_pairs": -5}),
    ],
)
def test_malformed_manifest_exits_1_with_one_line(tmp_path, capsys, task, manifest):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    assert run_cli([task, "--manifest", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_manifest_group_shorthand(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"group": "free:k=2", "p": 2.0, "radii": [3, 4]}))
    out = tmp_path / "wit.json"
    assert run_cli(["witness", "--manifest", str(path), "--out", str(out)]) == 0
    report = load(out)
    assert report["manifest"]["group"] == {"family": "free", "params": {"k": 2}}
    assert report["results"]["model"] == "F_2"


# one wrong-typed entry per manifest key; each used to end in a TypeError traceback
@pytest.mark.parametrize(
    "task, manifest, key",
    [
        ("witness", {"group": F2, "p": 2.0, "radii": 5}, "radii"),
        ("witness", {"group": F2, "p": [2], "radii": [3, 4]}, "p"),
        ("solve", {"group": F2, "p": 2.0, "radius": [3]}, "radius"),
        ("capacity", {"group": F2, "p": 2.0, "radii": [2, 3], "inner_radius": [0]}, "inner_radius"),
        ("solve", {"group": F2, "p": 2.0, "radius": 3, "boundary": {"preset": "random"}, "seed": [7]}, "seed"),
        ("witness", {"group": F2, "p": 2.0, "radii": [3, 4], "tolerance": [1e-8]}, "tolerance"),
        ("witness", {"group": F2, "p": 2.0, "radii": [3, 4], "max_sweeps": {"n": 10}}, "max_sweeps"),
        ("witness", {"group": F2, "p": 2.0, "radii": [3, 4], "budget": [100]}, "budget"),
        ("royden", {"group": F2, "p": 2.0, "radii": [3, 4], "field": "delta"}, "field"),
        ("royden", {"group": F2, "p": 2.0, "radii": [3, 4], "field": {"values": 0.5}}, "field"),
        ("roughiso", {"group": F2, "p": 2.0, "radius": 3, "extra_word": 5}, "extra_word"),
        ("massive", {"group": F2, "p": 2.0, "radii": [3, 4], "subset": {"kind": "subtree", "letter": ["a"]}}, "letter"),
        ("solve", {"group": {**F2, "params": {"k": 2, "extra_generators": [5]}}, "radius": 3}, "extra_generators"),
        ("solve", {"group": {**F2, "params": {"k": 2, "extra_generators": [["a", ["b"]]]}}, "radius": 3}, "extra_generators"),
        # numpy's own message for a negative seed names no key
        ("solve", {"group": F2, "p": 2.0, "radius": 3, "boundary": {"preset": "random"}, "seed": -1}, "seed"),
        ("roughiso", {"group": F2, "p": 2.0, "radius": 3, "seed": -3}, "seed"),
    ],
)
def test_wrong_manifest_type_exits_1_naming_the_key(tmp_path, capsys, task, manifest, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    assert run_cli([task, "--manifest", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


def test_integral_float_manifest_entries_are_accepted(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"group": F2, "p": 2, "radii": [3.0, 4], "max_sweeps": 100.0}))
    out = tmp_path / "wit.json"
    assert run_cli(["witness", "--manifest", str(path), "--out", str(out)]) == 0
    assert [row["radius"] for row in load(out)["results"]["rows"]] == [3, 4]


# one malformed explicit clamp vertex per family; each used to end in a TypeError traceback
@pytest.mark.parametrize(
    "group, vertex",
    [
        ({"family": "lamplighter", "params": {}}, [3, 0]),
        ({"family": "free_abelian", "params": {"d": 2}}, [[1], 0]),
        (F2, [["a"]]),
    ],
)
def test_malformed_clamp_vertex_exits_1(tmp_path, capsys, group, vertex):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"group": group, "p": 2.0, "radius": 3, "boundary": {"clamps": [[vertex, 1.0]]}}))
    assert run_cli(["solve", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "clamp" in err[0]


def test_boolean_clamp_value_exits_1(tmp_path, capsys):
    sphere = [[["a"], 1.0], [["a-"], 0.0], [["b"], 0.0], [["b-"], True]]
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"group": F2, "p": 2.0, "radius": 1, "boundary": {"clamps": sphere}}))
    assert run_cli(["solve", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "boundary.clamps" in err[0]


def key_paths(obj, prefix=""):
    """Dotted key paths of a JSON value; a list of objects shows its first item as '[]'."""
    if isinstance(obj, dict):
        return [path for k, v in obj.items() for path in key_paths(v, f"{prefix}.{k}" if prefix else k)]
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return key_paths(obj[0], prefix + "[]")
    return [prefix]


ROWS = ["converged", "iterations", "radius"]
RESULT_KEYS = {
    "describe": (["--radius", "2"], ["ball_sizes", "degree", "generators", "name", "spec.family", "spec.params.k",
                                     "sphere_sizes"]),
    "solve": (["--radius", "2"], ["bdp_norm", "model", "n_free", "n_vertices", "p", "radius", "report.converged",
                                  "report.final_energy", "report.iterations", "report.residual", "seminorm", "sup_norm",
                                  "value_at_identity"]),
    "capacity": (["--radii", "2,3"], ["inner_radius", "model", "p", "slope", "verdict"]
                 + [f"rows[].{k}" for k in ROWS + ["capacity", "residual"]]),
    "witness": (["--radii", "2,3"], ["energy_growth", "gap_first", "gap_last", "marking", "model", "p",
                                     "stability_delta", "verdict"]
                + [f"rows[].{k}" for k in ROWS + ["energy", "gap", "marked_count", "residual", "u_minus", "u_plus",
                                                  "unmarked_count"]]),
    "royden": (["--radii", "2,3"], ["h_energy", "h_value_at_identity", "model", "p", "radii", "u_core_sup",
                                    "u_sphere_sup", "u_sup_norm"]
               + [f"rows[].{k}" for k in ROWS + ["core_delta", "energy", "residual"]]),
    "massive": (["--radii", "3,4", "--subset", "subtree:a"], ["model", "p", "subset", "verdict"]
                + [f"rows[].{k}" for k in ROWS + ["boundary_count", "connected", "core_stab", "core_sup", "energy",
                                                  "sphere_count"]]),
    "roughiso": (["--radius", "4"], ["codomain", "domain", "fit.a", "fit.b", "fit.c", "inverse_fit.a", "inverse_fit.b",
                                     "inverse_fit.c", "p", "pullback_all_hold", "radius", "roundtrip_core_error"]
                 + [f"fit_report.{k}" for k in ("a", "b", "max_compress", "max_stretch", "n_pairs")]
                 + [f"inverse.{k}" for k in ("displacement_bound_codomain", "displacement_bound_domain",
                                             "max_displacement_codomain", "max_displacement_domain", "n_scope",
                                             "within_bounds")]
                 + [f"pullback_checks[].{k}" for k in ("field", "holds", "k", "lhs", "rhs")]
                 + [f"validation.{k}" for k in ("a", "b", "n_pairs", "violations_backward", "violations_forward")]),
    "tilf": (["--radii", "3,4"], ["indicator_value", "max_delta_gap", "model", "p", "radii",
                                  "invariance_defects[].defect", "invariance_defects[].radius"]
             + [f"delta_identity[].{k}" for k in ("T", "gap", "minus_2_laplacian", "vertex")]),
}


@pytest.mark.parametrize("task", TASKS)
def test_results_key_tree(tmp_path, task):
    """Each task's report keeps its JSON keys: no solved field leaks in, and
    the model, marking and subset names keep their short keys."""
    args, expected = RESULT_KEYS[task]
    p = [] if task == "describe" else ["--p", "2.0"]
    out = tmp_path / "report.json"
    assert run_cli([task, "--group", "free:k=2", *p, *args, "--out", str(out)]) == 0
    assert sorted(key_paths(load(out)["results"])) == sorted(expected)
