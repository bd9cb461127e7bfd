"""End-to-end command runs: manifests, report files, exit codes."""

import json

import pytest

from pharmonic.cli import main


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


def test_tilf_command(tmp_path):
    out = tmp_path / "tilf.json"
    assert run_cli(["tilf", "--group", "free:k=2", "--p", "2.0", "--radii", "4,5", "--out", str(out)]) == 0
    report = load(out)
    assert report["results"]["max_delta_gap"] <= 1e-10
    assert all(row["defect"] <= 1e-10 for row in report["results"]["invariance_defects"])


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


F2 = {"family": "free", "params": {"k": 2}}


@pytest.mark.parametrize(
    "task, manifest",
    [
        ("massive", {"group": F2, "p": 2.0, "radii": [3, 4], "subset": "subtree"}),
        ("solve", {"group": F2, "p": 2.0, "radius": 3, "boundary": {"clamps": [[["a"]]]}}),
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
