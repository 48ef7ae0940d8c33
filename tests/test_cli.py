import json
from pathlib import Path

import numpy as np
import pytest

from fpicert import cli, problems
from fpicert.polyhedra import Polyhedron

TINY_LP = "A: -1\nb: 0\nc: 1\nkind: lp\nm: 1\nn: 1\n"


@pytest.fixture
def tiny_lp(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_LP)
    return str(path)


def test_solve_converges_and_extracts_optimum(tiny_lp, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    rc = cli.main(["solve", tiny_lp, "--algorithm", "dr", "--alpha", "0.5",
                   "--gamma", "1.0", "--out", out])
    assert rc == cli.EXIT_OK
    meta = json.loads(Path(out + ".meta.json").read_text())
    assert meta["stop_reason"] == "residual_tol"
    assert abs(meta["solution"][0]) <= 1e-6
    header = Path(out).read_text().splitlines()[0]
    assert header == "iter,residual,dist_to_fix,objective"


@pytest.mark.parametrize("algorithm, params", [
    ("gp", {"gamma": 1.0, "lambda": 0.1}),
    ("admm", {"rho": 2.0}),
])
def test_solve_meta_records_the_parameters_read(algorithm, params, tiny_lp, tmp_path):
    # gp projects at gamma 1 whatever --gamma says, and admm reads only rho
    out = tmp_path / "trace.csv"
    cli.main(["solve", tiny_lp, "--algorithm", algorithm, "--gamma", "0.3",
              "--rho", "2", "--out", str(out)])
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
    assert meta["params"] == {**params, "tol": 1e-10, "max_iters": 200_000,
                              "seed": 0, "start_scale": 10.0}


def test_solve_trace_deterministic(tiny_lp, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        rc = cli.main(["solve", tiny_lp, "--algorithm", "dr", "--seed", "7",
                       "--out", out])
        assert rc == cli.EXIT_OK
    assert Path(out1).read_text() == Path(out2).read_text()


def test_solve_pr_warns_about_missing_guarantee(tiny_lp, tmp_path, capsys):
    out = str(tmp_path / "pr.csv")
    rc = cli.main(["solve", tiny_lp, "--algorithm", "pr", "--out", out])
    captured = capsys.readouterr()
    assert "no averaged-operator guarantee" in captured.err
    assert rc in (cli.EXIT_OK, cli.EXIT_MAX_ITERS)


def test_solve_exit_three_when_budget_exhausted(tiny_lp, tmp_path):
    out = str(tmp_path / "short.csv")
    rc = cli.main(["solve", tiny_lp, "--algorithm", "dr", "--max-iters", "3",
                   "--start-scale", "100", "--out", out])
    assert rc == cli.EXIT_MAX_ITERS


def test_solve_invalid_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("A: 1 -1\nb: -1 -1\nc: 1\nkind: lp\nm: 2\nn: 1\n")
    rc = cli.main(["solve", str(bad), "--algorithm", "dr",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_reports_unit_constant(tiny_lp, tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    rc = cli.main(["analyze", tiny_lp, "--alpha", "0.5", "--gamma", "1.0",
                   "--out", out])
    assert rc == cli.EXIT_OK
    payload = json.loads(Path(out + ".json").read_text())
    assert payload["K"] == pytest.approx(1.0, abs=1e-12)
    assert any(p["meets_fixed_set"] for p in payload["pieces"])
    text = Path(out).read_text()
    assert "K (max piece bound" in text


def test_analyze_qp_reports_both_constants(tmp_path):
    inst, _ = problems.generate_qp(3, 5, 2, seed=6)
    path = tmp_path / "qp.txt"
    problems.save(inst, path)
    out = str(tmp_path / "qp_report.txt")
    rc = cli.main(["analyze", str(path), "--alpha", "0.5", "--out", out])
    assert rc == cli.EXIT_OK
    payload = json.loads(Path(out + ".json").read_text())
    assert payload["certificate"] == "qp_certificate"
    assert payload["K"] > 0 and payload["K_closed_form"] > 0


def test_analyze_rank_column_uses_the_piece_rank(tmp_path):
    # the free piece's singular values are about 0.333 and 1.6e-16, so
    # its rank is 1, as its sigma_min_plus and hoffman_bound imply
    inst, _ = problems.generate_qp(2, 4, 1, 1100)
    path = tmp_path / "qp.txt"
    problems.save(inst, path)
    out = str(tmp_path / "qp_report.txt")
    assert cli.main(["analyze", str(path), "--out", out]) == cli.EXIT_OK
    row = next(line for line in Path(out).read_text().splitlines()
               if line.startswith("() "))
    _, rank, sigma, bound = row.split()[:4]
    assert rank == "1"
    assert float(bound) == pytest.approx(1.0 / float(sigma), rel=1e-5)


def test_analyze_budget_exit_four(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 2))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    inst = problems.ProblemInstance(kind="lp", c=np.array([1.0, 0.0]),
                                    X=Polyhedron(A, A @ np.zeros(2) + 1.0))
    path = tmp_path / "wide.txt"
    problems.save(inst, path)
    rc = cli.main(["analyze", str(path), "--out", str(tmp_path / "r.txt")])
    assert rc == cli.EXIT_TOO_LARGE


def test_verify_builtin_contraction(tmp_path):
    out = str(tmp_path / "v3.txt")
    rc = cli.main(["verify", "--builtin", "example3", "--lam-grid", "0.3,0.5",
                   "--out", out])
    assert rc == cli.EXIT_OK
    reports = json.loads(Path(out + ".json").read_text())
    assert all(r["result"] == "PASS" for r in reports)


def test_verify_builtin_rotation(tmp_path):
    out = str(tmp_path / "v4.txt")
    rc = cli.main(["verify", "--builtin", "example4",
                   "--theta-grid", "pi/3,pi/2", "--out", out])
    assert rc == cli.EXIT_OK
    reports = json.loads(Path(out + ".json").read_text())
    rhos = [r["measured"]["rho_tilde"] for r in reports]
    assert rhos[0] == pytest.approx(np.cos(np.pi / 6), abs=1e-6)


def test_verify_problem_file_lp(tiny_lp, tmp_path):
    out = str(tmp_path / "vlp.txt")
    rc = cli.main(["verify", tiny_lp, "--alpha", "0.5", "--gamma", "1.0",
                   "--out", out])
    assert rc == cli.EXIT_OK


def test_verify_failure_exit_five(tmp_path):
    # seed 1 of this batch shape is a documented closed-form counterexample
    out = str(tmp_path / "vqp.txt")
    rc = cli.main(["verify", "--builtin", "qp-batch", "--n", "4", "--m", "8",
                   "--rank-q", "3", "--seeds", "1", "--out", out])
    assert rc == cli.EXIT_CHECKS_FAILED
    reports = json.loads(Path(out + ".json").read_text())
    failed = [c["name"] for r in reports for c in r["checks"] if not c["passed"]]
    assert all("closed-form" in n or "compact" in n for n in failed)


@pytest.mark.parametrize("argv", [
    ["verify", "--builtin", "lp-batch", "--gamma", "-1"],
    ["verify", "--builtin", "lp-batch", "--gamma", "0"],
    ["analyze", "{qp}", "--gamma", "0"],
    ["analyze", "{lp}", "--alpha", "1.5"],
    ["verify", "{qp}", "--alpha", "0"],
    ["solve", "{lp}", "--algorithm", "dr", "--tol", "0"],
])
def test_invalid_flags_exit_two(argv, tiny_lp, tmp_path, capsys):
    inst, _ = problems.generate_qp(3, 5, 2, seed=6)
    qp = str(tmp_path / "qp.txt")
    problems.save(inst, qp)
    argv = [a.format(lp=tiny_lp, qp=qp) for a in argv]
    rc = cli.main(argv + ["--out", str(tmp_path / "r.txt")])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["analyze", "{lp}", "--max-iters", "5"],
    ["analyze", "{lp}", "--seed", "1"],
    ["verify", "--builtin", "lp-batch", "--tol", "1e-3"],
    ["verify", "--builtin", "lp-batch", "--rho", "2"],
])
def test_commands_reject_options_they_do_not_read(argv, tiny_lp, tmp_path, capsys):
    argv = [a.format(lp=tiny_lp) for a in argv]
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--out", str(tmp_path / "r.txt")])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_radius_sweep_recorded(tiny_lp, tmp_path):
    out = str(tmp_path / "sweep.txt")
    rc = cli.main(["verify", tiny_lp, "--radius-sweep", "--out", out])
    assert rc == cli.EXIT_OK
    reports = json.loads(Path(out + ".json").read_text())
    sweep = reports[0]["measured"]["radius_sweep"]
    assert [s["R"] for s in sweep] == [1e-1, 1e-2, 1e-3, 1e-4]
    assert all(s["within_bound"] for s in sweep if s["R"] <= 1e-2)


def test_angle_parser():
    assert cli._angle("0.75") == 0.75
    assert cli._angle("pi/3") == pytest.approx(np.pi / 3)
    assert cli._angle("2*pi/3") == pytest.approx(2 * np.pi / 3)
