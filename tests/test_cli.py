import json
from pathlib import Path

import numpy as np
import pytest

from fpicert import cli, problems
from fpicert.linalg import lambda_max_psd
from fpicert.polyhedra import Polyhedron
from oracles import near_parallel_variant

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


def test_solve_writes_the_objective_of_every_row_of_a_long_trace(tmp_path):
    # qp-n3-m6-r2-s106 stalls, so 25,000 DR steps leave 25,001 rows; the
    # whole trace is extracted and its objective evaluated as one block
    inst, _ = problems.generate_qp(3, 6, 2, 106)
    path = tmp_path / "s106.txt"
    problems.save(inst, path)
    out = str(tmp_path / "trace.csv")
    rc = cli.main(["solve", str(path), "--algorithm", "dr", "--max-iters", "25000",
                   "--out", out])
    assert rc == cli.EXIT_MAX_ITERS
    rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
    assert len(rows) == 25_001
    assert all(row[3] for row in rows)
    meta = json.loads(Path(out + ".meta.json").read_text())
    assert float(rows[-1][3]) == pytest.approx(meta["objective"], rel=1e-12)


@pytest.mark.parametrize("algorithm, params", [
    ("gp", {"lambda": 0.1}),
    ("admm", {"rho": 2.0}),
    ("pg", {"lambda": 0.1}),
])
def test_solve_meta_records_the_parameters_read(algorithm, params, tiny_lp, tmp_path):
    # gp and pg take their prox at lambda whatever --gamma says, and admm
    # reads only rho
    out = tmp_path / "trace.csv"
    cli.main(["solve", tiny_lp, "--algorithm", algorithm, "--gamma", "0.3",
              "--rho", "2", "--out", str(out)])
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
    assert meta["params"] == {**params, "tol": 1e-10, "max_iters": 200_000,
                              "seed": 0, "start_scale": 10.0}


def test_solve_pg_minimizes_lasso_at_its_own_step(tmp_path):
    # the minimizer of 0.5||x||^2 - x1 + x2 + 0.5||x||_1 is (0.5, -0.5);
    # a prox of g at a scale other than lambda minimizes another objective
    path = tmp_path / "lasso.txt"
    path.write_text("kind: lasso\nn: 2\nm: 0\nc: -1 1\nQ: 1 0 0 1\n"
                    "l1_weight: 0.5\n")
    out = str(tmp_path / "pg.csv")
    rc = cli.main(["solve", str(path), "--algorithm", "pg", "--out", out])
    assert rc == cli.EXIT_OK
    x = np.array(json.loads(Path(out + ".meta.json").read_text())["solution"])
    assert np.allclose(x, [0.5, -0.5], atol=1e-8)
    assert problems.kkt_residual(problems.load(str(path)), x) <= 1e-8


def test_solve_prox_demo_with_q_and_l1_exits_two(tmp_path, capsys):
    # the prox of the sum is not built, so the pair is rejected rather
    # than the l1 term dropped
    path = tmp_path / "demo.txt"
    path.write_text("kind: prox_demo\nn: 2\nm: 0\nc: 1 -2\nQ: 1 0 0 1\n"
                    "l1_weight: 5\n")
    rc = cli.main(["solve", str(path), "--algorithm", "prox",
                   "--out", str(tmp_path / "demo.csv")])
    assert rc == cli.EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["gp", "pg"])
@pytest.mark.parametrize("lam", ["-1", "0"])
def test_solve_bad_step_names_lambda(algorithm, lam, tiny_lp, tmp_path, capsys):
    # gp and pg step at --lambda and never read --gamma
    rc = cli.main(["solve", tiny_lp, "--algorithm", algorithm, "--lambda", lam,
                   "--out", str(tmp_path / "t.csv")])
    assert rc == cli.EXIT_INVALID
    assert "lambda must be positive" in capsys.readouterr().err


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


def test_analyze_near_parallel_rows(tmp_path):
    # row 7 is row 0 tilted by 1e-7, so the Gram matrix of the face
    # (0, 1, 2, 7) is numerically singular; a LinAlgError from it would
    # reach the CLI as invalid input (exit 2)
    path = tmp_path / "lp.txt"
    problems.save(near_parallel_variant("lp", 15), path)
    out = str(tmp_path / "lp_report.txt")
    assert cli.main(["analyze", str(path), "--out", out]) == cli.EXIT_OK
    assert json.loads(Path(out + ".json").read_text())["K"] == pytest.approx(1.0, abs=1e-9)


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
    rc = cli.main(["verify", "--builtin", "example3", "--lam-grid", "0.3,0.5,1",
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


def test_verify_qp_away_from_half_claims_no_compact_certificate(tmp_path):
    # the compact forms exist only at gamma0 = 1/2; at 0.3 there is no
    # compact constant to check against, and no infinity in the JSON
    inst, _ = problems.generate_qp(3, 6, 3, seed=4)
    path = tmp_path / "qp.txt"
    problems.save(inst, path)
    out = str(tmp_path / "vqp.txt")
    gamma = 0.3 / lambda_max_psd(inst.Q)
    rc = cli.main(["verify", str(path), "--gamma", repr(gamma), "--out", out])
    assert rc == cli.EXIT_OK

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    [report] = json.loads(Path(out + ".json").read_text(), parse_constant=reject)
    assert report["problem"]["gamma0"] == pytest.approx(0.3)
    names = [c["name"] for c in report["checks"]] + list(report["certified"])
    assert not any("compact" in name for name in names)


@pytest.mark.parametrize("argv", [
    ["verify", "--builtin", "lp-batch", "--gamma", "-1"],
    ["verify", "--builtin", "lp-batch", "--gamma", "0"],
    ["analyze", "{qp}", "--gamma", "0"],
    ["analyze", "{lp}", "--alpha", "1.5"],
    ["verify", "{qp}", "--alpha", "0"],
    ["solve", "{lp}", "--algorithm", "dr", "--tol", "0"],
    # rank 0 is rejected by the generator, not replaced by n - 1
    ["verify", "--builtin", "qp-batch", "--n", "3", "--m", "6", "--rank-q", "0",
     "--seeds", "0"],
    # a batch with no seed would check nothing
    ["verify", "--builtin", "lp-batch", "--seeds", ","],
    ["verify", "--builtin", "lp-batch", "--seeds", ""],
    # the factor is |1 - lambda|: the exact values hold only for lambda <= 1
    ["verify", "--builtin", "example3", "--lam-grid", "1.5"],
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
