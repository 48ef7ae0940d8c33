"""Command-line entry point.

Subcommands:

* ``solve``    run one algorithm on a problem file, write a CSV trace
* ``analyze``  enumerate the affine pieces and certify constants/rates
* ``verify``   run solve + analyze + samplers, check every certified
               claim against measurement, write a report

Exit codes: 0 success, 2 invalid problem/flags, 3 iteration budget
exhausted before the residual tolerance, 4 enumeration budget exceeded,
5 one or more verification checks failed.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import analysis, engine, problems, rates, verify
from .engine import STOP_RESIDUAL
from .errors import FpicertError, TooLarge

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MAX_ITERS = 3
EXIT_TOO_LARGE = 4
EXIT_CHECKS_FAILED = 5

#: Traces longer than this skip the objective column (each row costs a
#: prox evaluation).
OBJECTIVE_ROW_CAP = 20_000


def _angle(text):
    """Parse '0.5', 'pi/3' or '2*pi/3' into a float."""
    t = text.replace(" ", "")
    if "pi" not in t:
        return float(t)
    num, _, den = t.partition("/")
    scale = float(den) if den else 1.0
    factor = num.replace("pi", "").replace("*", "")
    return (float(factor) if factor else 1.0) * math.pi / scale


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpicert",
        description="fixed-point-iteration solvers with certified and "
                    "measured linear convergence rates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm, write a trace")
    p_solve.add_argument("problem")
    p_solve.add_argument("--algorithm", required=True,
                         choices=problems.ALGORITHMS)
    p_solve.add_argument("--rho", type=float, default=1.0)
    p_solve.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iters", type=int, default=200_000)
    p_solve.add_argument("--start-scale", type=float, default=10.0,
                         help="norm of the seeded starting point")
    p_solve.add_argument("--out", required=True, help="trace CSV path")

    p_an = sub.add_parser("analyze", help="piece table and certified rates")
    p_an.add_argument("problem")
    p_an.add_argument("--out", required=True, help="report path (text; a "
                      ".json twin is written next to it)")

    p_ver = sub.add_parser("verify", help="check certified claims against "
                           "measurements")
    p_ver.add_argument("problem", nargs="?", default=None)
    p_ver.add_argument("--builtin", choices=("example3", "example4",
                                             "lp-batch", "qp-batch"))
    p_ver.add_argument("--lam-grid", default="0.1,0.3,0.5,0.9",
                       help="lambda grid for --builtin example3")
    p_ver.add_argument("--theta-grid", default="pi/6,pi/3,pi/2,2*pi/3",
                       help="theta grid for --builtin example4")
    p_ver.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9",
                       help="instance seeds for batch builtins")
    p_ver.add_argument("--n", type=int, default=4)
    p_ver.add_argument("--m", type=int, default=8)
    p_ver.add_argument("--rank-q", type=int, default=None)
    p_ver.add_argument("--radius-sweep", action="store_true",
                       help="sample the error bound at several radii")
    p_ver.add_argument("--out", required=True)
    # each command takes only the options it reads
    for p in (p_solve, p_an, p_ver):
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--gamma", type=float, default=None)
    for p in (p_solve, p_ver):
        p.add_argument("--seed", type=int, default=0)
    return parser


def _write_trace(path, trace, objective_fn):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "residual", "dist_to_fix", "objective"])
        n_rows = len(trace.iterates)
        with_objective = objective_fn is not None and n_rows <= OBJECTIVE_ROW_CAP
        for k in range(n_rows):
            residual = "%.17g" % trace.residuals[k] if k < len(trace.residuals) else ""
            dist = ("%.17g" % trace.dist_to_fix[k]
                    if trace.dist_to_fix is not None else "")
            obj = ("%.17g" % objective_fn(trace.iterates[k])
                   if with_objective else "")
            writer.writerow([k, residual, dist, obj])


def cmd_solve(args):
    instance = problems.load(args.problem)
    gamma = verify.default_gamma(instance) if args.gamma is None else args.gamma
    op, extraction = problems.operator_for(
        instance, args.algorithm, gamma=gamma, alpha=args.alpha,
        lam=args.lam, rho=args.rho)
    if args.algorithm == "pr":
        print("note: no averaged-operator guarantee for this algorithm; "
              "rate certificates do not apply", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(op.dimension)
    x0 *= args.start_scale / max(np.linalg.norm(x0), 1e-12)
    trace = engine.iterate(op, x0, residual_tol=args.tol,
                           max_iters=args.max_iters)
    # distances from the converged limit: an upper bound on the true
    # distance, recorded as such
    trace.dist_to_fix = analysis.point_fixed_set(trace.limit).distances(trace.iterates)
    solution = extraction(trace.limit) if extraction is not None else trace.limit

    def objective_fn(x):
        point = extraction(x) if extraction is not None else x
        return instance.objective(point)

    _write_trace(args.out, trace, objective_fn)
    meta = {"problem": args.problem, "algorithm": args.algorithm,
            "params": {**op.provenance.params, "tol": args.tol,
                       "max_iters": args.max_iters, "seed": args.seed,
                       "start_scale": args.start_scale},
            "stop_reason": trace.stop_reason, "steps": trace.num_steps,
            "distance_source": "limit",
            "solution": [float(v) for v in solution],
            "objective": instance.objective(solution)}
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"stop: {trace.stop_reason} after {trace.num_steps} steps; "
          f"solution {np.array2string(np.asarray(solution), precision=8)}")
    return EXIT_OK if trace.stop_reason == STOP_RESIDUAL else EXIT_MAX_ITERS


def _piece_table(pieces, fixset, max_eps_pieces=64):
    meeting = {id(p) for p in fixset.pieces}
    lines = ["active_set  rank  sigma_min_plus  hoffman_bound  meets_fixed_set"
             "  min_residual(sampled upper bound)"]
    small = len(pieces) <= max_eps_pieces
    for piece in pieces:
        meets = id(piece) in meeting
        eps = ""
        if small and not meets:
            eps = "%.3g" % analysis.estimate_min_residual(piece, samples=16)
        lines.append(f"{str(piece.active):<11} {piece.rank:>4}  "
                     f"{piece.sigma_min_plus:<14.6g}  "
                     f"{piece.hoffman_bound:<13.6g}  {str(meets):<15}  {eps}")
    return lines


def cmd_analyze(args):
    instance = problems.load(args.problem)
    gamma = verify.default_gamma(instance) if args.gamma is None else args.gamma
    pieces, fixset, K, cert, _ = verify.certify(instance, gamma, args.alpha)
    rate = rates.rates_from_K(args.alpha, K)
    lines = [f"problem: {args.problem} (kind={instance.kind}, "
             f"n={instance.dim}, m={instance.X.num_rows})",
             f"params: gamma={gamma} alpha={args.alpha}",
             "",
             *_piece_table(pieces, fixset),
             "",
             f"K (max piece bound over pieces meeting the fixed set): {K!r}",
             f"closed-form certificate [{cert.source}]: K <= {cert.K}",
             f"distance rate rho (from K): {rate.rho_dist}",
             f"relaxed distance rate: {rate.rho_dist_relaxed}",
             f"note: {cert.valid_radius_note}"]
    text = "\n".join(lines) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)
    payload = {"problem": args.problem, "kind": instance.kind,
               "gamma": gamma, "alpha": args.alpha,
               "K": K, "K_closed_form": cert.K, "certificate": cert.source,
               "pieces": [{"active": list(p.active),
                           "sigma_min_plus": p.sigma_min_plus,
                           "hoffman_bound": p.hoffman_bound,
                           "meets_fixed_set": any(q is p for q in fixset.pieces)}
                          for p in pieces]}
    with open(args.out + ".json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(text, end="")
    return EXIT_OK


def _write_reports(reports, out_path):
    text = "\n".join(r.to_text() for r in reports)
    with open(out_path, "w") as fh:
        fh.write(text)
    with open(out_path + ".json", "w") as fh:
        fh.write(json.dumps([json.loads(r.to_json()) for r in reports],
                            indent=2, sort_keys=True) + "\n")
    print(text, end="")


def cmd_verify(args):
    reports = []
    seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]

    def check(instance, truth, seed):
        reports.append(verify.verify_splitting(
            instance, gamma=args.gamma, alpha=args.alpha, seed=seed,
            radius_sweep=args.radius_sweep, truth=truth))

    if args.builtin == "example3":
        for lam in (float(t) for t in args.lam_grid.split(",")):
            reports.append(verify.verify_example_contraction(lam, seed=args.seed))
    elif args.builtin == "example4":
        for theta in (_angle(t) for t in args.theta_grid.split(",")):
            reports.append(verify.verify_example_rotation(theta, seed=args.seed))
    elif args.builtin == "lp-batch":
        for seed in seeds:
            check(*problems.generate_lp(args.n, args.m, seed), seed)
    elif args.builtin == "qp-batch":
        rank_q = args.rank_q or max(1, args.n - 1)
        for seed in seeds:
            check(*problems.generate_qp(args.n, args.m, rank_q, seed), seed)
    elif args.problem is not None:
        check(problems.load(args.problem), None, args.seed)
    else:
        raise ValueError("give a problem file or --builtin")
    _write_reports(reports, args.out)
    failed = [c.name for r in reports for c in r.checks if not c.passed]
    if failed:
        print(f"{len(failed)} check(s) failed:", file=sys.stderr)
        for name in failed:
            print(f"  - {name}", file=sys.stderr)
        return EXIT_CHECKS_FAILED
    return EXIT_OK


def main(argv=None):
    """Run one command; the one place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    command = {"solve": cmd_solve, "analyze": cmd_analyze,
               "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (ValueError, FpicertError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE if isinstance(exc, TooLarge) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
