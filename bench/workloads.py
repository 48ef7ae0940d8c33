"""The benchmark's workloads: which instances each certifies, how one
instance is certified through the public API, and how its outcome is
compared with the committed reference (``reference.json``).

Workloads (closed loop, one process, one instance at a time):

* ``lp-batch``: the 20 acceptance LPs (shapes (2,4)...(6,12), seeds
  0-19), each through ``verify.verify_lp(gamma=1, alpha=0.5)``.
  Analysis-heavy and iteration-light (448 DR steps in all): the time goes
  to fixed-set distances and face enumeration.
* ``qp-batch``: the 20 acceptance QPs (seeds 100-119, gamma*lambda_max =
  1/2), each through ``verify.verify_qp(alpha=0.5)``.  Per-step cost:
  215,926 DR steps, 200,000 of them in the stalled ``qp-n3-m6-r2-s106``.
* ``enum-wide``: the analysis pipeline alone (``enumerate_pieces_lp/qp``,
  ``fixed_point_set``, ``error_bound_constant``) on LPs and QPs at the
  row cap m = 16 with n in {6, 8}, seeds 0 and 1; QPs have rank n-2 and
  gamma*lambda_max = 1/2.  Combinatorial, with no DR step at all.

Instance sets: ``acceptance`` holds the seeds above and is the default.
``heldout`` gives the same shapes on seeds never used while tuning
(LP 1000-1019, QP 1100-1119, enum-wide 1000-1001), for checking a claimed
gain on unseen inputs.  Budgets, tolerances and acceptance gates are the
library's own: 200k steps, residual tol 1e-10.
"""

import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("lp-batch", "qp-batch", "enum-wide")

LP_CASES = [(2, 4), (3, 6), (4, 8), (5, 10), (6, 12)] * 4
QP_CASES = [(2, 4, 1), (3, 6, 2), (4, 8, 3), (5, 10, 4), (3, 6, 3)] * 4
ENUM_N = (6, 8)
ENUM_M = 16

#: First instance seed of each workload, per instance set.
SEED_BASES = {
    "acceptance": {"lp-batch": 0, "qp-batch": 100, "enum-wide": 0},
    "heldout": {"lp-batch": 1000, "qp-batch": 1100, "enum-wide": 1000},
}
INSTANCE_SETS = tuple(SEED_BASES)

ALPHA = 0.5
LP_GAMMA = 1.0
QP_GAMMA0 = 0.5  # gamma * lambda_max(Q)

#: Outcome tolerances against the reference.  Step counts may move by
#: roundoff in a reordered but equivalent step; K is an SVD result.
STEP_REL_TOL = 0.01
K_REL_TOL = 1e-6
K_CLOSED_FORM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Spec:
    """One instance: its generator arguments and how it is certified."""

    kind: str            # "lp" or "qp"
    n: int
    m: int
    seed: int
    rank_q: int = 0
    analyze_only: bool = False


def specs(workload, instance_set="acceptance"):
    """The instances of a workload, in their canonical order."""
    base = SEED_BASES[instance_set][workload]
    if workload == "lp-batch":
        return [Spec("lp", n, m, base + i) for i, (n, m) in enumerate(LP_CASES)]
    if workload == "qp-batch":
        return [Spec("qp", n, m, base + i, rank_q=r)
                for i, (n, m, r) in enumerate(QP_CASES)]
    if workload == "enum-wide":
        return [Spec(kind, n, ENUM_M, base + s, rank_q=n - 2 if kind == "qp" else 0,
                     analyze_only=True)
                for kind in ("lp", "qp") for n in ENUM_N for s in (0, 1)]
    raise ValueError(f"unknown workload {workload!r}")


def import_fpicert(root):
    """Import the package from ``root/src`` and nowhere else; exit with
    status 2 when that tree holds no package."""
    src = (Path(root) / "src").resolve()
    if not (src / "fpicert" / "__init__.py").is_file():
        sys.exit(f"benchmark: no fpicert sources under {src}")
    sys.path.insert(0, str(src))
    import fpicert
    import fpicert.verify  # not imported by the package itself
    if src not in Path(fpicert.__file__).resolve().parents:
        sys.exit(f"benchmark: fpicert imported from {fpicert.__file__}, "
                 f"not from {src}")
    return fpicert


def generate(fpicert, spec):
    """The instance and planted truth for one spec."""
    if spec.kind == "lp":
        return fpicert.problems.generate_lp(spec.n, spec.m, spec.seed)
    return fpicert.problems.generate_qp(spec.n, spec.m, spec.rank_q, spec.seed)


def certify(fpicert, spec, instance, truth):
    """Certify one instance through the public API; return its outcome,
    the quantities compared with the reference."""
    if spec.analyze_only:
        analysis = fpicert.analysis
        if spec.kind == "lp":
            pieces = analysis.enumerate_pieces_lp(instance.X, instance.c,
                                                  LP_GAMMA, ALPHA)
        else:
            gamma = QP_GAMMA0 / fpicert.linalg.lambda_max_psd(instance.Q)
            pieces = analysis.enumerate_pieces_qp(instance.X, instance.Q,
                                                  instance.c, gamma, ALPHA)
        fixset = analysis.fixed_point_set(pieces)
        K = analysis.error_bound_constant(pieces, fixset)
        return {"pieces": len(pieces), "fixed_pieces": len(fixset.pieces),
                "K": K}
    if spec.kind == "lp":
        report = fpicert.verify.verify_lp(instance, gamma=LP_GAMMA, alpha=ALPHA,
                                          seed=spec.seed, truth=truth)
    else:
        report = fpicert.verify.verify_qp(instance, alpha=ALPHA, seed=spec.seed,
                                          truth=truth)
    checks = {c.name: bool(c.passed) for c in report.checks}
    # iterate stops on the residual tolerance or on the step budget, and
    # the "run converged" check is exactly the first of the two
    stop = (fpicert.engine.STOP_RESIDUAL if checks["run converged"]
            else fpicert.engine.STOP_MAX_ITERS)
    return {"stop_reason": stop, "steps": int(report.measured["steps"]),
            "checks": checks, "K": float(report.certified["K"]),
            "K_closed_form": float(report.certified["K_closed_form"])}


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def differences(outcome, ref):
    """Mismatches between an outcome and its reference entry, as text;
    empty when the outcome matches."""
    if ref is None:
        return ["no reference entry"]
    diffs = []
    for key in sorted(set(ref) | set(outcome)):
        got, want = outcome.get(key), ref.get(key)
        if key == "steps" and got is not None and want is not None:
            ok = abs(got - want) <= max(1, math.floor(STEP_REL_TOL * want))
        elif key == "K" and got is not None and want is not None:
            ok = _rel_close(got, want, K_REL_TOL)
        elif key == "K_closed_form" and got is not None and want is not None:
            ok = _rel_close(got, want, K_CLOSED_FORM_REL_TOL)
        else:
            ok = got == want
        if not ok:
            diffs.append(f"{key}: got {got!r}, reference {want!r}")
    return diffs


def load_reference(instance_set):
    """Reference outcomes by workload and instance name."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[instance_set]


def run_batch(fpicert, items, reference, tracer=None):
    """Certify every ``(spec, instance, truth)`` once, in order.

    Returns one record per instance: name, shape, wall time, outcome, and
    ``failed`` when it raised or differs from ``reference`` (a dict by
    instance name).  With a tracer, each instance is one request of it.
    """
    records = []
    for i, (spec, instance, truth) in enumerate(items):
        if tracer is not None:
            tracer.request = i
        outcome, problems = None, []
        t0 = perf_counter()
        try:
            outcome = certify(fpicert, spec, instance, truth)
        except Exception:  # a raise is a counted failure, not a crash
            problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        wall = perf_counter() - t0
        if outcome is not None:
            problems = differences(outcome, reference.get(instance.name))
        records.append({"name": instance.name, "n": spec.n, "m": spec.m,
                        "wall": wall, "outcome": outcome,
                        "failed": bool(problems), "problems": problems})
    return records
