"""Problem instances, a plain-text file format, seeded generators with
planted optima, and the built-in analytic test operators.

File format: one ``key: values`` line per field, matrices flattened
row-major, floats printed with ``%.17g``.  The canonical serialization
sorts keys, so ``save(load(path))`` reproduces a canonicalized file
byte for byte.  Fields: ``kind,n,m,c``, optional ``name,seed``, and
the fields of the kind's row of ``KIND_FIELDS``.
"""

import io
from dataclasses import dataclass

import numpy as np

from . import prox as fn
from .errors import NotPSD, ParseError, ValidationError
from .linalg import lambda_max_psd, psd_eigenvalues
from .operators import (FixedPointOperator, Provenance, make_admm_xy_split,
                        make_dr, make_gd, make_pr, make_proximal_gradient,
                        make_proximal_point)
from .polyhedra import Polyhedron, find_feasible_point, whole_space

#: Per kind: the optional fields it reads, and those of them it requires.
#: A file with any other field is rejected.
KIND_FIELDS = {"lp": ({"A", "b"}, set()),
               "qp": ({"Q", "A", "b"}, {"Q"}),
               "lasso": ({"Q", "l1_weight"}, {"l1_weight"}),
               "prox_demo": ({"Q", "l1_weight"}, set())}
KINDS = tuple(KIND_FIELDS)
COMMON_FIELDS = {"kind", "n", "m", "c", "name", "seed"}


@dataclass(frozen=True)
class ProblemInstance:
    """One optimization problem: minimize
    ``0.5 x'Qx + c'x + l1_weight*||x||_1`` over ``X`` (absent pieces
    dropped per kind)."""

    kind: str
    c: np.ndarray
    Q: np.ndarray | None = None
    X: Polyhedron | None = None
    l1_weight: float | None = None
    name: str = ""
    seed: int | None = None

    @property
    def dim(self):
        return self.c.shape[0]

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        val = float(self.c @ x)
        if self.Q is not None:
            val += 0.5 * float(x @ self.Q @ x)
        if self.l1_weight is not None:
            val += self.l1_weight * float(np.abs(x).sum())
        return val


@dataclass(frozen=True)
class GeneratedTruth:
    """Planted optimum of a generated instance."""

    known_optimum: np.ndarray | None


def _fmt_floats(arr):
    return " ".join("%.17g" % v for v in np.asarray(arr, dtype=float).ravel())


def serialize(instance):
    """Canonical text form: sorted keys, row-major arrays, %.17g floats."""
    fields = {"kind": instance.kind,
              "n": str(instance.dim),
              "c": _fmt_floats(instance.c)}
    fields["m"] = str(instance.X.num_rows if instance.X is not None else 0)
    if instance.Q is not None:
        fields["Q"] = _fmt_floats(instance.Q)
    if instance.X is not None:
        fields["A"] = _fmt_floats(instance.X.A)
        fields["b"] = _fmt_floats(instance.X.b)
    if instance.l1_weight is not None:
        fields["l1_weight"] = "%.17g" % instance.l1_weight
    if instance.name:
        fields["name"] = instance.name
    if instance.seed is not None:
        fields["seed"] = str(instance.seed)
    out = io.StringIO()
    for key in sorted(fields):
        out.write(f"{key}: {fields[key]}\n")
    return out.getvalue()


def save(instance, path):
    with open(path, "w") as fh:
        fh.write(serialize(instance))


def _parse_fields(text, path):
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key: values'")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in fields:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    return fields


def _floats(fields, key, count, path):
    try:
        arr = np.array([float(t) for t in fields[key].split()])
    except ValueError as exc:
        raise ParseError(f"{path}: field {key!r}: {exc}") from exc
    if arr.size != count:
        raise ValidationError("shape_mismatch", key,
                              f"expected {count} values, found {arr.size}")
    return arr


def load(path):
    """Read and validate a problem file.

    Raises ``ParseError`` for malformed text and ``ValidationError``
    (with reason ``infeasible`` / ``not_psd`` / ``shape_mismatch`` and
    the offending field) for semantic problems, among them a field the
    kind does not read or a required one missing (``KIND_FIELDS``).
    """
    with open(path) as fh:
        fields = _parse_fields(fh.read(), path)
    for required in ("kind", "n", "m", "c"):
        if required not in fields:
            raise ParseError(f"{path}: missing field {required!r}")
    kind = fields["kind"]
    if kind not in KINDS:
        raise ValidationError("shape_mismatch", "kind",
                              f"unknown kind {kind!r}; expected one of {KINDS}")
    reads, requires = KIND_FIELDS[kind]
    for key in sorted(fields.keys() - COMMON_FIELDS - reads):
        raise ValidationError("shape_mismatch", key,
                              f"{kind} instances do not read {key!r}")
    for key in sorted(requires - fields.keys()):
        raise ValidationError("shape_mismatch", key, f"{kind} requires {key!r}")
    try:
        n = int(fields["n"])
        m = int(fields["m"])
    except ValueError as exc:
        raise ParseError(f"{path}: n and m must be integers: {exc}") from exc
    if n < 1 or m < 0:
        raise ValidationError("shape_mismatch", "n", "need n >= 1 and m >= 0")
    c = _floats(fields, "c", n, path)

    Q = None
    if "Q" in fields:
        Q = _floats(fields, "Q", n * n, path).reshape(n, n)
        try:
            psd_eigenvalues(Q)
        except NotPSD as exc:
            raise ValidationError("not_psd", "Q", str(exc)) from exc
    X = None
    if m > 0 or "A" in fields or "b" in fields:  # m = 0 takes empty A and b
        if "A" not in fields or "b" not in fields:
            raise ParseError(f"{path}: constraints need both fields 'A' and 'b'")
        A = _floats(fields, "A", m * n, path).reshape(m, n)
        b = _floats(fields, "b", m, path)
        X = Polyhedron(A, b)
    elif "A" in reads:
        X = whole_space(n)  # unconstrained instance
    l1_weight = None
    if "l1_weight" in fields:
        l1_weight = float(fields["l1_weight"])
        if l1_weight < 0:
            raise ValidationError("shape_mismatch", "l1_weight",
                                  "must be nonnegative")

    if kind == "qp" and lambda_max_psd(Q) <= 0.0:
        raise ValidationError("not_psd", "Q", "qp requires a nonzero Q")
    if X is not None and X.num_rows and find_feasible_point(X) is None:
        raise ValidationError("infeasible", "A", "the constraint polyhedron is empty")
    return ProblemInstance(kind=kind, c=c, Q=Q, X=X, l1_weight=l1_weight,
                           name=fields.get("name", ""),
                           seed=int(fields["seed"]) if "seed" in fields else None)


def _planted_constraints(rng, n, m, x_star, normal_rows):
    """Rows of A with the first ``len(normal_rows)`` indices active at
    ``x_star`` and strictly slack elsewhere."""
    A = np.vstack([normal_rows,
                   rng.standard_normal((m - len(normal_rows), n))])
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = A @ x_star
    b[len(normal_rows):] += rng.uniform(0.5, 1.5, size=m - len(normal_rows))
    return A, b


def _active_block(rng, n, k):
    """k well-conditioned unit rows (full row rank)."""
    while True:
        B = rng.standard_normal((k, n))
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        if k == 0 or np.linalg.matrix_rank(B) == k and \
                np.linalg.svd(B, compute_uv=False)[-1] > 0.2:
            return B


def generate_lp(n, m, seed):
    """Random LP ``min c'x s.t. A x <= b`` with a planted KKT point:
    active rows ``J*`` at a chosen ``x*``, strictly positive duals y and
    ``c = -A_{J*}' y``, so ``x*`` is optimal by construction."""
    if not 1 <= n <= m <= 16:
        raise ValueError("need 1 <= n <= m <= 16")
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(n)
    k = int(rng.integers(1, n + 1))
    B = _active_block(rng, n, k)
    y = rng.uniform(0.5, 1.5, size=k)
    c = -B.T @ y
    A, b = _planted_constraints(rng, n, m, x_star, B)
    inst = ProblemInstance(kind="lp", c=c, X=Polyhedron(A, b),
                           name=f"lp-n{n}-m{m}-s{seed}", seed=seed)
    return inst, GeneratedTruth(x_star)


def generate_qp(n, m, rank_q, seed, kappa_plus=4.0):
    """Random convex QP with ``Q`` of prescribed rank and restricted
    condition number (lambda_max = 1) and a planted KKT point.

    ``m = 0`` produces an unconstrained instance (requires full-rank Q,
    so the optimum ``-inv(Q) c`` exists)."""
    if not (0 < rank_q <= n <= 16 and 0 <= m <= 16):
        raise ValueError("need 0 < rank_q <= n <= 16 and 0 <= m <= 16")
    if m == 0 and rank_q < n:
        raise ValueError("an unconstrained instance needs full-rank Q")
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if rank_q == 1:
        eigs = np.array([1.0])
    else:
        eigs = np.geomspace(1.0, 1.0 / kappa_plus, rank_q)
    lam = np.zeros(n)
    lam[:rank_q] = eigs
    Q = (V * lam) @ V.T
    Q = 0.5 * (Q + Q.T)
    x_star = rng.standard_normal(n)
    if m == 0:
        c = -Q @ x_star
        inst = ProblemInstance(kind="qp", c=c, Q=Q, X=whole_space(n),
                               name=f"qp-n{n}-m0-r{rank_q}-s{seed}", seed=seed)
        return inst, GeneratedTruth(x_star)
    k = int(rng.integers(1, min(n, m) + 1))
    B = _active_block(rng, n, k)
    y = rng.uniform(0.5, 1.5, size=k)
    c = -Q @ x_star - B.T @ y
    A, b = _planted_constraints(rng, n, m, x_star, B)
    inst = ProblemInstance(kind="qp", c=c, Q=Q, X=Polyhedron(A, b),
                           name=f"qp-n{n}-m{m}-r{rank_q}-s{seed}", seed=seed)
    return inst, GeneratedTruth(x_star)


def example_contraction_operator(lam, dim=1):
    """The scaled-identity contraction ``x -> (1 - lam) x``: gradient
    descent with step lam on ``0.5 ||x||^2``. Fixed point: the origin."""
    return make_gd(fn.quadratic(np.eye(dim), np.zeros(dim)), lam)


def example_rotation_operator(theta):
    """Half-averaged planar rotation ``x -> 0.5 (x + N x)`` with N the
    rotation by ``theta``; its only fixed point is the origin, and
    contraction toward it is exactly ``cos(theta/2)`` in every
    direction."""
    if not 0.0 < theta < np.pi:
        raise ValueError("theta must lie in (0, pi)")
    N = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    F = 0.5 * (np.eye(2) + N)
    return FixedPointOperator(
        dimension=2, alpha=0.5,
        evaluate=lambda x: F @ x,
        provenance=Provenance("rotation_average", {"theta": theta}),
    )


def example_operators(lams=(0.1, 0.3, 0.5, 0.9),
                      thetas=(np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)):
    """The analytic test operators over the default parameter grids."""
    ops = [example_contraction_operator(lam) for lam in lams]
    ops += [example_rotation_operator(theta) for theta in thetas]
    return ops


ALGORITHMS = ("gd", "prox", "gp", "pg", "dr", "pr", "admm")


def split_functions(instance):
    """The (f, g) pair the splitting algorithms minimize: constraint
    indicator first for constrained kinds, smooth part first for lasso.
    The smooth part is ``quadratic(Q, c)``, with ``Q = 0`` when absent
    (an LP's linear objective)."""
    n = instance.dim
    smooth = fn.quadratic(instance.Q if instance.Q is not None else np.zeros((n, n)),
                          instance.c)
    if instance.kind in ("lp", "qp"):
        return fn.polyhedral_indicator(instance.X), smooth
    if instance.kind == "lasso":
        return smooth, fn.l1(instance.l1_weight, n)
    if instance.kind == "prox_demo":
        if instance.Q is not None:
            return smooth, None
        if instance.l1_weight is None or np.any(instance.c != 0.0):
            raise ValueError("prox_demo needs Q, or l1_weight with c = 0")
        return fn.l1(instance.l1_weight, n), None
    raise ValueError(f"unknown kind {instance.kind!r}")


def operator_for(instance, algorithm, gamma=1.0, alpha=0.5, lam=0.1, rho=1.0):
    """Build the requested fixed-point operator for an instance.

    Returns ``(operator, extraction)``; the extraction is ``None`` for
    operators whose iterates are already primal points.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    f, g = split_functions(instance)
    if algorithm == "prox":
        if instance.kind != "prox_demo":
            raise ValueError("prox applies to prox_demo instances")
        return make_proximal_point(f, gamma), None
    if instance.kind == "prox_demo":
        raise ValueError("prox_demo instances only support the prox algorithm")
    if algorithm == "dr":
        return make_dr(f, g, gamma, alpha)
    if algorithm == "pr":
        op = make_pr(f, g, gamma)
        return op, op.evaluate.prox_f
    if algorithm == "admm":
        return make_admm_xy_split(f, g, rho)
    if algorithm == "gd":
        if instance.kind != "lasso" or instance.l1_weight not in (0.0, None):
            raise ValueError("gd needs an unconstrained smooth objective "
                             "(lasso kind with zero l1 weight)")
        return make_gd(f, lam), None
    if instance.kind in ("lp", "qp"):
        # gp and pg: gradient steps on the objective, then the prox of the
        # constraint indicator, a projection that ignores gamma (gp's 1.0)
        return make_proximal_gradient(g, f, lam,
                                      gamma if algorithm == "pg" else 1.0), None
    if algorithm == "gp":
        raise ValueError("gp needs polyhedral constraints")
    if instance.kind == "lasso":
        return make_proximal_gradient(f, g, lam, gamma), None
    raise ValueError(f"pg does not apply to kind {instance.kind!r}")


def _active_rows(X, x, tol=1e-6):
    if X is None or X.num_rows == 0:
        return []
    slack = X.b - X.A @ x
    return [i for i in range(X.num_rows) if slack[i] <= tol * (1.0 + abs(X.b[i]))]


def kkt_residual(instance, x):
    """Stationarity + feasibility + complementarity defect of ``x``.

    For constrained kinds the duals on the active rows are recovered by
    nonnegative least squares; for l1 terms the subdifferential interval
    is checked componentwise.
    """
    from scipy.optimize import nnls

    x = np.asarray(x, dtype=float)
    grad = instance.c.copy()
    if instance.Q is not None:
        grad = grad + instance.Q @ x
    feas = instance.X.violation(x) if instance.X is not None else 0.0

    if instance.l1_weight is not None:
        w = instance.l1_weight
        stat = 0.0
        for gi, xi in zip(grad, x):
            if abs(xi) > 1e-10:
                stat = max(stat, abs(gi + w * np.sign(xi)))
            else:
                stat = max(stat, max(0.0, abs(gi) - w))
        return max(stat, feas)

    if instance.X is None or instance.X.num_rows == 0:
        return max(float(np.linalg.norm(grad)), feas)
    act = _active_rows(instance.X, x)
    if act:
        lam, stat = nnls(instance.X.A[act].T, -grad)
    else:
        stat = float(np.linalg.norm(grad))
    return max(float(stat), feas)
