import dataclasses

import numpy as np
import pytest

from fpicert import problems, verify
from fpicert.polyhedra import Polyhedron


def _with_degenerate_row(instance, truth, change, seed):
    """``instance`` with one more row through the planted optimum ``x*``:
    a copy of row 0, its negation (with row 0, an implicit equality), or
    a random unit row (a degenerate optimum)."""
    X, x_star = instance.X, truth.known_optimum
    if change == "copy":
        a, b = X.A[0], X.b[0]
    elif change == "negation":
        a, b = -X.A[0], -X.b[0]
    else:
        a = np.random.default_rng(seed).standard_normal(X.dim)
        a /= np.linalg.norm(a)
        b = a @ x_star
    return dataclasses.replace(instance, X=Polyhedron(np.vstack([X.A, a]),
                                                      np.append(X.b, b)))


@pytest.mark.parametrize("kind", ["lp", "qp"])
@pytest.mark.parametrize("change", ["copy", "negation", "unit"])
def test_verify_splitting_passes_on_degenerate_rows(kind, change):
    # every check passes and nothing warns (warnings are errors under the
    # suite's pytest settings); x* stays optimal with the extra row
    for seed in range(3):
        instance, truth = (problems.generate_lp(3, 5, seed) if kind == "lp"
                           else problems.generate_qp(3, 5, 2, seed))
        report = verify.verify_splitting(
            _with_degenerate_row(instance, truth, change, seed), seed=seed, truth=truth)
        assert report.all_passed, [c.line() for c in report.checks if not c.passed]
