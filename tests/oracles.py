"""Reference computations that only the tests use, kept apart from the
package code they check."""

import numpy as np

from fpicert.engine import STOP_MAX_ITERS, IterationTrace
from fpicert.prox import prox_map


def run_admm_direct(f, g, rho, y0=None, w0=None, iters=100):
    """Direct alternating-direction iteration for ``min f(x) + g(y)``
    subject to ``x = y``, returning the scaled-dual trace.

    Updates (penalty 1/rho, so both block updates are prox maps at scale
    rho; the x-block is a linear solve for quadratic f):

        y_{k+1} = prox(g, rho, x_k + u_k)
        x_{k+1} = prox(f, rho, y_{k+1} - u_k)
        u_{k+1} = u_k + x_{k+1} - y_{k+1}

    The reported dual variable is ``w_k = (x_k - u_k) / rho``, which
    follows exactly the operator from ``operators.make_admm_xy_split``.
    When ``y0`` is omitted the start is made consistent
    (``x_0 = prox(f, rho, rho w_0)``) so the match holds from step 0;
    an arbitrary ``y0`` becomes consistent after one iteration.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = f.dimension
    w0 = np.zeros(n) if w0 is None else np.asarray(w0, dtype=float)
    prox_f = prox_map(f, rho)
    prox_g = prox_map(g, rho)
    x = prox_f(rho * w0) if y0 is None else np.asarray(y0, dtype=float).copy()
    u = x - rho * w0
    xs, ys, ws = [x.copy()], [x.copy()], [w0.copy()]
    residuals = []
    for _ in range(iters):
        y = prox_g(x + u)
        x = prox_f(y - u)
        u = u + x - y
        w = (x - u) / rho
        residuals.append(float(np.linalg.norm(w - ws[-1])))
        xs.append(x.copy())
        ys.append(y.copy())
        ws.append(w.copy())
    return IterationTrace(
        iterates=np.asarray(ws),
        residuals=np.asarray(residuals),
        limit=ws[-1].copy(),
        stop_reason=STOP_MAX_ITERS,
        aux={"x": np.asarray(xs), "y": np.asarray(ys)},
    )
