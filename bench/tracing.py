"""Tracing of fpicert from outside the package.

``patched(fpicert, tracer)`` replaces the package's public functions, at
the module attributes where their callers look them up, with wrappers
that record one span per call: layer name, start, end, parent span and
request (instance).  Spans stay in memory in flat arrays and are
summarised, or written out, when the batch ends.  Every attribute is
restored when the context exits.

A layer's self time is its spans' duration minus the durations of their
direct child spans; ``us_per_call`` is the mean duration, children
included.
"""

import dataclasses
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PROJECT = "polyhedra.project"
FEASIBILITY = "polyhedra.feasibility_lp"
PROX = "prox"
DR_STEP = "operators.dr_step"
ITERATE = "engine.iterate"
ESTIMATE = "engine.estimate_rates"
ENUMERATE = "analysis.enumerate"
FIXED_SET = "analysis.fixed_point_set"
DISTANCE = "analysis.distance"
LINALG = "linalg"
VERIFY = "verify"

#: Numeric kernels of ``fpicert.linalg`` (``as_matrix``, an input check,
#: is left out).
LINALG_FUNCS = ("pseudo_inverse", "spectral_summary", "condition_number_plus",
                "lambda_max_psd", "null_space_basis", "row_space_basis")

#: Row-count buckets of ``polyhedra.project.us_per_call``.
ROW_BUCKETS = (("m_le8", 0, 8), ("m9_16", 9, 16), ("m_gt16", 17, 1 << 30))


class Tracer:
    """Span store: parallel arrays, one entry per wrapped call.

    ``count`` and ``flag`` carry per-span quantities recorded at the
    boundary: steps and budget exhaustion for ``engine.iterate``, pieces
    for ``analysis.enumerate``, polyhedron rows and a raised error for
    ``polyhedra.project``.
    """

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.kind = array("h")
        self.request_of = array("h")
        self.count = array("i")
        self.flag = array("b")
        self.request = -1
        self._stack = []

    def wrap(self, name, fn, rows=None, note=None, raises=()):
        """``fn`` recording one ``name`` span per call.

        ``rows(args, kwargs)`` gives the span's count before the call;
        ``note(result)`` gives its ``(count, flag)`` after it; an
        exception in ``raises`` sets the flag.
        """
        if name not in self.names:
            self.names.append(name)
        kind = self.names.index(name)
        start, end, parent, stack = self.start, self.end, self.parent, self._stack
        kinds, requests, counts, flags = self.kind, self.request_of, self.count, self.flag

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            kinds.append(kind)
            requests.append(self.request)
            counts.append(rows(args, kwargs) if rows is not None else 0)
            flags.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except raises:
                flags[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if note is not None:
                counts[i], flags[i] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """The spans as numpy arrays, with each span's self time."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {"dur": dur, "self": dur - child, "parent": parent,
                "kind": np.frombuffer(self.kind, dtype=np.int16),
                "request": np.frombuffer(self.request_of, dtype=np.int16),
                "count": np.frombuffer(self.count, dtype=np.int32),
                "flag": np.frombuffer(self.flag, dtype=np.int8)}

    def save(self, path):
        """Write every span to ``path`` (numpy ``.npz``)."""
        a = self.arrays()
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 **{k: a[k] for k in ("parent", "kind", "request", "count", "flag")})


def _poly_rows(args, kwargs):
    poly = args[0] if args else kwargs["poly"]
    return poly.num_rows


def _targets(fpicert):
    """``(owner, attribute, span name, rows, note, raises)`` per patch."""
    from fpicert.errors import Infeasible, NoCertificate

    def note_iterate(trace):
        return trace.num_steps, int(trace.stop_reason == fpicert.engine.STOP_MAX_ITERS)

    def note_pieces(pieces):
        return len(pieces), 0

    m = fpicert
    targets = [(mod, "project_polyhedron", PROJECT, _poly_rows, None,
                (Infeasible, NoCertificate))
               for mod in (m.polyhedra, m.prox, m.analysis, m.operators)]
    targets += [(mod, fn, FEASIBILITY, None, None, ())
                for mod in (m.polyhedra, m.analysis, m.problems)
                for fn in ("find_feasible_point", "face_feasible_point")
                if hasattr(mod, fn)]
    targets += [(mod, "prox", PROX, None, None, ()) for mod in (m.prox, m.operators)]
    targets += [
        (m.engine, "iterate", ITERATE, None, note_iterate, ()),
        (m.engine, "estimate_rates", ESTIMATE, None, None, ()),
        (m.analysis, "enumerate_pieces_lp", ENUMERATE, None, note_pieces, ()),
        (m.analysis, "enumerate_pieces_qp", ENUMERATE, None, note_pieces, ()),
        (m.analysis, "fixed_point_set", FIXED_SET, None, None, ()),
        (m.analysis.FixedPointSetDescription, "distance", DISTANCE, None, None, ()),
        (m.verify, "verify_lp", VERIFY, None, None, ()),
        (m.verify, "verify_qp", VERIFY, None, None, ()),
    ]
    targets += [(mod, fn, LINALG, None, None, ())
                for mod in (m.linalg, m.analysis, m.verify, m.polyhedra, m.operators,
                            m.problems)
                for fn in LINALG_FUNCS if hasattr(mod, fn)]
    return targets


def patch_sites(fpicert):
    """``(owner, attribute)`` of every attribute ``patched`` replaces."""
    return [(owner, attr) for owner, attr, *_ in _targets(fpicert)] + [
        (fpicert.operators, "make_dr")]


@contextmanager
def patched(fpicert, tracer):
    """Route fpicert's public functions through ``tracer`` while inside."""
    saved = []
    try:
        for owner, attr, name, rows, note, raises in _targets(fpicert):
            # read through __dict__ so a method is saved as the plain function
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, rows, note, raises))
        make_dr = vars(fpicert.operators)["make_dr"]
        saved.append((fpicert.operators, "make_dr", make_dr))

        def traced_make_dr(*args, **kwargs):
            op, extraction = make_dr(*args, **kwargs)
            return dataclasses.replace(op, evaluate=tracer.wrap(DR_STEP, op.evaluate)), extraction

        fpicert.operators.make_dr = traced_make_dr
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(tracer):
    """Per-layer metrics of one traced batch, ``{name: (value, unit)}``."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(name):
        return a["kind"] == ids.get(name, -1)

    def calls(name):
        return int(sel(name).sum())

    def self_s(name):
        return float(a["self"][sel(name)].sum())

    def us_per_call(mask):
        n = int(mask.sum())
        return float(a["dur"][mask].sum()) / n * 1e6 if n else 0.0

    project = sel(PROJECT)
    distance = sel(DISTANCE)
    parent_kind = np.where(a["parent"] >= 0, a["kind"][a["parent"]], -1)
    with_project_child = np.zeros(len(a["dur"]), dtype=bool)
    with_project_child[a["parent"][project & (a["parent"] >= 0)]] = True
    n_distance = int(distance.sum())
    affine_hits = int((distance & ~with_project_child).sum())

    out = {
        "polyhedra.project.calls": (calls(PROJECT), "count"),
        "polyhedra.project.self_s": (self_s(PROJECT), "s"),
        "polyhedra.project.us_per_call": (us_per_call(project), "us"),
    }
    rows = a["count"]
    for label, lo, hi in ROW_BUCKETS:
        out[f"polyhedra.project.us_per_call.{label}"] = (
            us_per_call(project & (rows >= lo) & (rows <= hi)), "us")
    out.update({
        "polyhedra.project.raised": (int(a["flag"][project].sum()), "count"),
        "polyhedra.feasibility_lp.calls": (calls(FEASIBILITY), "count"),
        "polyhedra.feasibility_lp.self_s": (self_s(FEASIBILITY), "s"),
        "prox.calls": (calls(PROX), "count"),
        "prox.self_s": (self_s(PROX), "s"),
        "operators.dr_step.calls": (calls(DR_STEP), "count"),
        "operators.dr_step.us_per_call": (us_per_call(sel(DR_STEP)), "us"),
        "operators.dr_step.self_s": (self_s(DR_STEP), "s"),
        "engine.iterate.steps": (int(a["count"][sel(ITERATE)].sum()), "count"),
        "engine.iterate.budget_exhausted": (int(a["flag"][sel(ITERATE)].sum()), "count"),
        "engine.iterate.self_s": (self_s(ITERATE), "s"),
        "engine.estimate_rates.self_s": (self_s(ESTIMATE), "s"),
        "analysis.enumerate.pieces": (int(a["count"][sel(ENUMERATE)].sum()), "count"),
        "analysis.enumerate.lp_calls": (
            int((sel(FEASIBILITY) & (parent_kind == ids.get(ENUMERATE, -2))).sum()), "count"),
        "analysis.enumerate.self_s": (self_s(ENUMERATE), "s"),
        "analysis.fixed_point_set.self_s": (self_s(FIXED_SET), "s"),
        "analysis.distance.calls": (n_distance, "count"),
        "analysis.distance.us_per_call": (us_per_call(distance), "us"),
        "analysis.distance.self_s": (self_s(DISTANCE), "s"),
        "analysis.distance.affine_hit_ratio": (
            affine_hits / n_distance if n_distance else 0.0, "ratio"),
        "linalg.calls": (calls(LINALG), "count"),
        "linalg.self_s": (self_s(LINALG), "s"),
        "verify.self_s": (self_s(VERIFY), "s"),
    })
    return out
