"""Tests of the benchmark itself: the reference comparison behind
``error_ratio``, traced against untraced outcomes, restoration of every
patched attribute, and the result line of one short run.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

fpicert = workloads.import_fpicert(HERE.parent)


def _items(workload, count):
    return [(spec, *workloads.generate(fpicert, spec))
            for spec in workloads.specs(workload)[:count]]


def _reference(*names):
    merged = {}
    for entries in workloads.load_reference("acceptance").values():
        merged.update(entries)
    return {name: merged[name] for name in names}


def _failed(records):
    return [rec["name"] for rec in records if rec["failed"]]


def test_reference_covers_every_instance_of_every_set():
    for instance_set in workloads.INSTANCE_SETS:
        reference = workloads.load_reference(instance_set)
        for workload in workloads.WORKLOADS:
            names = {workloads.generate(fpicert, spec)[0].name
                     for spec in workloads.specs(workload, instance_set)}
            assert names == set(reference[workload])


def test_altered_reference_outcome_is_counted_as_failed():
    items = _items("lp-batch", 3)
    names = [instance.name for _, instance, _ in items]
    reference = _reference(*names)
    assert _failed(workloads.run_batch(fpicert, items, reference)) == []

    target = names[1]
    entry = reference[target]
    check = sorted(entry["checks"])[0]
    alterations = {
        "steps": lambda e: e.update(steps=e["steps"] + 5),
        "stop_reason": lambda e: e.update(stop_reason="max_iters"),
        "check": lambda e: e["checks"].update({check: not e["checks"][check]}),
        "K": lambda e: e.update(K=e["K"] * 1.001),
        "K_closed_form": lambda e: e.update(K_closed_form=e["K_closed_form"] + 1e-6),
    }
    for key, alter in alterations.items():
        altered = copy.deepcopy(reference)
        alter(altered[target])
        records = workloads.run_batch(fpicert, items, altered)
        assert _failed(records) == [target], key
    del reference[target]
    assert _failed(workloads.run_batch(fpicert, items, reference)) == [target]


def test_raising_instance_is_counted_as_failed(monkeypatch):
    items = _items("lp-batch", 2)
    reference = _reference(*(instance.name for _, instance, _ in items))

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(fpicert.verify, "verify_lp", broken)
    records = workloads.run_batch(fpicert, items, reference)
    assert len(_failed(records)) == 2
    assert all("RuntimeError" in rec["problems"][0] for rec in records)


def test_step_tolerance_is_one_percent():
    ref = {"steps": 1000}
    assert workloads.differences({"steps": 1010}, ref) == []
    assert workloads.differences({"steps": 1011}, ref) != []
    assert workloads.differences({"steps": 3}, {"steps": 2}) == []
    assert workloads.differences({"steps": 4}, {"steps": 2}) != []


def test_traced_and_untraced_runs_give_identical_outcomes():
    items = (_items("lp-batch", 2) + _items("qp-batch", 2)
             + [item for item in _items("enum-wide", 8)
                if item[1].name == "qp-n6-m16-r4-s1"])
    reference = _reference(*(instance.name for _, instance, _ in items))
    plain = workloads.run_batch(fpicert, items, reference)
    tracer = tracing.Tracer()
    with tracing.patched(fpicert, tracer):
        traced = workloads.run_batch(fpicert, items, reference, tracer)
    assert _failed(plain) == _failed(traced) == []
    assert [r["outcome"] for r in traced] == [r["outcome"] for r in plain]

    # the counters agree with the outcomes they describe
    layers = tracing.summarize(tracer)
    outcomes = [r["outcome"] for r in plain]
    assert layers["engine.iterate.steps"][0] == sum(o.get("steps", 0) for o in outcomes)
    assert layers["engine.iterate.budget_exhausted"][0] == 0
    assert layers["analysis.enumerate.pieces"][0] >= outcomes[-1]["pieces"]
    assert layers["polyhedra.feasibility_lp.calls"][0] >= layers["analysis.enumerate.lp_calls"][0] > 0
    assert 0.0 < layers["analysis.distance.affine_hit_ratio"][0] <= 1.0
    assert set(tracer.arrays()["request"]) == set(range(len(items)))


def test_patched_restores_every_attribute():
    sites = tracing.patch_sites(fpicert)
    named = {(owner.__name__, attr) for owner, attr in sites}
    for site in [("fpicert.operators", "prox"), ("fpicert.prox", "project_polyhedron"),
                 ("fpicert.analysis", "project_polyhedron"),
                 ("fpicert.analysis", "face_feasible_point"),
                 ("fpicert.analysis", "find_feasible_point"),
                 ("fpicert.engine", "iterate"), ("fpicert.engine", "estimate_rates"),
                 ("FixedPointSetDescription", "distance"),
                 ("fpicert.operators", "make_dr")]:
        assert site in named
    before = [vars(owner)[attr] for owner, attr in sites]
    with pytest.raises(RuntimeError):
        with tracing.patched(fpicert, tracing.Tracer()):
            assert all(vars(owner)[attr] is not original
                       for (owner, attr), original in zip(sites, before))
            raise RuntimeError("leave the context by an exception")
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(sites, before))


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0, 0, 0]
    assert a["self"][0] == pytest.approx(a["dur"][0] - a["dur"][1:].sum())
    assert list(a["self"][1:]) == list(a["dur"][1:])


def test_run_prints_result_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lp-batch",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * 20
    assert set(result["metrics"]) == {"setup_s", "batch_s", "instance_s.p50",
                                      "peak_rss_mb"}
    assert "error_ratio = 0 " in out
