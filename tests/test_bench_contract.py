"""The benchmark under ``bench/`` looks fpicert's functions up by name and
patches module attributes to trace them.  ``bench/`` is outside the test
paths, so this guard certifies four LPs and one QP exactly as the
benchmark does, plain and traced, the long-running QP s117 plain, and one
``enum-wide`` LP and one ``enum-wide`` QP through the analysis alone, and
compares the outcomes with its reference.  It also checks that
every attribute the tracer patches is defined on its owner."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fpicert
import fpicert.verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


# lp-n2-m4-s15, lp-n3-m6-s11 and lp-n4-m8-s12 end a long run with a
# roundoff step inside their tail-fit window, so their fitted terminal
# contraction, and the check on it, moves with the last bits of the run
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload, index, name", [
    pytest.param(w, i, name, id=f"{w}-{name}")
    for w, i, name in [("lp-batch", 0, "lp-n2-m4-s0"),
                       ("qp-batch", 0, "qp-n2-m4-r1-s100"),
                       ("lp-batch", 15, "lp-n2-m4-s15"),
                       ("lp-batch", 11, "lp-n3-m6-s11"),
                       ("lp-batch", 12, "lp-n4-m8-s12")]])
def test_benchmark_certifies_like_its_reference(workload, index, name, traced):
    spec = workloads.specs(workload)[index]
    instance, truth = workloads.generate(fpicert, spec)
    assert instance.name == name
    if traced:
        tracer = tracing.Tracer()
        with tracing.patched(fpicert, tracer):
            outcome = workloads.certify(fpicert, spec, instance, truth)
        # spans vanish when a traced name is no longer looked up at call time
        summary = tracing.summarize(tracer)
        assert summary["engine.iterate.steps"][0] == outcome["steps"]
        # one call per step, and one for the block of estimate_rates samples
        assert summary["operators.dr_step.calls"][0] == outcome["steps"] + 1
        assert summary["analysis.enumerate.pieces"][0] > 0
    else:
        outcome = workloads.certify(fpicert, spec, instance, truth)
    reference = workloads.load_reference("acceptance")[workload][name]
    assert workloads.differences(outcome, reference) == []


def test_benchmark_certifies_the_long_qp_like_its_reference():
    # 13,129 DR steps, almost all on one face, so nearly every step is
    # taken in a block of the untraced step's orbit
    spec = workloads.specs("qp-batch")[17]
    instance, truth = workloads.generate(fpicert, spec)
    assert instance.name == "qp-n4-m8-r3-s117"
    outcome = workloads.certify(fpicert, spec, instance, truth)
    reference = workloads.load_reference("acceptance")["qp-batch"][instance.name]
    assert workloads.differences(outcome, reference) == []
    assert outcome["steps"] == reference["steps"] == 13_129


def test_every_patch_site_is_an_attribute_of_its_owner():
    # the tracer saves each site through vars(owner), so a name that is
    # only inherited or imported elsewhere would break the traced run
    for owner, attr in tracing.patch_sites(fpicert):
        assert attr in vars(owner), (owner, attr)


def test_benchmark_analyzes_an_enum_wide_lp_like_its_reference():
    spec = workloads.specs("enum-wide")[1]
    instance, truth = workloads.generate(fpicert, spec)
    assert instance.name == "lp-n6-m16-s1"
    outcome = workloads.certify(fpicert, spec, instance, truth)
    assert outcome["fixed_pieces"] > 1
    reference = workloads.load_reference("acceptance")["enum-wide"][instance.name]
    assert workloads.differences(outcome, reference) == []


def test_benchmark_analyzes_an_enum_wide_qp_like_its_reference():
    # 700 pieces, nearly all of full rank with their zero outside their
    # region: fixed_point_set skips those before factorising a zero set
    spec = workloads.specs("enum-wide")[5]
    instance, truth = workloads.generate(fpicert, spec)
    assert instance.name == "qp-n6-m16-r4-s1"
    outcome = workloads.certify(fpicert, spec, instance, truth)
    assert outcome["fixed_pieces"] == 1
    reference = workloads.load_reference("acceptance")["enum-wide"][instance.name]
    assert workloads.differences(outcome, reference) == []
