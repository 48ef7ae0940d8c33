"""One benchmark workload in its own process.

Started by ``run.py``; not meant to be run by hand.  It imports fpicert
from ``<root>/src``, generates the workload's instances, prints ``READY``
(the parent times set-up up to that line), then certifies the whole batch
repeatedly, until a further batch would overrun ``--seconds``, and prints
one JSON object with every batch's per-instance records.

With ``--trace 1`` untraced and traced batches alternate, so the tracing
overhead is measured within one process; the per-layer metrics come from
the traced batches and the spans of the last one are written to
``<root>/bench/out``.
"""

import argparse
import json
import os
import random
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing
import workloads

#: An untraced run certifies at least this many batches, so the median
#: batch time never rests on one or two samples; a traced run certifies
#: at least one untraced and one traced batch.
MIN_BATCHES = 3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--instances", default="acceptance", choices=workloads.INSTANCE_SETS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    fpicert = workloads.import_fpicert(args.root)
    specs = workloads.specs(args.workload, args.instances)
    # the run seed fixes the order in which the instances are certified
    random.Random(args.seed).shuffle(specs)
    items = [(spec, *workloads.generate(fpicert, spec)) for spec in specs]
    reference = workloads.load_reference(args.instances)[args.workload]
    print("READY", flush=True)
    if args.setup_only:
        return

    # a traced run alternates untraced and traced batches, in pairs
    unit, min_batches = (2, 2) if args.trace else (1, MIN_BATCHES)
    batches, layers, tracer = [], [], None
    t_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(batches) % 2 == 1
        t0 = perf_counter()
        if traced:
            tracer = tracing.Tracer()
            with tracing.patched(fpicert, tracer):
                records = workloads.run_batch(fpicert, items, reference, tracer)
        else:
            records = workloads.run_batch(fpicert, items, reference)
        batches.append({"traced": traced, "wall": perf_counter() - t0,
                        "records": records})
        if traced:
            layers.append(tracing.summarize(tracer))
        if len(batches) % unit or len(batches) < min_batches:
            continue
        # stop before a further batch (or pair) would overrun --seconds
        elapsed = perf_counter() - t_start
        if elapsed * (1 + unit / len(batches)) > args.seconds:
            break

    result = {"batches": batches,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if args.trace:
        out = Path(args.root) / "bench" / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}.npz"
        tracer.save(spans)
        result["spans_file"] = str(spans.relative_to(args.root))
        result["per_layer"] = per_layer(layers)
    print(json.dumps(result), flush=True)


def per_layer(layers):
    """Each per-layer metric over the traced batches: the median of a
    time, the value of a count, which must repeat exactly."""
    merged = {}
    for name, (value, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if unit == "count" and len(set(values)) > 1:
            print(f"worker: count {name} differs between batches: {values}",
                  file=sys.stderr)
        merged[name] = [values[0] if unit == "count" else median(values), unit]
    return merged


def environment():
    import numpy
    import scipy
    blas_env = {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": blas_env}


if __name__ == "__main__":
    main()
