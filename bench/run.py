"""fpicert benchmark: certify-batch wall time per workload.

Run from the repository root:

    python3 bench/run.py --workload lp-batch --seed 1 --seconds 20 --trace 0

Workloads are ``lp-batch``, ``qp-batch`` and ``enum-wide`` (see
``bench/workloads.py`` for what each certifies and why).  ``--seed`` fixes
the order in which a run certifies the instances; the instances
themselves are the acceptance-suite seeds, or with ``--instances
heldout`` the held-out seeds of the same shapes.

Each run starts the workload in a fresh process with BLAS pinned to one
thread, so set-up time and peak memory belong to that workload.  Set-up
is also timed in a few extra processes that stop after generating the
instances, and ``setup_s`` is the median.  The worker certifies the
whole batch repeatedly for ``--seconds`` (at least three times) and
every outcome is compared with ``bench/reference.json``.

With ``--trace 0`` the printed metrics are the end-to-end ones:

* ``setup_s``: process start until the first timed call (imports and
  instance generation), median over the set-up samples;
* ``batch_s``: wall time to certify every instance once, median over
  the batches;
* ``instance_s.p50``: median over the instances of each instance's
  median certify time over the batches (the sample counts are printed);
* ``peak_rss_mb``: peak resident memory of the worker process.

``error_ratio`` (instances that raised or differ from the reference over
instances attempted) is printed by name, and is ``failed / attempted``
in the result line; ``correct`` is true only when it is 0.

With ``--trace 1`` untraced and traced batches alternate and the metrics
are the per-layer ones of ``bench/tracing.py``, plus ``trace.overhead_s``,
the traced minus the untraced median batch time.  The spans of the last
traced batch are written to ``bench/out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Processes timed for ``setup_s``, the measured worker included.
SETUP_SAMPLES = 7

#: A run ends within this many seconds, or fails.
RUN_TIMEOUT_S = 170.0

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def worker_command(args, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--instances", args.instances,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def start_worker(cmd, env):
    """Start a worker; return it with its set-up time, from start until
    its ``READY`` line."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        sys.exit(f"benchmark: worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    """Wait for a worker until the run's deadline; return its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"benchmark: worker did not finish within {RUN_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        sys.exit(f"benchmark: worker exited with {proc.returncode}")
    return out


def run_worker(args, deadline):
    """Time the set-up samples, run the measured worker, return its
    result and the set-up times."""
    env = dict(os.environ, **BLAS_THREADS)
    setups = []
    # a traced run reports no set-up time
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        proc, setup = start_worker(worker_command(args, setup_only=True), env)
        finish(proc, deadline)
        setups.append(setup)
    proc, setup = start_worker(worker_command(args), env)
    setups.append(setup)
    out = finish(proc, deadline)
    return json.loads(out.strip().splitlines()[-1]), setups


def instance_walls(batches):
    """Each instance's certify times over the batches, by name."""
    walls = {}
    for batch in batches:
        for rec in batch["records"]:
            walls.setdefault(rec["name"], []).append(rec["wall"])
    return walls


def instance_table(batches):
    """One line per instance: shape, steps, stop reason (or pieces) and
    median wall time over the batches."""
    walls = instance_walls(batches)
    lines = [f"{'instance':<22} {'n':>2} {'m':>3} {'steps':>7} "
             f"{'stop/pieces':<14} {'wall_s':>9}"]
    for rec in sorted(batches[0]["records"], key=lambda r: r["name"]):
        o = rec["outcome"] or {}
        if "pieces" in o:
            steps, stop = "-", f"{o['pieces']} pieces"
        else:
            steps, stop = o.get("steps", "-"), o.get("stop_reason", "raised")
        lines.append(f"{rec['name']:<22} {rec['n']:>2} {rec['m']:>3} {steps:>7} "
                     f"{stop:<14} {median(walls[rec['name']]):>9.4f}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="order in which the run certifies the instances")
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the worker keeps certifying batches")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instances", default="acceptance", choices=workloads.INSTANCE_SETS,
                   help="acceptance-suite seeds, or held-out seeds of the same shapes")
    args = p.parse_args(argv)
    deadline = perf_counter() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "fpicert" / "__init__.py").is_file():
        sys.exit(f"benchmark: no fpicert sources under {ROOT / 'src'}")
    # the build step: byte-compile once so set-up never includes it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    result, setups = run_worker(args, deadline)
    batches = result["batches"]
    untraced = [b for b in batches if not b["traced"]]
    traced = [b for b in batches if b["traced"]]
    records = [rec for b in batches for rec in b["records"]]
    attempted = len(records)
    failed = sum(rec["failed"] for rec in records)
    instance_medians = [median(w) for w in instance_walls(untraced).values()]
    batch_s = median(b["wall"] for b in untraced)

    env = result["env"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']} "
          f"({env['affinity_cpus']} usable), BLAS threads {env['blas_threads']}")
    print(f"workload {args.workload} ({args.instances} instances), order seed "
          f"{args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"batches of {len(batches[0]['records'])} instances")
    print("\n".join(instance_table(untraced)))
    for rec in records:
        if rec["failed"]:
            print(f"FAILED {rec['name']}: {'; '.join(rec['problems'])}")
    print(f"error_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          f"instances raised or differ from the reference)")

    if args.trace:
        overhead = median(b["wall"] for b in traced) - batch_s
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in result["per_layer"].items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"spans of the last traced batch: {result['spans_file']}")
        print(f"tracing overhead: {overhead:.4f} s on an untraced batch of "
              f"{batch_s:.4f} s")
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "batch_s": {"value": batch_s, "unit": "s"},
            "instance_s.p50": {"value": median(instance_medians), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s over {len(setups)} processes, batch_s over "
              f"{len(untraced)} batches, instance_s.p50 over "
              f"{len(instance_medians)} instances, each timed in every batch")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
