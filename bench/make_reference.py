"""Regenerate ``bench/reference.json``: the outcome of every instance of
every workload and instance set, certified once in canonical order.

    python3 bench/make_reference.py

Run it only on a commit whose outcomes are the intended reference; the
benchmark counts every later difference in ``error_ratio``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    fpicert = workloads.import_fpicert(HERE.parent)
    reference = {}
    for instance_set in workloads.INSTANCE_SETS:
        for workload in workloads.WORKLOADS:
            entries = {}
            for spec in workloads.specs(workload, instance_set):
                instance, truth = workloads.generate(fpicert, spec)
                entries[instance.name] = workloads.certify(fpicert, spec, instance, truth)
                print(instance_set, instance.name, entries[instance.name], flush=True)
            reference.setdefault(instance_set, {})[workload] = entries
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
