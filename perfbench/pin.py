"""Regenerate ``golden.json``: the pinned-seed outputs of every workload
cell, run once on the serial reference backend.

Usage (from the repository root)::

    python3 perfbench/pin.py

Run it only when a change to the program is meant to change results, and
say why in the change description.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run as bench


def main() -> int:
    bench.cap_blas_threads()
    bench.import_repro()
    from cells import WORKLOADS, run_one

    golden: dict = {}
    for workload, cells in WORKLOADS.items():
        golden[workload] = {}
        for cell in cells:
            serial = dataclasses.replace(
                cell, fl_options={**cell.fl_options, "backend": "serial"}
            )
            r = run_one(serial, bench.PINNED_SEED)
            if not r.finite:
                raise SystemExit(f"{cell.key}: non-finite parameters")
            golden[workload][cell.key] = {
                "final_acc": r.final_acc,
                "total_mb": r.total_mb,
                "clusters": r.clusters,
                "assignment": r.assignment,
            }
            print(workload, cell.key, golden[workload][cell.key], flush=True)
    with open(os.path.join(bench.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
