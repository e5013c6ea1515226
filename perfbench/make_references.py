#!/usr/bin/env python3
"""Regenerate ``perfbench/references.json``.

    python3 perfbench/make_references.py

Trains every configuration of every workload for each of the
``REFERENCE_SEEDS`` input seeds, with BLAS pinned exactly as in a
benchmark run, and stores each run's final loss and report digest. Run it
only when a change is meant to alter training results, and say so.
"""

import json
import sys

import run  # pins BLAS threads before numpy is imported

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import harness  # noqa: E402
from tqla import training  # noqa: E402


def main():
    refs = {}
    for name in harness.WORKLOADS:
        refs[name] = {}
        for seed in range(harness.REFERENCE_SEEDS):
            workload = harness.make_workload(name, seed, references={})
            entry = {}
            for cfg in workload.configs:
                report = training.train_toy(cfg)
                entry[cfg.scheme] = {
                    "final_loss": report.final_loss,
                    "digest": harness.report_digest(report),
                }
            refs[name][str(seed)] = entry
            print(name, seed, flush=True)
    with open(harness.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
