"""Regenerate perfbench/references.json: the final diagnostics row of every
workload at its full and smoke step counts, and of drift_d2 for seeds 0-19.

    python3 perfbench/make_references.py

The committed file was generated from the solver as it stood when the
benchmark was defined.  Regenerating it from a later commit would turn the
check into a self-comparison; do so only for a deliberate change of the
physics, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import shutil

from run import make_context
from workloads import REFERENCE_FILE, SMOKE_STEPS, WORKLOADS, final_row, read_csv

REFERENCE_SEEDS = range(20)


def main() -> None:
    threads = len(os.sched_getaffinity(0))
    refs = {}
    for workload in WORKLOADS.values():
        for steps in (workload.steps, SMOKE_STEPS):
            for seed in REFERENCE_SEEDS if workload.seeded else (0,):
                ctx = make_context(workload.name, seed, steps, "reference", {})
                job = ctx.run_job("reference", threads)
                if not job.ok:
                    raise SystemExit(f"{workload.name} steps={steps} seed={seed}: {job.cause}")
                key = workload.reference_key(seed, steps)
                refs[key] = final_row(read_csv(job.out_dir / "diagnostics.csv"))
                print(key, refs[key])
                shutil.rmtree(ctx.work)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
