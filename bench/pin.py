"""Pin the output digests the benchmark's output gate checks.

Run from the root of a checkout:

    python3 bench/pin.py

For the default workload seed and one held-out seed, it runs each workload
once through the CLI, checks the output against the invariants, and writes
the sha256 of stdout (and of the CSV) to `bench/digests.json`.  Re-pin only
when a change is meant to alter the output bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads
from run import ROOT, Spawner

PINNED_SEEDS = (0, 1009)


def pin(spawner: Spawner, workdir) -> "dict | None":
    digests: dict = {}
    for workload in workloads.WORKLOADS:
        for seed in PINNED_SEEDS:
            inv = workloads.build(workload, seed, workdir)
            inv.write_inputs()
            child = spawner.run([sys.executable, "-m", "sealedbid", *inv.argv])
            csv_bytes = inv.read_csv()
            problems = workloads.check_output(inv, seed, child.code, child.stdout,
                                              csv_bytes, {})
            if problems:
                print(f"error: {workload} seed {seed}: {problems}", file=sys.stderr)
                return None
            entry = {"stdout": workloads.sha256(child.stdout)}
            if csv_bytes is not None:
                entry["csv"] = workloads.sha256(csv_bytes)
            digests.setdefault(workload, {})[str(seed)] = entry
            print(f"{workload} seed {seed}: {entry}")
    return digests


def main() -> int:
    workdir = ROOT / ".bench_work" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Spawner(workdir) as spawner:
            digests = pin(spawner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if digests is None:
        return 1
    workloads.DIGESTS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
