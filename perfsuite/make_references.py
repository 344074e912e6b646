"""Regenerate ``references.json``: the simulated times of every campaign
point, per workload and seed, as ``float.hex()`` strings in grid order.

Usage (from the root of a checkout)::

    python3 perfsuite/make_references.py

The benchmark counts a point whose simulated time differs from these as
failed, so regenerate only when a change is meant to alter simulated
times (and say so in that change).
"""

import json
import shutil
import sys
from pathlib import Path

import procs
import wl_campaign


#: The seeds with stored references.
SEEDS = range(0, 16)


def main() -> int:
    """Simulate each seed once per campaign workload and write the file."""
    layout = procs.Layout(Path.cwd())
    layout.check()
    layout.run_dir.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        procs.compile_bytecode(layout)
        for workload in wl_campaign.CPU_COUNT:
            cpus = procs.usable_cpus()[:wl_campaign.CPU_COUNT[workload]]
            for seed in SEEDS:
                step = wl_campaign.run_step(layout, workload, seed, "step",
                                            False, seed, cpus)
                if not step.ok or None in step.hexes:
                    print(f"{workload} seed {seed}: step failed",
                          file=sys.stderr)
                    return 1
                table.setdefault(workload, {})[str(seed)] = step.hexes
                print(f"{workload} seed {seed}: {len(step.hexes)} points")
    finally:
        shutil.rmtree(layout.run_dir, ignore_errors=True)
    with open(wl_campaign.REFERENCES, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
