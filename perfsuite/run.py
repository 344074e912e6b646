"""Repository benchmark: one named workload per invocation.

Usage (from the root of a checkout)::

    python3 perfsuite/run.py --workload fig2c-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig2c-cold`` -- the Fig. 2(c) MR-SKEW campaign, cold, in-process;
* ``fig3a-pool`` -- the Fig. 3(a) MR-AVG YARN campaign on a 2-worker pool;
* ``service-warm`` -- warm point queries against ``repro serve``.

The program is driven only through its public entry points, in child
interpreters; this process never imports it. ``--trace 0`` reports the
end-to-end metrics (``setup_s``, ``cpu_ms_per_op``, ``peak_rss_mb``),
``--trace 1`` the per-layer ones from a separate traced run. The last
line of standard output is the JSON result; the lines before it are
the samples (each with the run's metadata), the ungated ``wall.*``
figures and a readable table.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import procs
import wl_campaign
import wl_service
from report import Outcome

WORKLOADS = {
    "fig2c-cold": (wl_campaign.run, "cold"),
    "fig3a-pool": (wl_campaign.run, "cold"),
    "service-warm": (wl_service.run, "warm"),
}

NOTE = ("note: the simulator is validated against the paper only on shape "
        "(orderings, ratios, trends; EXPERIMENTS.md), not on absolute "
        "seconds; these metrics measure the program, not a Hadoop cluster")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one workload and print its result; see the module docstring."""
    args = parse_args(argv)
    layout = procs.Layout(Path.cwd())
    layout.check()
    runner, state = WORKLOADS[args.workload]
    meta = procs.host_meta(layout)
    meta.update(workload=args.workload, seed=args.seed, state=state,
                traced=bool(args.trace))
    layout.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        procs.compile_bytecode(layout)
        ticks = procs.cpu_ticks()
        started = time.monotonic()
        outcome = runner(layout, args.workload, args.seed, args.seconds,
                         bool(args.trace))
        meta["run_wall_s"] = time.monotonic() - started
        meta["steal_pct"] = procs.steal_pct(ticks, procs.cpu_ticks())
    finally:
        shutil.rmtree(layout.run_dir, ignore_errors=True)
    meta.update(outcome.meta)
    print_result(outcome, meta, bool(args.trace))
    return 0


def print_result(outcome: Outcome, meta: dict, traced: bool) -> None:
    """The sample lines, the readable table and the JSON result last."""
    for sample in outcome.samples:
        print("sample " + json.dumps(dict(sample, meta=meta), sort_keys=True))
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    metrics = outcome.all_layers() if traced else outcome.e2e
    print(NOTE)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}, "
          f"correct {outcome.correct}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
