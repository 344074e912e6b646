"""Check that the reference-speed scaling keeps a known change in the
program's CPU at its true size.

Usage (from the root of a checkout)::

    python3 perfsuite/check_scaling.py WORKLOAD

The CPU figures are scaled by a speed factor that ``calibrate.py``
measures on the same CPUs while a step runs (``procs.Calibration``).
If a change to the program's own memory traffic moved that factor, the
scaled figure would hide part of the change. This script builds two
changed copies of ``src/`` under ``perfsuite/.work`` that do a fixed
amount of extra work in each simulated job (campaigns) or each point
query (service):

* ``cpu`` -- an interpreter loop;
* ``memory`` -- allocating and summing large numpy arrays, which
  evicts the caches of the core it runs on.

It then alternates the unchanged and a changed program (in ABBA
order) under one calibration and prints, over the pairs, the median
ratio changed/unchanged of the raw CPU per operation, of the scaled
CPU per operation, and of the speed factor. The scaling is sound when
the scaled ratio equals the raw one, i.e. the factor ratio is 1 within
its quartiles. Takes five to seven minutes per workload.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import procs
import wl_campaign
import wl_service
from stats import median, percentile

#: Pairs of (unchanged, changed) steps or cycles per kind of change.
PAIRS = 12
#: Load seconds of one service cycle.
CYCLE_LOAD_S = 3.0
SEED = 1

#: Extra work per call, as source appended to the changed module.
EXTRA = {
    "cpu": """
def _extra_work():
    total = 0
    for i in range({loops}):
        total += i * i % 7
    return total
""",
    "memory": """
def _extra_work():
    import numpy
    for _ in range({arrays}):
        numpy.ones({length}).sum()
""",
}

#: target -> (module file, how to wrap its entry point, sizes).
TARGETS = {
    "campaign": ("repro/hadoop/simulation.py", """
_unchanged_run_simulated_job = run_simulated_job


def run_simulated_job(*args, **kwargs):
    _extra_work()
    return _unchanged_run_simulated_job(*args, **kwargs)
""", {"loops": 1_500_000, "arrays": 10, "length": 4_000_000}),
    "service": ("repro/service/core.py", """
_unchanged_query_point = BenchmarkService.query_point


def _query_point(self, body):
    _extra_work()
    return _unchanged_query_point(self, body)


BenchmarkService.query_point = _query_point
""", {"loops": 8_000, "arrays": 1, "length": 500_000}),
}


def changed_layout(layout: procs.Layout, kind: str,
                   target: str) -> procs.Layout:
    """A layout whose ``src`` is a copy with the extra work added."""
    changed = procs.Layout(layout.root)
    changed.src = layout.work / f"src-{kind}"
    shutil.rmtree(changed.src, ignore_errors=True)
    shutil.copytree(layout.src, changed.src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module, wrapper, sizes = TARGETS[target]
    with open(changed.src / module, "a") as handle:
        handle.write(EXTRA[kind].format(**sizes))
        handle.write(wrapper)
    procs.compile_bytecode(changed)
    return changed


def campaign_pair(layouts, workload: str, index: int, cpus) -> list:
    """One unchanged and one changed step, in ABBA order."""
    flip = index % 2
    steps = [wl_campaign.run_step(lay, workload, SEED, "step", False,
                                  2 * index + n, cpus)
             for n, lay in enumerate(layouts[::-1] if flip else layouts)]
    return steps[::-1] if flip else steps


def service_pair(layouts, index: int) -> list:
    """One unchanged and one changed load cycle, in ABBA order."""
    flip = index % 2
    cycles = []
    for n, lay in enumerate(layouts[::-1] if flip else layouts):
        cycle = wl_service.Cycle(lay, SEED, 2 * index + n, False)
        cycle.run(CYCLE_LOAD_S)
        cycles.append(cycle)
    return cycles[::-1] if flip else cycles


def measure(layout: procs.Layout, workload: str, kind: str) -> dict:
    """The pair ratios for one kind of extra work."""
    target = "service" if workload == "service-warm" else "campaign"
    layouts = (layout, changed_layout(layout, kind, target))
    if target == "service":
        cpus = procs.usable_cpus()
    else:
        cpus = procs.usable_cpus()[:wl_campaign.CPU_COUNT[workload]]
    pairs = []
    with procs.Calibration(layout, cpus) as calibration:
        for index in range(PAIRS):
            if target == "service":
                pairs.append(service_pair(layouts, index))
            else:
                pairs.append(campaign_pair(layouts, workload, index, cpus))
    ratios = {"raw": [], "scaled": [], "factor": []}
    for pair in pairs:
        figures = []
        for run in pair:
            if target == "service":
                run.calibrate(calibration)
                if not run.answered or run.failed:
                    raise SystemExit(f"{workload} {kind}: a cycle failed")
                figures.append((run.raw_cpu_ms_per_op, run.load_factor))
            else:
                run.factor = calibration.factor(run.child.started,
                                                run.child.ended)
                if not run.ok or None in run.hexes:
                    raise SystemExit(f"{workload} {kind}: a step failed")
                figures.append((run.raw_cpu_ms_per_point, run.factor))
        (raw0, f0), (raw1, f1) = figures
        ratios["raw"].append(raw1 / raw0)
        ratios["scaled"].append(raw1 * f1 / (raw0 * f0))
        ratios["factor"].append(f1 / f0)
    return ratios


def main(argv) -> int:
    """Measure both kinds of extra work; see the module docstring."""
    if len(argv) != 1 or argv[0] not in wl_campaign.CPU_COUNT.keys() | {
            "service-warm"}:
        raise SystemExit(__doc__)
    workload = argv[0]
    layout = procs.Layout(Path.cwd())
    layout.check()
    layout.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        procs.compile_bytecode(layout)
        for kind in EXTRA:
            ratios = measure(layout, workload, kind)
            print(f"{workload} {kind}: {PAIRS} pairs, changed/unchanged "
                  "median [quartiles]")
            for name, values in ratios.items():
                print(f"  {name:<7} {median(values):.3f} "
                      f"[{percentile(values, 25):.3f}, "
                      f"{percentile(values, 75):.3f}]")
    finally:
        shutil.rmtree(layout.run_dir, ignore_errors=True)
        for kind in EXTRA:
            shutil.rmtree(layout.work / f"src-{kind}", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
