"""The two campaign workloads: ``fig2c-cold`` and ``fig3a-pool``.

A run is a sequence of steps, each a fresh interpreter that runs the
whole campaign once against an empty store (``step_campaign.py``).
Between steps, set-up probes start fresh interpreters that only set up,
so set-up samples are spread through the whole run.

Untraced (``--trace 0``) a step reports:

* set-up CPU seconds (import, spec load, store open);
* CPU per completed point: the step tree's CPU (``wait4``: the
  coordinator plus the pool workers it reaped) minus its set-up;
* the summed peak RSS of the tree's processes.

CPU figures are scaled to a reference core speed by the calibration
running beside the step on the same CPUs (``procs.Calibration``); the
raw figures are in the sample lines. ``fig2c-cold`` is single-threaded
and pinned to one CPU so that its calibration measures the core it ran
on; ``fig3a-pool`` uses both.

Traced (``--trace 1``) runs alternate untraced and traced steps; the
traced ones give the per-layer metrics and the two give the tracing
overhead.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path
from typing import List, Optional

import procs
from report import Outcome, Trace
from stats import majority, median, mismatches, percentile

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: Set-up-only interpreters started after each step.
PROBES_PER_STEP = 2

#: CPUs each workload runs on (indices into ``procs.usable_cpus()``).
CPU_COUNT = {"fig2c-cold": 1, "fig3a-pool": 2}

CAMPAIGN_STAGES = {
    "campaign.expand_s": "expand",
    "campaign.store_lookup_s": "store-lookup",
    "campaign.shared_setup_s": "shared-setup",
    "campaign.simulate_s": "simulate",
    "campaign.record_s": "record",
}


def load_references(workload: str, seed: int) -> Optional[List[str]]:
    """Stored simulated times (hex, grid order) for this seed, if any."""
    with open(REFERENCES) as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed))


class Step:
    """One finished child: its probe records and its own report."""

    def __init__(self, kind: str, child: procs.ChildResult,
                 doc: Optional[dict], traced: bool):
        self.kind = kind
        self.child = child
        self.doc = doc
        self.traced = traced
        #: Reference-speed CPU over measured CPU (set after the run).
        self.factor = 1.0

    @property
    def ok(self) -> bool:
        """Whether the child exited cleanly and wrote its report."""
        return self.doc is not None and self.child.returncode == 0

    @property
    def hexes(self) -> List[Optional[str]]:
        """Simulated times in grid order (``None`` for failed points)."""
        return [p["hex"] if p["status"] in ("ok", "cached") else None
                for p in self.doc["points"]]

    @property
    def completed(self) -> int:
        """Points that produced a result."""
        return sum(1 for h in self.hexes if h is not None)

    @property
    def raw_cpu_ms_per_point(self) -> float:
        """CPU of the tree after set-up, per completed point."""
        used = self.child.cpu_s - self.doc["setup_cpu_s"]
        return 1e3 * used / max(self.completed, 1)

    @property
    def cpu_ms_per_point(self) -> float:
        """The same at the reference core speed."""
        return self.raw_cpu_ms_per_point * self.factor

    @property
    def setup_s(self) -> float:
        """Set-up CPU seconds at the reference core speed."""
        return self.doc["setup_cpu_s"] * self.factor


def run_step(layout: procs.Layout, workload: str, seed: int, kind: str,
             traced: bool, index: int, cpus) -> Step:
    """Start one child of ``kind`` (step/setup/warmup) and collect it."""
    work = layout.run_dir / f"{kind}-{index}"
    out = work / "out.json"
    probe = work / "probe"
    child = procs.run_child(
        [sys.executable, str(HERE / "step_campaign.py"), workload,
         str(seed), str(work / "store"), kind, str(out)],
        env=procs.child_env(layout, probe, traced),
        probe_dir=probe, cwd=layout.root, cpus=cpus)
    doc = None
    if child.returncode == 0 and out.is_file():
        with open(out) as handle:
            doc = json.load(handle)
    elif child.stderr:
        sys.stderr.write(child.stderr[-2000:])
    shutil.rmtree(work, ignore_errors=True)
    return Step(kind, child, doc, traced)


def run(layout: procs.Layout, workload: str, seed: int, seconds: float,
        traced: bool) -> Outcome:
    """Run the workload for ``seconds`` and report it."""
    outcome = Outcome()
    cpus = procs.usable_cpus()[:CPU_COUNT[workload]]
    warm = run_step(layout, workload, seed, "warmup", False, 0, cpus)
    if not warm.ok:
        outcome.problems.append("warm-up step failed")
    cache_before = procs.cache_files(layout)
    steps: List[Step] = []
    probes: List[Step] = []
    with procs.Calibration(layout, cpus) as calibration:
        deadline = time.monotonic() + seconds
        index = 0
        while True:
            index += 1
            # Traced runs alternate: odd steps untraced, even traced.
            step_traced = traced and index % 2 == 0
            steps.append(run_step(layout, workload, seed, "step",
                                  step_traced, index, cpus))
            if not traced:
                for p in range(PROBES_PER_STEP):
                    probes.append(run_step(layout, workload, seed, "setup",
                                           False, index * 10 + p, cpus))
            if time.monotonic() >= deadline and (not traced or index >= 2):
                break
    for step in steps + probes:
        step.factor = calibration.factor(step.child.started,
                                         step.child.ended)
    outcome.meta["bytecode_compiled_while_timing"] = (
        procs.cache_files(layout) - cache_before)
    summarize(outcome, workload, seed, steps, probes, traced)
    return outcome


def summarize(outcome: Outcome, workload: str, seed: int, steps: List[Step],
              probes: List[Step], traced: bool) -> None:
    """Check the finished steps and compute the run's metrics."""
    check(outcome, workload, seed, steps, probes)
    good = [s for s in steps if s.ok]
    if good:
        outcome.meta.update(store_backend=good[0].doc["store_backend"],
                            numpy=good[0].doc["numpy"])
    for step in steps + probes:
        outcome.samples.append(sample(step))
    if not good:
        return
    if traced:
        layers(outcome, good)
    else:
        end_to_end(outcome, good, [p for p in probes if p.ok])


def check(outcome: Outcome, workload: str, seed: int, steps: List[Step],
          probes: List[Step]) -> None:
    """Count failed points: crashed steps, failed or skipped points,
    and simulated times that differ from the references (or, for a
    seed without references, from the other steps)."""
    reference = load_references(workload, seed)
    good = [s for s in steps if s.ok]
    truth = reference
    if truth is None and good:
        truth = list(majority([s.hexes for s in good]))
    # Both campaigns have 12 points; a run whose every step crashed
    # has no grid to count, so assume that one.
    grid = len(truth) if truth is not None else 12
    for step in steps:
        if step.ok:
            outcome.attempted += len(step.hexes)
            outcome.failed += mismatches(step.hexes, truth)
        else:
            outcome.attempted += grid
            outcome.failed += grid
    outcome.meta["references"] = "stored" if reference else "cross-step"
    bad_probes = sum(1 for p in probes if not p.ok)
    if bad_probes:
        outcome.problems.append(f"{bad_probes} set-up probe(s) failed")


def sample(step: Step) -> dict:
    """One sample line's payload."""
    out = {"kind": step.kind, "traced": step.traced,
           "ok": step.ok, "tree_cpu_s": step.child.cpu_s,
           "speed_factor": step.factor,
           "wall_s": step.child.wall_s,
           "tree_rss_mb": procs.tree_rss_mb(step.child.procs),
           "tracebacks": procs.count_tracebacks(step.child.stderr)}
    if step.ok:
        out.update(setup_s=step.setup_s, raw_setup_s=step.doc["setup_cpu_s"])
        if step.kind == "step":
            out.update(points=step.completed,
                       cpu_ms_per_op=step.cpu_ms_per_point,
                       raw_cpu_ms_per_op=step.raw_cpu_ms_per_point,
                       op_wall_s=step.doc["op_wall_s"])
    return out


def end_to_end(outcome: Outcome, steps: List[Step],
               probes: List[Step]) -> None:
    """The untraced metrics, medians over steps and set-up samples."""
    setups = [s.setup_s for s in steps + probes]
    outcome.e2e["setup_s"] = (median(setups), "s")
    outcome.e2e["cpu_ms_per_op"] = (
        median([s.cpu_ms_per_point for s in steps]), "ms")
    outcome.e2e["peak_rss_mb"] = (
        procs.self_rss_mb()
        + max(procs.tree_rss_mb(s.child.procs) for s in steps), "MB")
    outcome.lines.append(
        f"setup_s: median of {len(setups)} set-up samples "
        f"({len(steps)} steps + {len(probes)} probes); cpu_ms_per_op: "
        f"median of {len(steps)} steps of {steps[0].completed} points")
    rates = [s.completed / s.doc["op_wall_s"] for s in steps]
    done = [t for s in steps for t in s.doc["completion_s"]]
    outcome.lines.append(
        "wall.points_per_s "
        + json.dumps({"median": median(rates), "samples": len(rates)}))
    outcome.lines.append(
        "wall.point_completion_s "
        + json.dumps({"p50": percentile(done, 50), "p75": percentile(done, 75),
                      "samples": len(done)}))


def layers(outcome: Outcome, steps: List[Step]) -> None:
    """The per-layer metrics: medians over traced steps, per point.

    Steps without a completed point have no per-point figures; their
    points are already counted failed by :func:`check`.
    """
    traced = [s for s in steps if s.traced and s.completed]
    plain = [s for s in steps if not s.traced and s.completed]
    if not traced or not plain:
        outcome.problems.append("traced run needs traced and untraced steps "
                                "that completed points")
        return
    per_step = []
    for step in traced:
        trace = Trace.from_procs(step.child.procs)
        points = step.completed
        values = trace.per_op(points, step.factor)
        for metric, stage in CAMPAIGN_STAGES.items():
            values[metric] = step.doc["profile"].get(stage, 0.0) / points
        values["startup.import_s"] = step.factor * median(
            trace.import_cpu_s or [0.0])
        pools = trace.pools
        for metric, counter in (("pool.workers_joined", "workers_joined"),
                                ("pool.dispatched", "dispatched"),
                                ("pool.reassignments", "reassignments")):
            values[metric] = sum(p.get(counter, 0) for p in pools)
        ready = [p["ready"] - p["started"] for p in pools
                 if p.get("ready") is not None]
        values["pool.ready_s"] = median(ready) if ready else 0.0
        per_step.append(values)
        outcome.lines.append("layer-share " + json.dumps(
            share(trace, step), sort_keys=True))
    for metric in per_step[0]:
        outcome.layers[metric] = median([v[metric] for v in per_step])
    if traced[0].doc["pool"] is not None:
        outcome.layers["pool.worker_tracebacks"] = sum(
            procs.count_tracebacks(s.child.stderr) for s in steps) / len(steps)
    outcome.layers["trace.overhead_pct"] = 100.0 * (
        median([s.cpu_ms_per_point for s in traced])
        / median([s.cpu_ms_per_point for s in plain]) - 1.0)
    outcome.lines.append(
        f"per-layer: medians of {len(traced)} traced steps; overhead "
        f"against {len(plain)} untraced steps")


def share(trace: Trace, step: Step) -> dict:
    """Each layer's self CPU time in one traced step, with its base
    (both as measured, not scaled)."""
    base = step.child.cpu_s - step.doc["setup_cpu_s"]
    self_s = {name: round(seconds, 4)
              for name, seconds in sorted(trace.self_s.items())}
    sim_total = trace.total_s.get("sim.run_job", 0.0)
    return {
        "base_tree_cpu_after_setup_s": round(base, 4),
        "self_s": self_s,
        "matrix_self_share": round(
            (trace.self_s.get("matrix.compute", 0.0)
             + trace.self_s.get("matrix.precompute", 0.0)) / base, 4),
        "simulation_share": round(sim_total / base, 4),
    }
