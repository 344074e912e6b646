"""What a workload run produces, and the per-layer metrics computed
from the probe records of traced processes.

Every per-layer span time is a self time (span minus the part its
child spans cover) in thread CPU seconds per operation; an operation
is one campaign point or one answered service query. Counts are per operation too,
except the pool's, which are per pool (one per campaign step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from stats import durations, self_times

#: Every per-layer metric and its unit, in reporting order.
PER_LAYER = [
    ("startup.import_s", "s"),
    ("campaign.expand_s", "s/op"),
    ("campaign.store_lookup_s", "s/op"),
    ("campaign.shared_setup_s", "s/op"),
    ("campaign.simulate_s", "s/op"),
    ("campaign.record_s", "s/op"),
    ("matrix.compute_s", "s/op"),
    ("matrix.computed", "count/op"),
    ("sim.run_job_s", "s/op"),
    ("sim.jobs", "count/op"),
    ("kernel.events", "count/op"),
    ("kernel.host_us_per_event", "us"),
    ("solver.calls", "count/op"),
    ("solver.solve_s", "s/op"),
    ("solver.flows_mean", "count"),
    ("store.put_s", "s/op"),
    ("store.put_many_s", "s/op"),
    ("store.tag_many_s", "s/op"),
    ("store.get_batch_s", "s/op"),
    ("store.fetch_record_s", "s/op"),
    ("store.fetch_record_calls", "count/op"),
    ("query.parse_s", "s/op"),
    ("keys.point_key_s", "s/op"),
    ("keys.point_key_calls", "count/op"),
    ("service.query_point_s", "s/op"),
    ("records.dump_s", "s/op"),
    ("service.requests", "count/op"),
    ("service.warm_hits", "count/op"),
    ("http.overhead_ms", "ms"),
    ("pool.ready_s", "s"),
    ("pool.workers_joined", "count/pool"),
    ("pool.dispatched", "count/pool"),
    ("pool.reassignments", "count/pool"),
    ("pool.worker_tracebacks", "count/pool"),
    ("trace.overhead_pct", "%"),
]

#: Metric -> the spans whose self time it sums.
SELF_TIME = {
    "matrix.compute_s": ("matrix.compute", "matrix.precompute"),
    "sim.run_job_s": ("sim.run_job",),
    "solver.solve_s": ("solver.solve",),
    "store.put_s": ("store.put",),
    "store.put_many_s": ("store.put_many",),
    "store.tag_many_s": ("store.tag_many",),
    "store.get_batch_s": ("store.get_batch",),
    "store.fetch_record_s": ("store.fetch_record",),
    "query.parse_s": ("query.parse",),
    "keys.point_key_s": ("keys.point_key",),
    "service.query_point_s": ("service.query_point",),
    "records.dump_s": ("records.dump",),
}

#: Per-layer metrics that are CPU times, reported at the reference core
#: speed like the end-to-end CPU figures (``procs.Calibration``). The
#: others are counts or wall-clock times (``campaign.*`` come from
#: ``CampaignResult.profile``, which is wall-clock).
CPU_TIMES = frozenset(SELF_TIME) | {"kernel.host_us_per_event"}

#: Metric -> the span whose calls it counts.
CALLS = {
    "sim.jobs": "sim.run_job",
    "solver.calls": "solver.solve",
    "store.fetch_record_calls": "store.fetch_record",
    "keys.point_key_calls": "keys.point_key",
}


@dataclass
class Trace:
    """Span totals over the processes of one traced step or cycle.

    Self and total times are thread CPU seconds; ``wall_s`` holds the
    wall-clock totals.
    """

    self_s: Dict[str, float] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    wall_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    events: int = 0
    import_cpu_s: List[float] = field(default_factory=list)
    pools: List[dict] = field(default_factory=list)

    @classmethod
    def from_procs(cls, procs: Sequence[dict]) -> "Trace":
        """Add up the probe records of one process tree."""
        out = cls()
        for proc in procs:
            names = proc["names"]
            # [name, id, parent, wall start, wall end, cpu start, cpu end,
            #  extra]
            rows = [(names[s[0]], *s[1:]) for s in proc["spans"]]
            cpu = [(r[0], r[1], r[2], r[5], r[6]) for r in rows]
            wall = [(r[0], r[1], r[2], r[3], r[4]) for r in rows]
            for table, values in ((out.self_s, self_times(cpu)),
                                  (out.total_s, durations(cpu)),
                                  (out.wall_s, durations(wall))):
                for name, seconds in values.items():
                    table[name] = table.get(name, 0.0) + seconds
            for row in rows:
                out.calls[row[0]] = out.calls.get(row[0], 0) + 1
                out.extra[row[0]] = out.extra.get(row[0], 0.0) + row[7]
            out.events += proc["counters"].get("kernel.events", 0)
            if proc.get("import_cpu_s") is not None:
                out.import_cpu_s.append(proc["import_cpu_s"])
            out.pools.extend(proc.get("pools", ()))
        return out

    def per_op(self, ops: int, factor: float) -> Dict[str, float]:
        """The span-derived per-layer metrics for ``ops`` operations,
        CPU times scaled by the calibration ``factor``."""
        ops = max(ops, 1)
        out = {metric: sum(self.self_s.get(n, 0.0) for n in names) / ops
               for metric, names in SELF_TIME.items()}
        out.update({metric: self.calls.get(name, 0) / ops
                    for metric, name in CALLS.items()})
        out["matrix.computed"] = self.extra.get("matrix.compute", 0.0) / ops
        out["kernel.events"] = self.events / ops
        out["kernel.host_us_per_event"] = (
            1e6 * self.total_s.get("sim.run_job", 0.0) / self.events
            if self.events else 0.0)
        solves = self.calls.get("solver.solve", 0)
        out["solver.flows_mean"] = (
            self.extra.get("solver.solve", 0.0) / solves if solves else 0.0)
        for metric in CPU_TIMES:
            out[metric] *= factor
        return out


@dataclass
class Outcome:
    """Everything one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: Checks that are not per operation (e.g. store puts moved).
    problems: List[str] = field(default_factory=list)
    #: End-to-end metric -> (value, unit); filled with ``--trace 0``.
    e2e: Dict[str, tuple] = field(default_factory=dict)
    #: Per-layer metric -> value; filled with ``--trace 1``.
    layers: Dict[str, float] = field(default_factory=dict)
    #: One dict per sample (step, set-up probe or service cycle).
    samples: List[dict] = field(default_factory=list)
    #: Ungated lines printed before the result (``wall.*``, shares).
    lines: List[str] = field(default_factory=list)
    #: Run metadata learnt from the children.
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """Whether every check passed."""
        return self.failed == 0 and not self.problems

    def all_layers(self) -> Dict[str, tuple]:
        """Every per-layer metric, 0 where the workload has no such
        layer (e.g. the pool on the service)."""
        return {name: (self.layers.get(name, 0.0), unit)
                for name, unit in PER_LAYER}
