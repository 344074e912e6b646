"""The ``service-warm`` workload: point queries against ``repro serve``.

A run is a few cycles. Each cycle seeds a fresh store with 48 small
points (``step_seed.py``, a fresh interpreter), starts ``repro serve
--port 0`` over it, waits for ``/healthz``, then drives a closed loop:
two client threads of this process, each with one keep-alive
connection, post the next point query as soon as the previous answer
arrived. Queries are drawn with a Zipf skew from streams seeded by
``--seed``, which also seeds the stored points. Every query is warm:
no answer reaches the simulation or the shuffle matrix.

Set-up (CPU seconds) is the seeding interpreter plus the server from
launch until ``/healthz`` answers; each cycle is followed by one
set-up-only probe so the median has more samples. CPU per query is
the server's CPU during the loop plus the client threads' own, over
the queries answered. Both are scaled to a reference core speed by the
calibration running on both CPUs (``procs.Calibration``); the raw
figures are in the sample lines. (Pinning the server to one CPU and the
clients to the other, each scaled by its own CPU's calibration, spread
more from run to run on a 2-core Xeon KVM guest: 5.2%
against 3.7% between the quartiles of the run medians.)
"""

from __future__ import annotations

import http.client
import json
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import procs
from report import Outcome, Trace
from stats import median, percentile

HERE = Path(__file__).resolve().parent

#: ``repro serve`` through the program's ``repro`` entry point.
SERVE = ("import sys; from repro.core.cli import repro_main; "
         "sys.exit(repro_main(sys.argv[1:]))")

CLIENTS = 2
ZIPF_S = 1.1
#: Load cycles per run (untraced); traced runs alternate twice as many.
#: (Five shorter cycles without probes spread no less between runs.)
CYCLES = 3
READY_TIMEOUT = 30.0


class Server:
    """One ``repro serve`` child over one seeded store."""

    def __init__(self, layout: procs.Layout, store: Path, probe: Path,
                 traced: bool):
        probe.mkdir(parents=True, exist_ok=True)
        self.probe = probe
        self.err = open(probe / "stderr.txt", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SERVE, "serve", "--port", "0",
             "--store", str(store)],
            env=procs.child_env(layout, probe, traced), cwd=layout.root,
            stdout=subprocess.PIPE, stderr=self.err, text=True,
            start_new_session=True)
        self.port: Optional[int] = None

    def wait_ready(self) -> float:
        """Wait for the ready line and ``/healthz``; the server's CPU
        seconds at that moment."""
        deadline = time.monotonic() + READY_TIMEOUT
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    READY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return procs.process_cpu_s(self.proc.pid)
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def get(self, path: str):
        """One GET on a fresh connection: (status, parsed JSON)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """The server's CPU seconds so far."""
        return procs.process_cpu_s(self.proc.pid)

    def stop(self) -> List[dict]:
        """SIGINT (the graceful path), wait, reap; the probe records."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        procs.reap_group(self.proc.pid)
        return procs.read_probes(self.probe)


class Client(threading.Thread):
    """One closed-loop client with one keep-alive connection."""

    def __init__(self, port: int, bodies, texts, cum_weights, rng,
                 stop_at: float):
        super().__init__(daemon=True)
        self.port = port
        self.bodies = bodies
        self.texts = texts
        self.cum_weights = cum_weights
        self.rng = rng
        self.stop_at = stop_at
        self.latencies: List[float] = []
        self.sent = 0
        self.failed = 0
        self.cpu_s = 0.0

    def run(self) -> None:
        started_cpu = time.thread_time()
        clock = time.perf_counter
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        headers = {"Content-Type": "application/json"}
        indices = range(len(self.bodies))
        while clock() < self.stop_at:
            k = self.rng.choices(indices, cum_weights=self.cum_weights)[0]
            self.sent += 1
            sent_at = clock()
            try:
                conn.request("POST", "/v1/points", body=self.bodies[k],
                             headers=headers)
                response = conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException):
                self.failed += 1
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=30)
                continue
            self.latencies.append(clock() - sent_at)
            if response.status != 200 or body != self.texts[k]:
                self.failed += 1
        conn.close()
        self.cpu_s = time.thread_time() - started_cpu


def zipf_weights(n: int, rng: random.Random) -> List[float]:
    """Cumulative Zipf weights over ``n`` points in a seeded rank order."""
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    out, total = [], 0.0
    for rank in ranks:
        total += 1.0 / rank ** ZIPF_S
        out.append(total)
    return out


class Cycle:
    """One set-up (seed + serve), optionally followed by a load phase."""

    def __init__(self, layout: procs.Layout, seed: int, index: int,
                 traced: bool):
        self.layout = layout
        self.seed = seed
        self.index = index
        self.traced = traced
        self.work = layout.run_dir / f"cycle-{index}"
        self.raw_setup_s: Optional[float] = None
        self.setup_span = (0.0, 0.0)
        self.load_span = (0.0, 0.0)
        #: Reference-speed CPU over measured CPU (set after the run).
        self.setup_factor = 1.0
        self.load_factor = 1.0
        self.server_cpu_s = 0.0
        self.client_cpu_s = 0.0
        self.seed_rss_mb = 0.0
        self.server_procs: List[dict] = []
        self.answered = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.latencies: List[float] = []
        self.wall_s = 0.0
        self.service_delta: dict = {}

    def run(self, load_seconds: float) -> None:
        """Set up, load for ``load_seconds`` (0: set-up only), stop."""
        store = self.work / "store"
        manifest = self.work / "manifest.json"
        started = time.monotonic()
        seeding = procs.run_child(
            [sys.executable, str(HERE / "step_seed.py"), str(self.seed),
             str(store), str(manifest)],
            env=procs.child_env(self.layout, self.work / "probe-seed", False),
            probe_dir=self.work / "probe-seed", cwd=self.layout.root)
        self.seed_rss_mb = procs.tree_rss_mb(seeding.procs)
        if seeding.returncode != 0 or not manifest.is_file():
            sys.stderr.write(seeding.stderr[-2000:])
            self.problems.append("seeding the store failed")
            return
        with open(manifest) as handle:
            points = json.load(handle)
        server = Server(self.layout, store, self.work / "probe-serve",
                        self.traced)
        try:
            self.raw_setup_s = seeding.cpu_s + server.wait_ready()
            self.setup_span = (started, time.monotonic())
            if load_seconds > 0:
                self.load(server, points, load_seconds)
        except (RuntimeError, OSError, ValueError) as exc:
            self.problems.append(f"cycle {self.index}: {exc}")
        finally:
            self.server_procs = server.stop()
            shutil.rmtree(self.work, ignore_errors=True)

    def load(self, server: Server, points: List[dict],
             seconds: float) -> None:
        """The closed loop, with its correctness checks."""
        bodies = [json.dumps(p["query"]).encode() for p in points]
        texts = [p["text"].encode() for p in points]
        rng = random.Random(self.seed)
        cum_weights = zipf_weights(len(points), rng)
        _, before = server.get("/v1/stats?refresh=1")
        started = time.perf_counter()
        load_started = time.monotonic()
        cpu_before = server.cpu_s()
        clients = [
            Client(server.port, bodies, texts, cum_weights,
                   random.Random(f"{self.seed}/{self.index}/{c}"),
                   started + seconds)
            for c in range(CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(seconds + 60)
        self.server_cpu_s = server.cpu_s() - cpu_before
        self.wall_s = time.perf_counter() - started
        self.load_span = (load_started, time.monotonic())
        _, after = server.get("/v1/stats?refresh=1")
        self.attempted = sum(c.sent for c in clients)
        self.failed = sum(c.failed for c in clients)
        self.answered = self.attempted - self.failed
        self.latencies = [x for c in clients for x in c.latencies]
        self.client_cpu_s = sum(c.cpu_s for c in clients)
        cold = after["service"]["cold_misses"]
        moved = after["puts"] - before["puts"]
        if cold or moved:
            self.problems.append(
                f"cycle {self.index}: {cold} cold misses, puts moved by "
                f"{moved}")
            self.failed += cold + abs(moved)
        self.service_delta = {
            name: after["service"][name] - before["service"][name]
            for name in ("requests", "warm_hits")}

    @property
    def setup_s(self) -> Optional[float]:
        """Set-up CPU seconds at the reference core speed."""
        if self.raw_setup_s is None:
            return None
        return self.raw_setup_s * self.setup_factor

    @property
    def raw_cpu_ms_per_op(self) -> float:
        """Server plus client CPU per answered query."""
        return (1e3 * (self.server_cpu_s + self.client_cpu_s)
                / max(self.answered, 1))

    @property
    def cpu_ms_per_op(self) -> float:
        """The same at the reference core speed."""
        return self.raw_cpu_ms_per_op * self.load_factor

    def calibrate(self, calibration: procs.Calibration) -> None:
        """Set the speed factors from the run's calibration."""
        self.setup_factor = calibration.factor(*self.setup_span)
        self.load_factor = calibration.factor(*self.load_span)

    def sample(self) -> dict:
        """One sample line's payload."""
        out = {"kind": "cycle" if self.attempted else "setup",
               "traced": self.traced, "setup_s": self.setup_s,
               "raw_setup_s": self.raw_setup_s,
               "speed_factors": [self.setup_factor, self.load_factor],
               "seed_rss_mb": self.seed_rss_mb,
               "server_rss_mb": procs.tree_rss_mb(self.server_procs)}
        if self.attempted:
            out.update(attempted=self.attempted, failed=self.failed,
                       cpu_ms_per_op=self.cpu_ms_per_op,
                       raw_cpu_ms_per_op=self.raw_cpu_ms_per_op,
                       queries_per_s=self.answered / self.wall_s)
        return out


def run(layout: procs.Layout, workload: str, seed: int, seconds: float,
        traced: bool) -> Outcome:
    """Run the workload for ``seconds`` of load and report it."""
    outcome = Outcome()
    Cycle(layout, seed, 0, False).run(load_seconds=0.2)  # warm-up, untimed
    cache_before = procs.cache_files(layout)
    count = 2 * CYCLES if traced else CYCLES
    cycles: List[Cycle] = []
    probes: List[Cycle] = []
    with procs.Calibration(layout, procs.usable_cpus()) as calibration:
        for i in range(1, count + 1):
            cycle = Cycle(layout, seed, i, traced and i % 2 == 0)
            cycle.run(seconds / count)
            cycles.append(cycle)
            if not traced:
                probe = Cycle(layout, seed, 100 + i, False)
                probe.run(0)
                probes.append(probe)
    for cycle in cycles + probes:
        cycle.calibrate(calibration)
    outcome.meta["bytecode_compiled_while_timing"] = (
        procs.cache_files(layout) - cache_before)
    for cycle in cycles + probes:
        outcome.attempted += cycle.attempted
        outcome.failed += cycle.failed
        outcome.problems.extend(cycle.problems)
        outcome.samples.append(cycle.sample())
    good = [c for c in cycles if c.answered]
    if len(good) < len(cycles) or not outcome.attempted:
        outcome.problems.append("a load cycle did not complete")
        return outcome
    if traced:
        layers(outcome, good)
    else:
        end_to_end(outcome, good, [p for p in probes if p.raw_setup_s])
    return outcome


def end_to_end(outcome: Outcome, cycles: List[Cycle],
               probes: List[Cycle]) -> None:
    """The untraced metrics: medians over cycles and set-up samples."""
    setups = [c.setup_s for c in cycles + probes]
    outcome.e2e["setup_s"] = (median(setups), "s")
    outcome.e2e["cpu_ms_per_op"] = (
        median([c.cpu_ms_per_op for c in cycles]), "ms")
    outcome.e2e["peak_rss_mb"] = (
        procs.self_rss_mb()
        + max(max(c.seed_rss_mb, procs.tree_rss_mb(c.server_procs))
              for c in cycles + probes), "MB")
    outcome.lines.append(
        f"setup_s: median of {len(setups)} set-up samples; cpu_ms_per_op: "
        f"median of {len(cycles)} load cycles, "
        f"{sum(c.answered for c in cycles)} queries answered")
    latencies = [x for c in cycles for x in c.latencies]
    latency = {f"p{q:g}": 1e3 * percentile(latencies, q)
               for q in (50, 99)}
    outcome.lines.append("wall.queries_per_s " + json.dumps({
        "median": median([c.answered / c.wall_s for c in cycles]),
        "samples": len(cycles)}))
    outcome.lines.append("wall.latency_ms " + json.dumps(
        dict(latency, samples=len(latencies))))


def layers(outcome: Outcome, cycles: List[Cycle]) -> None:
    """The per-layer metrics from the traced cycles' server spans."""
    traced = [c for c in cycles if c.traced]
    plain = [c for c in cycles if not c.traced]
    per_cycle = []
    for cycle in traced:
        trace = Trace.from_procs(cycle.server_procs)
        values = trace.per_op(cycle.answered, cycle.load_factor)
        values["startup.import_s"] = cycle.setup_factor * median(
            trace.import_cpu_s or [0.0])
        for name in ("requests", "warm_hits"):
            values[f"service.{name}"] = (cycle.service_delta[name]
                                         / cycle.answered)
        queries = trace.calls.get("service.query_point", 0)
        in_service_ms = (1e3 * trace.wall_s.get("service.query_point", 0.0)
                         / queries if queries else 0.0)
        values["http.overhead_ms"] = (
            1e3 * sum(cycle.latencies) / len(cycle.latencies) - in_service_ms)
        per_cycle.append(values)
        outcome.lines.append("layer-share " + json.dumps({
            "base_queries": cycle.answered,
            "self_s_per_query": {name: round(s / cycle.answered, 7)
                                 for name, s in sorted(trace.self_s.items())},
        }, sort_keys=True))
    for metric in per_cycle[0]:
        outcome.layers[metric] = median([v[metric] for v in per_cycle])
    outcome.layers["trace.overhead_pct"] = 100.0 * (
        median([c.cpu_ms_per_op for c in traced])
        / median([c.cpu_ms_per_op for c in plain]) - 1.0)
    outcome.lines.append(
        f"per-layer: medians of {len(traced)} traced cycles; overhead "
        f"against {len(plain)} untraced cycles")
