"""Child processes of the benchmark: environment, bytecode, launch,
resource accounting and clean-up, plus the run's host metadata.

Every child interpreter starts from the same state: ``REPRO_*`` and
``PYTHON*`` cleared, ``PYTHONHASHSEED=0``, ``OPENBLAS_NUM_THREADS=1``,
the program's default ``REPRO_STORE_FSYNC=1``, the probe directory
first on ``PYTHONPATH`` and the bytecode cache the benchmark owns.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
HOOK_DIR = HERE / "hook"

#: Longest one child may run before it is killed and counted failed.
STEP_TIMEOUT = 60.0


class Layout:
    """Where a run reads the program and writes its temporary files.

    ``root`` is the checkout (the directory holding ``src/``); all
    writes go below ``perfsuite/.work`` inside it.
    """

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = HERE / ".work"
        self.pycache = self.work / "pycache"
        self.run_dir = self.work / f"run-{os.getpid()}"

    def check(self) -> None:
        """Refuse to run without the program's sources."""
        if not (self.src / "repro" / "__init__.py").is_file():
            raise SystemExit(
                f"error: no program sources at {self.src}/repro; run from "
                f"the root of a checkout")


def child_env(layout: Layout, probe_dir: Path, traced: bool) -> Dict[str, str]:
    """The environment of every child interpreter."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update({
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "REPRO_STORE_FSYNC": "1",
        "PYTHONPATH": os.pathsep.join([str(HOOK_DIR), str(layout.src)]),
        "PYTHONPYCACHEPREFIX": str(layout.pycache),
        "PERFSUITE_PROBE_DIR": str(probe_dir),
        "PERFSUITE_TRACE": "1" if traced else "0",
    })
    return env


def compile_bytecode(layout: Layout) -> None:
    """Compile the program and the probe into the benchmark's cache.

    Untimed: every timed interpreter then reads bytecode and never pays
    for compiling, whether or not the checkout is fresh.
    """
    env = child_env(layout, layout.work, traced=False)
    del env["PERFSUITE_PROBE_DIR"]
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(layout.src),
         str(HOOK_DIR)],
        env=env, check=True, stdout=subprocess.DEVNULL, cwd=layout.root)


def cache_files(layout: Layout) -> int:
    """Number of bytecode files in the cache (to show none appear while
    timing)."""
    return sum(len(files) for _d, _s, files in os.walk(layout.pycache))


@dataclass
class ChildResult:
    """What one finished child left behind."""

    returncode: int
    #: CPU seconds of the child and every descendant it waited for.
    cpu_s: float
    wall_s: float
    stderr: str
    #: The probe files of every process of its tree that exited cleanly.
    procs: List[dict]
    #: ``time.monotonic()`` at launch and at exit.
    started: float = 0.0
    ended: float = 0.0


def run_child(argv: Sequence[str], env: Dict[str, str], probe_dir: Path,
              cwd: Path, cpus: Optional[Sequence[int]] = None,
              timeout: float = STEP_TIMEOUT) -> ChildResult:
    """Run one child to completion in its own process group.

    Its CPU comes from ``wait4``, which includes the descendants it
    reaped (pool workers). ``cpus`` pins it (and what it starts) to
    those CPUs. Whatever of the group is left afterwards is killed and
    waited for.
    """
    probe_dir.mkdir(parents=True, exist_ok=True)
    err_path = probe_dir / "stderr.txt"
    with open(err_path, "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            list(argv), env=env, cwd=cwd, stdout=subprocess.DEVNULL,
            stderr=err, start_new_session=True)
        if cpus is not None:
            pin(proc.pid, cpus)
        watchdog = threading.Timer(
            timeout, _signal_group, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    reap_group(proc.pid)
    return ChildResult(
        returncode=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        wall_s=ended - started,
        stderr=err_path.read_text(errors="replace"),
        procs=read_probes(probe_dir),
        started=started,
        ended=ended,
    )


def pin(pid: int, cpus: Sequence[int]) -> None:
    """Restrict a process (and the children it starts later) to ``cpus``."""
    try:
        os.sched_setaffinity(pid, set(cpus))
    except ProcessLookupError:  # already gone; nothing left to pin
        pass


def usable_cpus() -> List[int]:
    """The CPUs this process may run on, at most two (the workloads'
    load is at most two threads or workers)."""
    return sorted(os.sched_getaffinity(0))[:2]


#: Chunk cost of ``calibrate.py`` on a core not slowed by a neighbour
#: (about 5.0 ms on a 2-core Xeon KVM guest). CPU figures are
#: reported at this speed.
REFERENCE_CHUNK_S = 0.005


class Calibration:
    """One ``calibrate.py`` per CPU for the life of a run.

    :meth:`factor` turns CPU seconds spent in an interval into CPU
    seconds at the reference speed: the reference chunk cost over the
    mean chunk cost measured on the same CPUs in that interval.
    """

    def __init__(self, layout: Layout, cpus: Sequence[int]):
        self.layout = layout
        self.cpus = list(cpus)
        #: CPU -> [(monotonic time, chunk CPU seconds)], time-sorted.
        self.samples: Dict[int, List[tuple]] = {}
        self._procs: List[tuple] = []

    def __enter__(self) -> "Calibration":
        env = child_env(self.layout, self.layout.work, traced=False)
        del env["PERFSUITE_PROBE_DIR"]
        for cpu in self.cpus:
            out = self.layout.run_dir / f"calibration-{cpu}.json"
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py"), str(cpu),
                 str(out)], env=env, stdout=subprocess.DEVNULL)
            self._procs.append((cpu, proc, out))
        return self

    def __exit__(self, *exc_info) -> None:
        for _cpu, proc, _out in self._procs:
            proc.terminate()
        for cpu, proc, out in self._procs:
            proc.wait(timeout=30)
            if out.is_file():
                with open(out) as handle:
                    self.samples[cpu] = sorted(
                        tuple(s) for s in json.load(handle))

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the speed measured in [start, end].

        Uses the samples inside the interval, or the nearest three per
        CPU when it is too short to hold that many. 1.0 without samples.
        """
        costs: List[float] = []
        for samples in self.samples.values():
            inside = [c for t, c in samples if start <= t <= end]
            if len(inside) < 3:
                middle = (start + end) / 2
                nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
                inside = [c for _t, c in nearest[:3]]
            costs.extend(inside)
        if not costs:
            return 1.0
        return REFERENCE_CHUNK_S / (sum(costs) / len(costs))


def _signal_group(pgid: int, signum: int) -> bool:
    """Send ``signum`` to a process group; False once it is gone."""
    try:
        os.killpg(pgid, signum)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - zombie-only group
        return True


def reap_group(pgid: int, grace: float = 5.0) -> None:
    """Wait until no process of group ``pgid`` is left, killing after
    ``grace`` seconds. Members are not our children (their parent
    reaped or abandoned them), so liveness is polled."""
    deadline = time.monotonic() + grace
    while _signal_group(pgid, 0):
        if time.monotonic() >= deadline:
            _signal_group(pgid, signal.SIGKILL)
            deadline = time.monotonic() + grace
        time.sleep(0.02)


def read_probes(probe_dir: Path) -> List[dict]:
    """Every per-process probe record in ``probe_dir``."""
    out = []
    for path in sorted(probe_dir.glob("proc-*.json")):
        with open(path) as handle:
            out.append(json.load(handle))
    return out


def tree_rss_mb(procs: Sequence[dict]) -> float:
    """Sum of the peak RSS of every process of one child tree, in MB."""
    return sum(p["maxrss_kb"] for p in procs) / 1024.0


def self_rss_mb() -> float:
    """Peak RSS of the benchmark process itself, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_tracebacks(stderr: str) -> int:
    """Tracebacks printed by a child tree (pool workers share its
    stderr)."""
    return stderr.count("Traceback (most recent call last)")


# -- host metadata ----------------------------------------------------------

def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return []
    return [int(x) for x in fields[1:]]


def steal_pct(before: List[int], after: List[int]) -> Optional[float]:
    """Share of all CPU time the hypervisor stole between two reads."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    if total <= 0:
        return None
    return 100.0 * (after[7] - before[7]) / total


def source_digest(layout: Layout) -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(layout.src.rglob("*.py")):
        digest.update(str(path.relative_to(layout.src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_meta(layout: Layout) -> Dict[str, object]:
    """The parts of the run metadata known before it starts."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "source_digest": source_digest(layout),
    }


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used so far (``/proc``, ticks)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
