"""Per-process probe: resource usage always, layer spans when traced.

At exit every process writes one JSON file into the probe directory:
its own peak RSS and CPU seconds and, in a traced run, the spans and
counters recorded at each layer's public entry points. Spans stay in
memory until then.

Tracing wraps functions as their modules finish executing (a
``sys.meta_path`` finder that decorates the loader), so names other
modules import with ``from ... import`` are the wrapped ones, and
nothing is imported early that the program would not import itself.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import resource
import signal
import sys
import threading
import time

_probe = None


class Probe:
    """What one process records; written once, at exit."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        #: (name, span id, parent id, wall start, wall end, thread CPU
        #: start, thread CPU end, extra) tuples; a span's parent is the
        #: innermost open span of the same thread.
        self.spans = []
        self.counters = {"kernel.events": 0}
        self.pools = []
        self.import_cpu_s = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, extra=None):
        """``fn`` recording one span per call; ``extra(args, result)``
        may attach one number to it."""
        spans = self.spans
        ids = self._ids
        local = self._local
        wall = time.perf_counter
        cpu = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start, cpu_start = wall(), cpu()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu_end, end = cpu(), wall()
                stack.pop()
                spans.append((name, sid, parent, start, end, cpu_start,
                              cpu_end, extra(args, result) if extra else 0))
        return wrapper

    # -- output --------------------------------------------------------------

    def write(self) -> None:
        """Write this process's record (runs from ``atexit``)."""
        # A SIGTERM landing while the file is written must not cut it
        # short; the process is exiting anyway.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, signal.SIG_IGN)
            except (ValueError, OSError):
                pass
        usage = resource.getrusage(resource.RUSAGE_SELF)
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "argv": sys.argv[:3],
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "import_cpu_s": self.import_cpu_s,
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
            "counters": self.counters,
            "pools": self.pools,
        }
        path = os.path.join(self.out_dir, f"proc-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(doc, handle)
        os.replace(tmp, path)


# -- instrumentation of each layer -------------------------------------------

def _patch_matrix(probe: Probe, module) -> None:
    cache = getattr(module, "_MATRIX_CACHE", None)

    def computed(fn):
        """Wrap so the span's extra is the number of matrices built."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = len(cache) if cache is not None else 0
            result = fn(*args, **kwargs)
            counted.last = (len(cache) if cache is not None else 0) - before
            return result
        counted.last = 0
        return counted

    inner = computed(module.compute_shuffle_matrix)
    module.compute_shuffle_matrix = probe.wrap(
        "matrix.compute", inner, extra=lambda a, r: inner.last)
    module.precompute_matrices = probe.wrap(
        "matrix.precompute", module.precompute_matrices)


def _patch_simulation(probe: Probe, module) -> None:
    module.run_simulated_job = probe.wrap(
        "sim.run_job", module.run_simulated_job)


def _patch_kernel(probe: Probe, module) -> None:
    cls = module.Simulator
    counters = probe.counters

    def counted(loop):
        @functools.wraps(loop)
        def counted_loop(self, *args, **kwargs):
            before = self.events_processed
            try:
                return loop(self, *args, **kwargs)
            finally:
                counters["kernel.events"] += self.events_processed - before
        return counted_loop

    # The two event loops; neither calls the other.
    cls.run = counted(cls.run)
    cls.run_until_event = counted(cls.run_until_event)


def _patch_solver(probe: Probe, module) -> None:
    module.solve_max_min_grouped = probe.wrap(
        "solver.solve", module.solve_max_min_grouped,
        extra=lambda a, r: len(a[0]))


def _patch_store(probe: Probe, module) -> None:
    cls = module.ResultStore
    for method in ("put", "put_many", "tag_many", "get_batch",
                   "fetch_record"):
        setattr(cls, method,
                probe.wrap(f"store.{method}", getattr(cls, method)))


def _patch_keys(probe: Probe, module) -> None:
    module.point_key = probe.wrap("keys.point_key", module.point_key)


def _patch_backend(probe: Probe, module) -> None:
    module.dump_record_text = probe.wrap(
        "records.dump", module.dump_record_text)


def _patch_query(probe: Probe, module) -> None:
    module.parse_point_query = probe.wrap(
        "query.parse", module.parse_point_query)


def _patch_service(probe: Probe, module) -> None:
    cls = module.BenchmarkService
    cls.query_point = probe.wrap("service.query_point", cls.query_point)


def _patch_pool(probe: Probe, module) -> None:
    cls = module.PoolBackend
    ensure_started = cls.ensure_started
    handle = cls._handle_message
    close = cls.close

    def record(backend) -> dict:
        entry = getattr(backend, "_perfsuite", None)
        if entry is None:
            entry = backend._perfsuite = {"started": None, "ready": None}
            probe.pools.append(entry)
        return entry

    @functools.wraps(ensure_started)
    def timed_start(self):
        entry = record(self)
        if entry["started"] is None:
            entry["started"] = time.perf_counter()
        return ensure_started(self)

    @functools.wraps(handle)
    def watched_handle(self, *args, **kwargs):
        try:
            return handle(self, *args, **kwargs)
        finally:
            entry = record(self)
            if (entry["ready"] is None and self.workers
                    and self.counters["workers_joined"] >= self.workers):
                entry["ready"] = time.perf_counter()

    @functools.wraps(close)
    def counted_close(self):
        try:
            return close(self)
        finally:
            record(self).update(self.counters)

    cls.ensure_started = timed_start
    cls._handle_message = watched_handle
    cls.close = counted_close


_PATCHES = {
    "repro.core.matrix": _patch_matrix,
    "repro.hadoop.simulation": _patch_simulation,
    "repro.sim.kernel": _patch_kernel,
    "repro.net.solver": _patch_solver,
    "repro.store.store": _patch_store,
    "repro.store.keys": _patch_keys,
    "repro.store.backend": _patch_backend,
    "repro.service.query": _patch_query,
    "repro.service.core": _patch_service,
    "repro.campaign.pool": _patch_pool,
}


class _Loader:
    """Delegates to the real loader, then runs ``after(module)``."""

    def __init__(self, loader, after):
        self._loader = loader
        self._after = after

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        self._after(module)


class _Finder:
    """Hands the first import of each instrumented module a
    :class:`_Loader` that patches it as soon as it has executed."""

    def __init__(self, probe: Probe):
        self.probe = probe

    def find_spec(self, name, path, target=None):
        if name != "repro" and name not in _PATCHES:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        probe = self.probe
        if name == "repro":
            # The package executes right after this returns; its
            # import CPU is everything until it has finished.
            started = time.process_time()

            def after(module):
                probe.import_cpu_s = time.process_time() - started
        else:
            def after(module):
                _PATCHES[name](probe, module)
        spec.loader = _Loader(spec.loader, after)
        return spec


def install(out_dir: str, traced: bool) -> Probe:
    """Start probing this process (idempotent)."""
    global _probe
    if _probe is None:
        _probe = Probe(out_dir)
        atexit.register(_probe.write)
        if traced:
            sys.meta_path.insert(0, _Finder(_probe))
    return _probe
