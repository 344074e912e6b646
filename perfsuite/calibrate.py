"""Measure how fast one CPU currently runs Python, while a step runs.

Usage: ``calibrate.py CPU OUT``. Pinned to ``CPU``, the process runs a
fixed chunk of interpreter work (dict updates and int-to-str, about
5 ms on an unslowed core) about twenty times a second, recording when
each chunk ended and the CPU seconds it took. On SIGTERM (or when its
parent is gone) it writes the samples to ``OUT`` as JSON and exits.

Why: on a 2-core Xeon KVM guest, the CPU seconds a fixed
piece of work costs vary up to twofold within a second, independently
on each core (most likely a neighbour on the same physical core). A chunk cost
sampled on the same core during a step measures that slowdown, and the
benchmark divides it out (see ``procs.Calibration``).
"""

import json
import os
import signal
import sys
import time

CHUNK_ITERATIONS = 15_000
PAUSE_S = 0.04


def chunk() -> float:
    """One fixed piece of work; its CPU seconds."""
    started = time.thread_time()
    table = {}
    width = 0
    for i in range(CHUNK_ITERATIONS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        width += len(str(i))
    return time.thread_time() - started


def main(argv) -> int:
    """Sample until SIGTERM; see the module docstring."""
    cpu, out = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    samples = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    while not stop and os.getppid() == parent:
        cost = chunk()
        samples.append((time.monotonic(), cost))
        time.sleep(PAUSE_S)
    with open(out, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
