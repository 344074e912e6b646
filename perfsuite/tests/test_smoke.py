"""Short end-to-end runs of every workload through ``run.py``.

Each runs the real program (a few seconds per workload), so the whole
file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from report import PER_LAYER

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
END_TO_END = {"setup_s": "s", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """``run.py`` of the benchmark copy in ``cwd``, from ``cwd``."""
    return subprocess.run(
        [sys.executable, str(cwd / BENCH.name / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         ["fig2c-cold", "fig3a-pool", "service-warm"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(run(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    out = result(run(ROOT, "--workload", "fig3a-pool", "--seed", "3",
                     "--seconds", "1", "--trace", "1"))
    assert out["correct"] is True
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == PER_LAYER
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["sim.jobs"] == 1.0
    assert metrics["pool.workers_joined"] == 2.0
    assert metrics["pool.dispatched"] == 12.0
    assert metrics["service.requests"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", "fig2c-cold", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
