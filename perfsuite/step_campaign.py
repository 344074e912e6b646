"""One step of a campaign workload, run in a fresh interpreter.

Usage: ``step_campaign.py WORKLOAD SEED STORE MODE OUT`` from the root
of a checkout. ``MODE`` is ``step`` (set up, then run the campaign
once through :func:`repro.campaign.run_campaign`), ``setup`` (set up
and stop: one set-up sample) or ``warmup`` (a two-point campaign, so
the bytecode cache holds every module a step imports).

Set-up is everything before the first timed operation: importing the
program, loading the spec and opening the (empty) store. Its CPU
seconds since interpreter launch are written to ``OUT`` with the
campaign's outcome.
"""

import json
import resource
import sys
import time

#: workload -> (spec file, campaign name, pool workers or 0 for local).
WORKLOADS = {
    "fig2c-cold": ("benchmarks/campaigns/fig2.json", "fig2c", 0),
    "fig3a-pool": ("benchmarks/campaigns/fig3.json", "fig3a", 2),
}


def cpu_s() -> float:
    """CPU seconds this process has used since launch."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    """Run one step; see the module docstring for the arguments."""
    workload, seed, store_dir, mode, out = argv
    from dataclasses import replace

    from repro.campaign import PoolBackend, load_campaign, run_campaign
    from repro.store import ResultStore

    spec, name, workers = WORKLOADS[workload]
    campaign = load_campaign(spec, name)
    campaign = replace(campaign, params=dict(campaign.params, seed=int(seed)))
    if mode == "warmup":
        campaign = replace(campaign, shuffle_gbs=campaign.shuffle_gbs[:1],
                           networks=campaign.networks[:2])
    store = ResultStore(store_dir)
    backend = PoolBackend(workers=workers) if workers else None
    doc = {
        "setup_cpu_s": cpu_s(),
        "store_backend": store.backend.scheme,
        "numpy": sys.modules["numpy"].__version__,
    }
    if mode != "setup":
        done = []
        started = time.perf_counter()

        def progress(_event) -> None:
            done.append(time.perf_counter() - started)

        try:
            result = run_campaign(campaign, store, jobs=1, progress=progress,
                                  backend=backend)
        finally:
            if backend is not None:
                backend.close()
        doc.update({
            "op_wall_s": time.perf_counter() - started,
            "completion_s": done,
            "points": [
                {"label": o.label, "status": o.status,
                 "hex": (o.result.execution_time.hex()
                         if o.result is not None else None)}
                for o in result.outcomes
            ],
            "profile": result.profile,
            "pool": backend.describe() if backend is not None else None,
        })
    with open(out, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
