"""Seed a store for the service workload, in a fresh interpreter.

Usage: ``step_seed.py SEED STORE MANIFEST`` from the root of a checkout.

Runs 48 small points (3 patterns x 4 sizes x 4 networks, 2 slaves)
through :func:`repro.campaign.run_campaign` with ``params.seed=SEED``,
then writes ``MANIFEST``: for every point, the query body a client
posts for it, its store key and the record's canonical text, which
every ``200`` answer must equal byte for byte.

The sizes keep every map above the exact-count limit, so MR-SKEW takes
the sampled matrix path and seeding stays short.
"""

import json
import sys

PATTERNS = ("MR-AVG", "MR-RAND", "MR-SKEW")
SIZES_GB = (2.0, 4.0, 8.0, 16.0)
NETWORKS = ("1GigE", "10GigE", "ipoib-qdr", "ipoib-fdr")
SLAVES = 2
PARAMS = {"num_maps": 4, "num_reduces": 2}


def main(argv) -> int:
    """Seed the store; see the module docstring for the arguments."""
    seed, store_dir, manifest = argv
    from repro.campaign import Campaign, run_campaign
    from repro.store import ResultStore, dump_record_text

    store = ResultStore(store_dir)
    params = dict(PARAMS, seed=int(seed))
    entries = []
    for benchmark in PATTERNS:
        campaign = Campaign(
            name=f"service-{benchmark.lower()}", benchmark=benchmark,
            shuffle_gbs=SIZES_GB, networks=NETWORKS, cluster="a",
            slaves=SLAVES, runtime="mrv1", params=params)
        result = run_campaign(campaign, store, jobs=1)
        if not result.completed:
            print(f"seeding {campaign.name}: {result.failed} failed, "
                  f"{result.skipped} skipped", file=sys.stderr)
            return 1
        for point in result.points:
            entries.append({
                "query": {
                    "benchmark": benchmark, "shuffle_gb": point.point.shuffle_gb,
                    "network": point.point.network, "cluster": "a",
                    "slaves": SLAVES, "runtime": "mrv1", "params": params,
                },
                "key": point.key,
                "text": dump_record_text(store.fetch_record(point.key)),
            })
    store.close()
    with open(manifest, "w") as handle:
        json.dump(entries, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
