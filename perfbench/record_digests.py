"""Record the per-cell output digests the benchmark checks against.

Run from the repository root after a change that is meant to alter
simulated outputs, and commit ``perfbench/digests.json``::

    python3 perfbench/record_digests.py --seeds 0-9

Each seed runs one round of every workload.  Seed 0 is the default.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, prepare, run_round


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="first-last")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    if not prepare():
        return 2
    from cells import WORKLOADS

    recorded = {}
    for workload, cells in WORKLOADS.items():
        recorded[workload] = {}
        for seed in range(first, last + 1):
            rnd = run_round(cells, seed, {})
            if rnd.failures:
                print("\n".join(rnd.failures), file=sys.stderr)
                return 1
            recorded[workload][str(seed)] = rnd.seen
            print(f"{workload} seed={seed} recorded", flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
