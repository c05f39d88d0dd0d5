#!/usr/bin/env python3
"""Records reference outcome digests in perfbench/references.json.

A reference is the digest of every terminal event of one workload at one
--seconds and --seed. run.py fails a run whose digest differs from its
reference. Record references only from a build whose simulated outcomes
are known to be right; never re-record to make a failing run pass. A change
that alters simulated outcomes on purpose re-records them and says why.

    python3 perfbench/make_references.py --seconds 20 --seeds 0-99 --jobs 2

Each digest comes from one untraced process (the digest of every
repetition of a run is the same); the process must conserve queries and
settle, or nothing is written.
"""

import argparse
import concurrent.futures
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-99 or 1,2,5")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--references",
                        default=os.path.join(HERE, "references.json"))
    args = parser.parse_args()

    root = os.getcwd()
    binary = run.build(root, run.build_dir(root))
    jobs = [(w, seed) for w in args.workloads.split(",")
            for seed in parse_seeds(args.seeds)]

    def digest(job):
        workload, seed = job
        r = run.run_process(binary, workload, seed, args.seconds / run.REPS)
        if r["failed"] != 0 or not r["settled"]:
            raise SystemExit("%s seed %d: conservation failed (failed=%d "
                             "settled=%s); no reference recorded" %
                             (workload, seed, r["failed"], r["settled"]))
        return workload, seed, r["digest"]

    with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
        results = list(pool.map(digest, jobs))

    with open(args.references) as f:
        table = json.load(f)
    key = run.seconds_key(args.seconds)
    for workload, seed, value in results:
        table["digests"].setdefault(workload, {}).setdefault(key, {})[
            str(seed)] = value
    with open(args.references, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %d digests at --seconds %s" % (len(results), key))
    return 0


if __name__ == "__main__":
    sys.exit(main())
