#!/usr/bin/env python3
"""Self-test of the benchmark harness on a short setting (--seconds 1).

Checks, for every workload, that run.py exits 0 with "correct": true, that
every end-to-end metric named in BENCHMARK.json is printed with its unit
(both as a line of text with a sample count and in the final JSON), and
that the outcome digest matched a recorded reference. Checks that a traced
run prints every per-layer metric. Then corrupts one reference digest and
checks that the run fails with a named digest message and a non-zero exit.

    python3 perfbench/selftest.py

Run from the repository root; exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SECONDS = 1.0
SEED = 1


def bench(workload, trace, references=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    if references:
        cmd += ["--references", references]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


def check_metrics(failures, label, lines, result, specs):
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            failures.append("%s: metric %s missing or unit is not %s" %
                            (label, name, unit))
        text = [l for l in lines if l.split()[:1] == [name]]
        if not text or text[0].split()[2] != unit or " n=" not in text[0]:
            failures.append("%s: no text line for %s with unit and sample "
                            "count" % (label, name))
    extra = set(result["metrics"]) - {spec["name"] for spec in specs}
    if extra:
        failures.append("%s: unexpected metrics %s" % (label, sorted(extra)))


def main():
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    failures = []
    for spec in benchmark["workloads"]:
        workload = spec["name"]
        code, lines, result = bench(workload, 0)
        label = "%s --trace 0" % workload
        if code != 0 or not result or not result["correct"]:
            failures.append("%s: exit %d, result %s" % (label, code, result))
            continue
        check_metrics(failures, label, lines, result, benchmark["end_to_end"])
        if not any(l.startswith("reference ") and "none" not in l
                   for l in lines):
            failures.append("%s: no reference digest recorded for --seconds "
                            "%g seed %d" % (label, SECONDS, SEED))

    workload = benchmark["workloads"][0]["name"]
    code, lines, result = bench(workload, 1)
    label = "%s --trace 1" % workload
    if code != 0 or not result or not result["correct"]:
        failures.append("%s: exit %d, result %s" % (label, code, result))
    else:
        check_metrics(failures, label, lines, result, benchmark["per_layer"])

    # A deliberately wrong reference must fail the run.
    with open(os.path.join(HERE, "references.json")) as f:
        table = json.load(f)
    by_seed = table["digests"][workload][run.seconds_key(SECONDS)]
    good = by_seed[str(SEED)]
    by_seed[str(SEED)] = "%016x" % (int(good, 16) ^ 1)
    out_dir = run.build_dir(os.getcwd())
    os.makedirs(out_dir, exist_ok=True)
    corrupted = os.path.join(out_dir, "references_corrupted.json")
    with open(corrupted, "w") as f:
        json.dump(table, f)
    code, lines, result = bench(workload, 0, references=corrupted)
    if code == 0 or not result or result["correct"] or \
            not any(l.startswith("FAIL digest:") for l in lines):
        failures.append("corrupted reference: run did not fail (exit %d, "
                        "correct %s)" % (code, result and result["correct"]))

    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("ok" if not failures else
                            "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
