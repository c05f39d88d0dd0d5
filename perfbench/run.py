#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload, checks the
simulated outcomes and prints every metric.

Run from the repository root:

    python3 perfbench/run.py --workload oltp_point --seed 1 --seconds 5 --trace 0

The measured time is split into REPS repetitions, each a separate
single-threaded process that simulates --seconds/REPS worth of the
workload's simulated horizon; processes run one after another, never in
parallel. --trace 0 runs REPS untraced processes and reports the end-to-end
metrics as medians over them (step times pooled). The step-time tail
(step_ms.p99) and the last-fifth throughput (sim_qps_tail) swing too much
between runs on a shared host to carry a regression bound, so they are
per-layer metrics. --trace 1 runs
TRACE_ROUNDS rounds of three processes on the same inputs (untraced; traced
with telemetry on; traced with telemetry off), plus a closing untraced
process, and reports the per-layer metrics (see summarize.py).

Correctness: every process must conserve queries (failed == 0) and settle;
all processes of one run must produce the same outcome digest (tracing and
telemetry are passive); and the digest must equal the reference recorded
in references.json for this workload, --seconds and --seed when one is
recorded there. Any failure prints a named message, sets "correct" to
false and exits 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import summarize  # noqa: E402

WORKLOADS = ("oltp_point", "bi_mixed", "cluster4")
# Untraced processes per --trace 0 run; each sets up three times
# (kSetups in main.cc) and setup_s is the median over all of them.
REPS = 10
# (untraced, traced, traced with telemetry off) rounds per --trace 1 run.
TRACE_ROUNDS = 5
BINARY = "wlm_perfbench"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir(root):
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(root, path)


def build(root, out_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise SystemExit(
            "perfbench: library sources (src/CMakeLists.txt) not found; "
            "run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out_dir, BINARY)


def run_process(binary, workload, seed, seconds, traced=False,
                telemetry=True, spans=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds),
           "--telemetry", "1" if telemetry else "0"]
    if traced:
        cmd += ["--traced", "--spans", spans]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(done.stderr[-4000:])
        raise SystemExit("perfbench: %s exited with %d" %
                         (" ".join(cmd), done.returncode))
    return json.loads(lines[-1])


def seconds_key(seconds):
    return format(seconds, "g")


def load_reference(path, workload, seconds, seed):
    with open(path) as f:
        table = json.load(f)
    return (table.get("digests", {}).get(workload, {})
            .get(seconds_key(seconds), {}).get(str(seed)))


def check(results, reference):
    """Returns the list of named correctness failures."""
    errors = []
    for label, r in results.items():
        if r["failed"] != 0:
            errors.append(
                "conservation: %s run: %d of %d queries did not end in "
                "exactly one terminal outcome (unresolved=%d "
                "multi_terminal=%d multi_completed=%d unknown=%d lost=%d)" %
                (label, r["failed"], r["submitted"], r["unresolved"],
                 r["multi_terminal"], r["multi_completed"], r["unknown"],
                 r["lost"]))
        if not r["settled"]:
            errors.append("drain: %s run did not settle within %g simulated "
                          "seconds" % (label, r["drain_sim_s"]))
        if r["traced"] and not r["spans_written"]:
            errors.append("trace: %s run could not write its span file" %
                          label)
    digests = {label: r["digest"] for label, r in results.items()}
    if len(set(digests.values())) > 1:
        errors.append("passivity: outcome digests differ between the "
                      "processes of this run (repetition, tracing and "
                      "telemetry must not change outcomes) %s" %
                      json.dumps(digests, sort_keys=True))
    first = next(iter(results.values()))["digest"]
    if reference is not None and reference != first:
        errors.append("digest: %s does not match the reference %s" %
                      (first, reference))
    return errors


def end_to_end(reps):
    """The user-visible metrics over the untraced repetitions of one run."""
    qps, rss, setups, steps = [], [], [], []
    done = 0
    for r in reps:
        walls, resolved = r["fifth_wall_s"], r["fifth_resolved"]
        qps.append(resolved[4] / walls[4])
        done += resolved[4]
        rss.append(r["vmhwm_kb"] / 1024.0)
        setups += r["setup_s"]
        steps += r["step_ms"]
    n = len(reps)
    return [
        summarize.Metric("sim_qps", statistics.median(qps), "1/s", done,
                         "median of %d repetitions" % n),
        summarize.Metric("step_ms.p50", summarize.percentile(steps, 50), "ms",
                         len(steps), "steps pooled over %d repetitions" % n),
        summarize.Metric("peak_rss_mb", statistics.median(rss), "MB", n,
                         "median VmHWM of %d processes" % n),
        summarize.Metric("setup_s", statistics.median(setups), "s",
                         len(setups), "median of %d set-ups" % len(setups)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references",
                        default=os.path.join(HERE, "references.json"),
                        help="reference digest table (default: %(default)s)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    out_dir = build_dir(root)
    binary = build(root, out_dir)
    reference = load_reference(args.references, args.workload, args.seconds,
                               args.seed)

    rep_seconds = args.seconds / REPS
    results = {}
    if args.trace == 0:
        reps = [run_process(binary, args.workload, args.seed, rep_seconds)
                for _ in range(REPS)]
        for i, r in enumerate(reps):
            results["untraced#%d" % i] = r
        metrics = end_to_end(reps)
    else:
        trace_dir = os.path.join(out_dir, "trace", args.workload)
        os.makedirs(trace_dir, exist_ok=True)
        # Round i runs untraced, then the two traced arms (their order
        # alternating between rounds), and is bracketed by the next round's
        # untraced process, so linear drift in host speed cancels out of
        # the trace overhead and telemetry cost. Only the first round's
        # span file is summarized.
        def untraced():
            return run_process(binary, args.workload, args.seed, rep_seconds)

        def traced(telemetry, spans):
            return run_process(binary, args.workload, args.seed, rep_seconds,
                               traced=True, telemetry=telemetry,
                               spans=os.path.join(trace_dir, spans))

        rounds = [{"untraced": untraced()}]
        for i in range(TRACE_ROUNDS):
            arms = [("traced", True), ("traced_telemetry_off", False)]
            for label, telemetry in arms if i % 2 == 0 else arms[::-1]:
                rounds[i][label] = traced(telemetry, "spans.bin"
                                          if i == 0 and telemetry else
                                          "spans_unused.bin")
            rounds.append({"untraced": untraced()})
            rounds[i]["untraced_next"] = rounds[i + 1]["untraced"]
        closing = rounds.pop()
        results["untraced#%d" % TRACE_ROUNDS] = closing["untraced"]
        for i, r in enumerate(rounds):
            for label in ("untraced", "traced", "traced_telemetry_off"):
                results["%s#%d" % (label, i)] = r[label]
        with open(os.path.join(trace_dir, "rounds.json"), "w") as f:
            json.dump(rounds, f)
        metrics = summarize.per_layer(rounds, os.path.join(trace_dir,
                                                           "spans.bin"))
    errors = check(results, reference)
    submitted = sum(r["submitted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print("workload %s seed %d seconds %g trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for label, r in results.items():
        print("digest %-22s %s  (%d submitted, %d terminal events)" %
              (label, r["digest"], r["submitted"], r["terminal_events"]))
    print("reference %s" % (reference or
                            "none recorded for this seed and --seconds"))
    print("failed_share %.6g  (%d of %d submitted)" %
          (failed / submitted if submitted else 0.0, failed, submitted))
    summarize.print_metrics(metrics)
    for error in errors:
        print("FAIL " + error)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": submitted,
        "failed": failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit}
                    for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
