#!/usr/bin/env python3
"""Trace summarizer: turns the span file and raw counters of a traced run
into the per-layer metrics, each with its unit, sample count and, for a
ratio, its base (numerator and denominator).

run.py calls per_layer() directly. To summarize the last traced run of a
workload again from the files it left behind:

    python3 perfbench/summarize.py .bench_build/trace/oltp_point

Span file layout (written by wlm_perfbench --traced): one header line
"wlm-perfbench-spans 1 <count>", then five little-endian columns of
<count> entries each: name (u8), parent index (i32, -1 for none), query id
(u64), start ns (i64), end ns (i64). Span name codes are listed in
SPAN_NAMES and match perfbench/src/spans.h.
"""

import array
import collections
import json
import math
import os
import sys
from statistics import median

SPAN_NAMES = (
    "sim.step",
    "core.submit",
    "cluster.submit",
    "characterization.classify",
    "admission.on_arrival",
    "admission.allow_dispatch",
    "admission.on_sample",
    "scheduling.order",
    "scheduling.concurrency_limit",
    "scheduling.on_sample",
    "execution.on_sample",
)

Metric = collections.namedtuple("Metric", "name value unit samples base",
                                 defaults=("",))


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def base(numerator, denominator, what):
    return "%s: %s / %s" % (what, format(numerator, "g"),
                            format(denominator, "g"))


def read_spans(path):
    """Returns (name, parent, start, end) columns of a span file."""
    with open(path, "rb") as f:
        header = f.readline().split()
        if len(header) != 3 or header[0] != b"wlm-perfbench-spans" or \
                header[1] != b"1":
            raise ValueError("%s: not a version-1 span file" % path)
        count = int(header[2])
        columns = []
        for code in ("B", "i", "Q", "q", "q"):
            column = array.array(code)
            column.fromfile(f, count)
            if sys.byteorder != "little":
                column.byteswap()
            columns.append(column)
    names, parents, _queries, starts, ends = columns
    return names, parents, starts, ends


class SpanStats:
    """Per-name durations and self times (ns) of one span file."""

    def __init__(self, path):
        names, parents, starts, ends = read_spans(path)
        count = len(names)
        durations = [ends[i] - starts[i] for i in range(count)]
        children = [0] * count
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                children[parent] += durations[i]
        self.durations = collections.defaultdict(list)
        self.self_ns = collections.Counter()
        for i in range(count):
            name = SPAN_NAMES[names[i]]
            self.durations[name].append(durations[i])
            self.self_ns[name] += durations[i] - children[i]

    def calls(self, name):
        return len(self.durations[name])

    def total_ns(self, *names):
        return sum(sum(self.durations[n]) for n in names)

    def p(self, name, pct, scale):
        return percentile(self.durations[name], pct) / scale


def per_layer(rounds, spans_path):
    """Every per-layer metric of a --trace 1 run. Each round holds four
    processes that simulate the same inputs: "untraced", "traced" (telemetry
    on), "traced_telemetry_off" and "untraced_next" (the next round's
    untraced process, which brackets this round's traced ones). Span
    metrics and polled counts come from the first round's traced process,
    whose span file is `spans_path`; wall-time comparisons are medians over
    the rounds."""
    s = SpanStats(spans_path)
    plain = rounds[0]["untraced"]
    t = rounds[0]["traced"]
    steps = t["steps"]
    resolved = t["fifth_resolved"][4]
    step_ns = s.total_ns("sim.step")
    generated = plain["generated"]
    out = []

    def add(name, value, unit, samples, why=""):
        out.append(Metric(name, value, unit, int(samples), why))

    def share(names, label):
        total = s.total_ns(*names)
        return ratio(total, step_ns), base(total, step_ns,
                                           label + " ns / sim.step ns")

    # sim
    add("sim.events_per_query", ratio(t["events_timed"], resolved), "count",
        resolved, base(t["events_timed"], resolved,
                       "events / terminal queries"))
    add("sim.self_share", ratio(s.self_ns["sim.step"], step_ns), "ratio",
        s.calls("sim.step"),
        base(s.self_ns["sim.step"], step_ns, "step self ns / step ns"))
    tail = []
    for r in rounds:
        walls = r["untraced"]["fifth_wall_s"]
        done = r["untraced"]["fifth_resolved"]
        tail.append(ratio(done[4] - done[3], walls[4] - walls[3]))
    add("sim_qps_tail", median(tail), "1/s",
        plain["fifth_resolved"][4] - plain["fifth_resolved"][3],
        "terminal queries per wall s over the last fifth of the timed phase "
        "of the untraced processes, median of %d rounds" % len(rounds))
    steps_ms = [x for r in rounds for x in r["untraced"]["step_ms"]]
    add("step_ms.p99", percentile(steps_ms, 99), "ms", len(steps_ms),
        "steps of the untraced processes, pooled over %d rounds" %
        len(rounds))
    # engine
    add("engine.active_mean", ratio(t["active_sum"], steps), "count", steps,
        base(t["active_sum"], steps, "sum of running_count / steps"))
    add("engine.lock_waits_per_query", ratio(t["lock_waits"], resolved),
        "count", resolved,
        base(t["lock_waits"], resolved, "lock waits / terminal queries"))
    add("engine.deadlocks", t["deadlocks"], "count", 1)
    add("engine.completed_per_dispatch",
        ratio(t["engine_completed"], t["dispatched"]), "ratio",
        t["dispatched"],
        base(t["engine_completed"], t["dispatched"],
             "completed / dispatched"))
    # core
    add("core.submit_us.p50", s.p("core.submit", 50, 1e3), "us",
        s.calls("core.submit"))
    add("core.submit_us.p99", s.p("core.submit", 99, 1e3), "us",
        s.calls("core.submit"))
    value, why = share(["core.submit"], "core.submit")
    add("core.submit_share", value, "ratio", s.calls("core.submit"), why)
    add("core.queue_depth_mean", ratio(t["queue_sum"], steps), "count",
        steps, base(t["queue_sum"], steps, "sum of queue_depth / steps"))
    add("core.retained_requests", t["retained_requests"], "count", 1)
    # characterization
    add("characterization.classify_ns.p50",
        s.p("characterization.classify", 50, 1.0), "ns",
        s.calls("characterization.classify"))
    add("characterization.calls", s.calls("characterization.classify"),
        "count", s.calls("characterization.classify"))
    # admission
    arrivals = s.calls("admission.on_arrival")
    add("admission.on_arrival_ns.p50", s.p("admission.on_arrival", 50, 1.0),
        "ns", arrivals)
    allow = s.calls("admission.allow_dispatch")
    add("admission.allow_dispatch_calls_per_query", ratio(allow, resolved),
        "count", allow,
        base(allow, resolved, "AllowDispatch calls / terminal queries"))
    add("admission.accept_ratio", ratio(t["arrivals_accepted"], arrivals),
        "ratio", arrivals,
        base(t["arrivals_accepted"], arrivals, "accepted / OnArrival calls"))
    # scheduling
    orders = s.calls("scheduling.order")
    add("scheduling.order_us.p50", s.p("scheduling.order", 50, 1e3), "us",
        orders)
    add("scheduling.order_us.p99", s.p("scheduling.order", 99, 1e3), "us",
        orders)
    add("scheduling.order_calls_per_query", ratio(orders, resolved), "count",
        orders, base(orders, resolved, "Order calls / terminal queries"))
    add("scheduling.order_input_mean",
        ratio(t["order_input_total"], orders), "count", orders,
        base(t["order_input_total"], orders, "queued inputs / Order calls"))
    value, why = share(["scheduling.order", "scheduling.concurrency_limit",
                        "scheduling.on_sample"], "scheduling")
    add("scheduling.share", value, "ratio", orders, why)
    # execution
    samples = s.calls("execution.on_sample")
    add("execution.on_sample_us.p50", s.p("execution.on_sample", 50, 1e3),
        "us", samples)
    value, why = share(["execution.on_sample"], "execution.on_sample")
    add("execution.share", value, "ratio", samples, why)
    # telemetry
    def wall(r):
        return r["fifth_wall_s"][4]

    telemetry_us = [(wall(r["traced"]) - wall(r["traced_telemetry_off"])) *
                    1e6 for r in rounds]
    add("telemetry.us_per_query", ratio(median(telemetry_us), resolved), "us",
        resolved, base(median(telemetry_us), resolved,
                       "traced wall us telemetry on minus off (median of %d "
                       "rounds) / terminal queries" % len(rounds)))
    add("telemetry.retained_traces", t["retained_traces"], "count", 1)
    add("telemetry.retained_profiles", t["retained_profiles"], "count", 1)
    add("monitor.series_points", t["series_points"], "count", 1)
    # cluster
    submits = s.calls("cluster.submit")
    add("cluster.submit_us.p50", s.p("cluster.submit", 50, 1e3), "us",
        submits)
    add("cluster.submit_us.p99", s.p("cluster.submit", 99, 1e3), "us",
        submits)
    value, why = share(["cluster.submit"], "cluster.submit")
    add("cluster.submit_share", value, "ratio", submits, why)
    add("cluster.route_log_len", t["route_log_len"], "count", 1)
    add("cluster.journeys", t["journeys"], "count", 1,
        "%d arrivals not tracked (journey log full)" % t["journeys_dropped"])
    add("cluster.redispatch_ratio", ratio(t["redispatched"], generated),
        "ratio", generated,
        base(t["redispatched"], generated, "re-dispatches / arrivals"))
    add("cluster.hedges", t["hedges"], "count", 1)
    # workloads
    gen_s = median([x for r in rounds for x in r["untraced"]["gen_s"]])
    add("workloads.gen_us_per_query", ratio(gen_s * 1e6, generated), "us",
        generated, base(gen_s * 1e6, generated,
                        "generation us / generated queries"))
    # process
    growth = []
    for r in rounds:
        rss, done = r["untraced"]["fifth_rss_kb"], r["untraced"]["fifth_resolved"]
        growth.append(ratio(rss[4] - rss[0], done[4] - done[0]))
    rss, done = plain["fifth_rss_kb"], plain["fifth_resolved"]
    add("mem.rss_kb_per_query", median(growth), "kB", done[4] - done[0],
        base(rss[4] - rss[0], done[4] - done[0],
             "VmRSS kB growth / terminal queries, first fifth to end, first "
             "round; value is the median of %d rounds" % len(rounds)))
    # tracing
    def bracket(r):
        return (wall(r["untraced"]) + wall(r["untraced_next"])) / 2.0

    overheads = [ratio(wall(r["traced"]), bracket(r)) - 1.0 for r in rounds]
    add("trace.overhead", median(overheads), "ratio", len(rounds),
        base(wall(rounds[0]["traced"]), bracket(rounds[0]),
             "traced wall s / mean of the untraced wall s before and after, "
             "minus 1, first round; value is the median of %d rounds" %
             len(rounds)))
    return out


def print_metrics(metrics):
    for m in metrics:
        line = "%-42s %14.6g %-6s n=%d" % (m.name, m.value, m.unit, m.samples)
        if m.base:
            line += "  (%s)" % m.base
        print(line)


def main(argv):
    if len(argv) != 2:
        print("usage: summarize.py TRACE_DIR", file=sys.stderr)
        return 2
    with open(os.path.join(argv[1], "rounds.json")) as f:
        rounds = json.load(f)
    print_metrics(per_layer(rounds, os.path.join(argv[1], "spans.bin")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
