#!/usr/bin/env python3
"""Benchmark of the gputn simulator.

Builds perfbench_driver (the simulator library from src/ plus driver.cpp)
in .bench_build/, measures one workload and prints a report followed, on
the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, taken from a separate
observed pass (end-to-end numbers always come from untraced calls).

    python3 perfbench/run.py --workload serve-ladder --seed 1 --seconds 20 --trace 0

Workloads: fabric-allreduce, serve-ladder, sweep-mini, allreduce-lossy, or
"all" to measure each in turn (each prints its own report and result line).
See perfbench/README.md for what each metric means.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = ("fabric-allreduce", "serve-ladder", "sweep-mini", "allreduce-lossy")
SETUP_REPEATS = 11    # fresh processes per run; setup_s is their median
RUN_DEADLINE_S = 170  # the whole run, build excluded
BUILD_TIMEOUT_S = 850
SERVE_REFERENCE_RUNG = 1.5e6  # per-tenant req/s for sim_p99_us
BACKLOG_SHARE = 0.95  # achieved below this share of offered = backlog

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_ms_p50", "ms", "lower"),
    ("run_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_gputn_us", "sim_us", "lower"),
    ("sim_speedup", "x", "higher"),
    ("sim_p99_us", "sim_us", "lower"),
]

# layer, [(name, unit, better)]
PER_LAYER = [
    ("cluster", [("cluster.build_ms", "ms", "lower"),
                 ("cluster.teardown_ms", "ms", "lower")]),
    ("net", [("net.build_ms", "ms", "lower"),
             ("net.link.packets", "count", "lower"),
             ("net.switch.packets", "count", "lower"),
             ("net.credit_stalls", "count", "lower"),
             ("net.link.busy_max", "share", "lower"),
             ("lat.wire.p99_us", "sim_us", "lower")]),
    ("sim", [("sim.host_ns_per_pkt", "ns", "lower"),
             ("sim.shard_speedup", "x", "higher")]),
    ("nic", [("nic.cmd.ops", "count", "lower"),
             ("nic.cmd.busy_max", "share", "lower"),
             ("nic.cmd.q_wait_us", "sim_us", "lower"),
             ("lat.tx_queue.p99_us", "sim_us", "lower"),
             ("nic.qp.batch_fill", "ops/doorbell", "higher")]),
    ("mem", [("dma.tx.bytes", "bytes", "lower"),
             ("dma.busy_max", "share", "lower"),
             ("dma.q_wait_us", "sim_us", "lower")]),
    ("core", [("trig.fired_msgs", "count", "higher"),
              ("lat.trigger_to_fire.p99_us", "sim_us", "lower")]),
    ("gpu", [("gpu.cu.busy_max", "share", "lower"),
             ("gpu.cu.q_wait_us", "sim_us", "lower")]),
    ("cpu", [("cpu.busy_max", "share", "lower"),
             ("cpu.ops", "count", "lower")]),
    ("fault", [("fault.drops", "count", "lower"),
               ("rel.retransmits", "count", "lower"),
               ("rel.dup_dropped", "count", "lower"),
               ("rel.acks_tx", "count", "lower"),
               ("rel.retx_per_drop", "ratio", "lower")]),
    ("rt", [("net.messages", "count", "lower")]),
    ("serve", [("blame.put.server_proc", "%", "lower"),
               ("blame.put.qp_batch", "%", "lower"),
               ("blame.put.doorbell", "%", "lower"),
               ("blame.put.trigger_wait", "%", "lower"),
               ("blame.get.wire", "%", "lower"),
               ("blame.get.switch_queue", "%", "lower"),
               ("serve.slo_ok_frac", "share", "higher"),
               ("sim_capacity_rps.gputn", "req/s", "higher"),
               ("sim_capacity_rps.cpu", "req/s", "higher")]),
    ("exp", [("exp.point_ms", "ms", "lower"),
             ("exp.pool_efficiency", "share", "higher"),
             ("fail_ratio", "share", "lower")]),
    ("obs", [("obs.trace_overhead", "share", "lower"),
             ("obs.flight_overhead", "share", "lower")]),
    ("spans", [("self.observed_pass_ms", "ms", "lower"),
               ("self.cluster_build_ms", "ms", "lower"),
               ("self.cluster_teardown_ms", "ms", "lower"),
               ("self.net_build_ms", "ms", "lower"),
               ("self.config_ms", "ms", "lower"),
               ("self.run_side_ms", "ms", "lower"),
               ("self.run_traced_ms", "ms", "lower"),
               ("self.run_flight_ms", "ms", "lower"),
               ("self.stats_ms", "ms", "lower")]),
]

STRATEGIES = ("CPU", "HDN", "GDS", "GPU-TN", "GHN", "GNN")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; both are quick when up to date."""
    gen = []
    if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
        gen = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release", *gen],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def driver(args, deadline):
    """Run the driver to completion and parse its JSON output."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("out of time before " + " ".join(args))
    out = subprocess.run([str(DRIVER), *args], check=True, text=True,
                         stdout=subprocess.PIPE, timeout=left).stdout
    return json.loads(out.strip().splitlines()[-1])


def tail(samples):
    """Highest percentile with at least ten samples beyond it, with its
    label. The driver measures at least 21 calls, so it is above the
    median."""
    s = sorted(samples)
    n = len(s)
    return s[n - 11], "p%.1f" % (100.0 * (n - 10) / n)


def pair_key(name):
    """Configuration name with its strategy token masked, so CPU and GPU-TN
    runs of the same point share a key."""
    for token in name.replace("@", "/").split("/"):
        if token in STRATEGIES:
            return name.replace(token, "*", 1), token
    return name, None


def sim_items(workload, ref):
    """(name, total_us, e2e_p99_us) per simulated run of the reference
    repetition: sweep points for sweep-mini, runner calls otherwise."""
    if workload == "sweep-mini":
        return [(p["id"], p.get("total_us", 0.0), p.get("e2e_p99_us", 0.0))
                for p in ref[0]["extra"]["points"]]
    return [(r["config"], r["total_us"], r["e2e_p99_us"]) for r in ref]


def sim_metrics(workload, ref):
    """sim_gputn_us, sim_speedup, sim_p99_us over CPU/GPU-TN pairs."""
    by_key = {}
    for name, total, p99 in sim_items(workload, ref):
        key, strategy = pair_key(name)
        if strategy in ("CPU", "GPU-TN"):
            by_key.setdefault(key, {})[strategy] = (total, p99)
    pairs = [v for v in by_key.values() if len(v) == 2]
    gputn = sum(v["GPU-TN"][0] for v in pairs)
    cpu = sum(v["CPU"][0] for v in pairs)
    p99 = max(v["GPU-TN"][1] for v in pairs)
    if workload == "serve-ladder":
        p99 = next(r["extra"]["worst_p99_us"] for r in ref
                   if r["config"] == "GPU-TN@%g" % SERVE_REFERENCE_RUNG)
    return {"sim_gputn_us": gputn, "sim_speedup": cpu / gputn,
            "sim_p99_us": p99}


def serve_ladder(ref):
    """Per-rung rows and the highest rung meeting the SLO without backlog."""
    rows, capacity = [], {"CPU": 0.0, "GPU-TN": 0.0}
    for r in ref:
        e = r["extra"]
        strategy, rate = r["config"].split("@")
        rate = float(rate)
        backlog = e["achieved_rps"] < BACKLOG_SHARE * e["offered_rps"]
        if e["worst_p99_us"] <= e["slo_us"] and not backlog:
            capacity[strategy] = max(capacity[strategy], rate)
        rows.append((strategy, rate, e, backlog))
    return rows, capacity


def fold_layers(ref):
    """Sum counters and take maxima of busy shares / p99s over every call."""
    total = {}
    for r in ref:
        for k, v in r["layer"].items():
            if k.endswith(".busy_max") or k.endswith(".p99_us"):
                total[k] = max(total.get(k, 0.0), v)
            else:
                total[k] = total.get(k, 0.0) + v
    return total


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Per span name: duration minus the part its children cover."""
    out = {}
    for i, s in enumerate(spans):
        kids = sorted((c["start_ms"], c["end_ms"]) for c in spans
                      if c["parent"] == i)
        covered, cursor = 0.0, s["start_ms"]
        for a, b in kids:
            a, b = max(a, cursor), min(b, s["end_ms"])
            if b > a:
                covered += b - a
                cursor = b
        name = "self." + s["name"].replace(".", "_") + "_ms"
        out[name] = out.get(name, 0.0) + (s["end_ms"] - s["start_ms"]) - covered
    return out


def per_layer(run, setups, medians, capacity, fail_ratio):
    ref, observed = run["reference"], run["observed"]
    L = fold_layers(ref)
    m = {
        "cluster.build_ms": statistics.median(s["cluster_build_ms"] for s in setups),
        "cluster.teardown_ms": statistics.median(s["cluster_teardown_ms"] for s in setups),
        "net.build_ms": statistics.median(s["net_build_ms"] for s in setups),
        "net.link.packets": L["net.link.packets"],
        "net.switch.packets": L["net.switch.packets"],
        "net.credit_stalls": L["net.credit_stalls"],
        "net.link.busy_max": L.get("link.busy_max", 0.0),
        "lat.wire.p99_us": L["lat.wire.p99_us"],
        "nic.cmd.ops": L.get("nic.cmd.ops", 0.0),
        "nic.cmd.busy_max": L.get("nic.cmd.busy_max", 0.0),
        "nic.cmd.q_wait_us": ratio(L.get("nic.cmd.q_time_ps", 0.0),
                                   L.get("nic.cmd.ops", 0.0)) / 1e6,
        "lat.tx_queue.p99_us": L["lat.tx_queue.p99_us"],
        "nic.qp.batch_fill": ratio(L["serve.qp.posted"], L["serve.qp.doorbells"]),
        "dma.tx.bytes": L.get("dma.tx.bytes", 0.0),
        "dma.busy_max": max(L.get("dma.tx.busy_max", 0.0),
                            L.get("dma.rx.busy_max", 0.0)),
        "dma.q_wait_us": ratio(L.get("dma.tx.q_time_ps", 0.0) + L.get("dma.rx.q_time_ps", 0.0),
                               L.get("dma.tx.ops", 0.0) + L.get("dma.rx.ops", 0.0)) / 1e6,
        "trig.fired_msgs": L["lat.trigger_to_fire.count"],
        "lat.trigger_to_fire.p99_us": L["lat.trigger_to_fire.p99_us"],
        "gpu.cu.busy_max": L.get("gpu.cu.busy_max", 0.0),
        "gpu.cu.q_wait_us": ratio(L.get("gpu.cu.q_time_ps", 0.0),
                                  L.get("gpu.cu.ops", 0.0)) / 1e6,
        "cpu.busy_max": L.get("cpu.busy_max", 0.0),
        "cpu.ops": L.get("cpu.ops", 0.0),
        "fault.drops": L["fault.drops"],
        "rel.retransmits": L["rel.retransmits"],
        "rel.dup_dropped": L["rel.dup_dropped"],
        "rel.acks_tx": L["rel.acks_tx"],
        "rel.retx_per_drop": ratio(L["rel.retransmits"], L["fault.drops"]),
        "net.messages": L["net.messages"],
        "serve.slo_ok_frac": ratio(L["serve.slo_ok"], L["serve.ops"]),
        "sim_capacity_rps.gputn": capacity.get("GPU-TN", 0.0),
        "sim_capacity_rps.cpu": capacity.get("CPU", 0.0),
        "fail_ratio": fail_ratio,
    }
    # Host time per simulated link packet, from the untraced medians.
    packets = sum(r["layer"]["net.link.packets"] for r in ref)
    m["sim.host_ns_per_pkt"] = ratio(sum(medians.values()) * 1e6, packets)

    # Measured calls run at shards 1; the side run at side_shards.
    side_ms = [o["side_ms"] for o in observed if "side_ms" in o]
    m["sim.shard_speedup"] = ratio(sum(medians.values()), sum(side_ms))

    # Observer overheads against the untraced shards-1 medians.
    m["obs.trace_overhead"] = ratio(sum(o["traced_ms"] for o in observed),
                                    sum(medians[o["config"]] for o in observed)) - 1.0
    flight = [o for o in observed if "flight_ms" in o]
    m["obs.flight_overhead"] = (ratio(sum(o["flight_ms"] for o in flight),
                                      sum(medians[o["config"]] for o in flight)) - 1.0
                                if flight else 0.0)

    # Blame shares per path, pooled over every flight-recorded call.
    pooled = {}
    for o in flight:
        for path, cats in o["blame"].items():
            for cat, ps in cats.items():
                pooled.setdefault(path, {}).setdefault(cat, 0.0)
                pooled[path][cat] += ps
    for key in ("put.server_proc", "put.qp_batch", "put.doorbell",
                "put.trigger_wait", "get.wire", "get.switch_queue"):
        path, cat = key.split(".")
        cats = pooled.get(path, {})
        m["blame." + key] = 100.0 * ratio(cats.get(cat, 0.0), sum(cats.values()))

    hosts = [c["host"] for c in run["calls"] if not c["warmup"] and c["host"]]
    m["exp.point_ms"] = (statistics.median(h["point_ms_median"] for h in hosts)
                         if hosts else 0.0)
    m["exp.pool_efficiency"] = (statistics.median(h["pool_efficiency"] for h in hosts)
                                if hosts else 0.0)

    selfs = self_times(run["spans"])
    for _, metrics in PER_LAYER:
        for name, _, _ in metrics:
            if name.startswith("self."):
                m[name] = selfs.get(name, 0.0)
    return m, pooled


def print_table(title, rows):
    print(title)
    for name, value, unit, better in rows:
        print("  %-28s %16.6g %-12s (%s is better)" % (name, value, unit, better))


def hash_digests(digests):
    """Fold per-configuration digests into one 64-bit FNV-1a value."""
    h = 1469598103934665603
    for d in digests:
        for ch in d.encode():
            h = ((h ^ ch) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def measure(workload, a):
    """Measure one workload, print its report and result line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setups = [driver(["setup", "--workload", workload], deadline)
                  for _ in range(SETUP_REPEATS)]
        run = driver(["run", "--workload", workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace)],
                     deadline)
    except (subprocess.SubprocessError, OSError, TimeoutError, ValueError) as e:
        log("perfbench: driver failed: %s" % e)
        return 1

    ref, calls = run["reference"], run["calls"]
    configs = [r["config"] for r in ref]
    measured = [c for c in calls if not c["warmup"]]
    failed_calls = [c for c in calls
                    if not (c["ok"] and c["correct"] and c["digest_match"])]
    attempted, failed = len(calls), len(failed_calls)
    fail_ratio = failed / attempted

    samples = [c["ms"] for c in measured]
    tail_ms, tail_label = tail(samples)
    medians = {name: statistics.median(c["ms"] for c in measured
                                       if configs[c["config"]] == name)
               for name in configs}
    e2e = {
        "setup_s": statistics.median(
            (s["cluster_build_ms"] + s["cluster_teardown_ms"]) / 1000.0
            for s in setups),
        # Median over repetitions of the mean call in each: every repetition
        # holds each configuration once, so neither the mix of long and short
        # configurations nor a few slow calls can move it far.
        "run_ms_p50": statistics.median(
            statistics.mean(c["ms"] for c in measured[i:i + len(configs)])
            for i in range(0, len(measured), len(configs))),
        "run_ms_tail": tail_ms,
        "peak_rss_mb": run["peak_rss_mb"],
        **sim_metrics(workload, ref),
    }
    digest = "%016x" % hash_digests([r["digest"] for r in ref])

    print("perfbench %s  seed %d  %.0f s  trace %d  (%d hw threads%s)"
          % (workload, a.seed, a.seconds, a.trace, run["hw_threads"],
             ", %d sweep jobs" % run["jobs"] if workload == "sweep-mini" else ""))
    print("  %d repetitions x %d configurations measured in %.1f s; "
          "%d calls attempted, %d failed (fail_ratio %.4f)"
          % (run["reps"], len(configs), run["measured_ms"] / 1000.0,
             attempted, failed, fail_ratio))
    print("  sim_digest %s" % digest)
    failures = collections.Counter()
    for c in failed_calls:
        r = ref[c["config"]]
        why = ("threw: " + r["error"] if not c["ok"] else
               "verification failed" if not c["correct"] else "digest mismatch")
        failures[(r["config"], why)] += 1
    for (config, why), count in sorted(failures.items()):
        print("  FAILED %-24s %s (%d calls)" % (config, why, count))
    print("  per-configuration host ms (median): " +
          ", ".join("%s %.1f" % (k, v) for k, v in medians.items()))
    print("  run_ms_tail is the %s of %d samples" % (tail_label, len(samples)))

    capacity = {}
    if workload == "serve-ladder":
        rows, capacity = serve_ladder(ref)
        print("serving ladder (open loop, latency from intended arrival; "
              "SLO %.0f us on worst-tenant p99)" % ref[0]["extra"]["slo_us"])
        print("  %-7s %10s %12s %12s %9s %9s %8s" % (
            "mode", "rate/ten", "offered/s", "achieved/s", "p50 us", "p99 us",
            "requests"))
        for strategy, rate, e, backlog in rows:
            print("  %-7s %10.3g %12.4g %12.4g %9.2f %9.2f %8d%s%s" % (
                strategy, rate, e["offered_rps"], e["achieved_rps"],
                e["worst_p50_us"], e["worst_p99_us"], e["requests"],
                "  BACKLOG" if backlog else "",
                "  p99>SLO" if e["worst_p99_us"] > e["slo_us"] else ""))
        print("  sim_capacity_rps.gputn %.3g  sim_capacity_rps.cpu %.3g (per tenant)"
              % (capacity["GPU-TN"], capacity["CPU"]))

    print_table("end-to-end", [(n, e2e[n], u, b) for n, u, b in END_TO_END])
    print("  fail_ratio %.6f (%d of %d calls)" % (fail_ratio, failed, attempted))

    correct = failed == 0
    if a.trace:
        layer, pooled = per_layer(run, setups, medians, capacity,
                                  fail_ratio)
        drift_ok = all(o["drift_ok"] for o in run["observed"])
        correct = correct and drift_ok
        for title, metrics in PER_LAYER:
            print_table("layer %s" % title,
                        [(n, layer[n], u, b) for n, u, b in metrics])
        for path, cats in sorted(pooled.items()):
            total = sum(cats.values())
            print("  blame %-6s " % path + ", ".join(
                "%s %.1f%%" % (c, 100.0 * v / total)
                for c, v in sorted(cats.items(), key=lambda kv: -kv[1])))
        print("  Chrome trace events recorded: %d"
              % sum(o.get("trace_events", 0) for o in run["observed"]))
        print("  zero drift (traced / flight / side runs match untraced digests): %s"
              % ("yes" if drift_ok else "NO"))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / ("%s-seed%d-spans.json" % (workload, a.seed))
        spans_path.write_text(json.dumps(run["spans"]))
        print("  spans: %s" % spans_path.relative_to(ROOT))
        metrics = {n: {"value": layer[n], "unit": u}
                   for _, ms in PER_LAYER for n, u, _ in ms}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    return max(measure(name, a) for name in names)


if __name__ == "__main__":
    sys.exit(main())
