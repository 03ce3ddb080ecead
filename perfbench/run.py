#!/usr/bin/env python3
"""PQUIC benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/harness.exe with dune
into .bench_build, then runs one fresh harness process after another for
S seconds of wall time (at least MIN_SAMPLES of them), each a cold
sample of the workload; the samples cycle through SUBSEEDS inputs made
from seed N. Prints a readable summary and, as the last line, one JSON
object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics (medians over the
samples); with --trace 1 they are the per-layer metrics, from traced
samples interleaved with untraced ones. --workload all runs every
workload in turn and prints one JSON object keyed by workload.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["bulk_plain", "bulk_mpfec_lossy", "server_swarm"]
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
HARNESS = os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe")
CLOSURE_BOUND = 0.05
WARMUP_S = 2.0
# Each run cycles its samples through this many inputs derived from
# --seed. One loss pattern can double the work of a lossy transfer
# (seed to seed, packets lost differ by 2x and minor words per packet by
# 1.5x), so a run's medians cover many patterns, not one.
SUBSEEDS = 16

# End-to-end metrics: (name, unit, source key per workload). The bulk
# workloads measure a download, server_swarm a connection population;
# each metric maps to that workload's own measurement of the quantity.
BULK_KEYS = {
    "ops_per_cpu_s": "goodput_mb_per_cpu_s",
    "rx_p50_us": "rx_p50_us",
    "rx_p99_us": "rx_p99_us",
    "dgrams_per_cpu_s": "dgrams_per_cpu_s",
    "mem_bytes_per_conn": "mem_bytes_per_conn",
    "setup_s": "setup_s",
}
SWARM_KEYS = {
    "ops_per_cpu_s": "accepts_per_cpu_s",
    "rx_p50_us": "accept_p50_us",
    "rx_p99_us": "accept_p99_us",
    "dgrams_per_cpu_s": "routed_dgrams_per_cpu_s",
    "mem_bytes_per_conn": "mem_bytes_per_conn",
    "setup_s": "setup_s",
}
SOURCE = {
    "bulk_plain": BULK_KEYS,
    "bulk_mpfec_lossy": BULK_KEYS,
    "server_swarm": SWARM_KEYS,
}
# (name, unit, scaling): "rate" and "time" metrics are expressed at the
# reference machine speed (see calibrated), "none" are taken as measured.
END_TO_END = [
    ("ops_per_cpu_s", "1/s", "rate"),
    ("rx_p50_us", "us", "time"),
    ("rx_p99_us", "us", "time"),
    ("dgrams_per_cpu_s", "1/s", "rate"),
    ("mem_bytes_per_conn", "B", "none"),
    ("setup_s", "s", "time"),
]
# CPU seconds the harness's calibration loop takes on an unloaded
# 2-vCPU Intel Xeon VM at 2.1 GHz, the reference machine.
CAL_REF_S = 0.0195
# The rate whose traced/untraced ratio is the tracing overhead.
RATE_KEY = {
    "bulk_plain": "goodput_mb_per_cpu_s",
    "bulk_mpfec_lossy": "goodput_mb_per_cpu_s",
    "server_swarm": "accepts_per_cpu_s",
}

# Per-layer metrics: (name, unit, better).
PER_LAYER = [
    ("netsim.events_per_pkt", "count", "lower"),
    ("netsim.other_self_ns_per_pkt", "ns", "lower"),
    ("netsim.deliver_self_ns_per_pkt", "ns", "lower"),
    ("netsim.link_drops", "count", "lower"),
    ("netsim.queue_hwm_bytes", "B", "lower"),
    ("netsim.sim_dct_s", "sim_s", "lower"),
    ("quic.unprotect_ns_per_dgram", "ns", "lower"),
    ("quic.parse_ns_per_dgram", "ns", "lower"),
    ("quic.seal_ns_per_pkt", "ns", "lower"),
    ("quic.writer_created", "count", "lower"),
    ("quic.reader_created", "count", "lower"),
    ("quic.replayed_dgrams", "count", "higher"),
    ("core.rx_self_ns_per_dgram", "ns", "lower"),
    ("core.rx_minor_words_per_dgram", "words", "lower"),
    ("core.tx_self_ns_per_pkt", "ns", "lower"),
    ("core.tx_minor_words_per_pkt", "words", "lower"),
    ("core.pkts_lost", "count", "lower"),
    ("core.pkts_retransmitted", "count", "lower"),
    ("core.frames_recovered", "count", "higher"),
    ("core.useful_byte_share", "ratio", "higher"),
    ("core.accept_plain_p50_us", "us", "lower"),
    ("pluginop.attach_accept_p50_us", "us", "lower"),
    ("pluginop.heap_bytes_per_instance", "B", "lower"),
    ("pluginop.pre_cache_hit_rate", "ratio", "higher"),
    ("pluginop.pre_cache_misses", "count", "lower"),
    ("pluginop.node_misses", "count", "lower"),
    ("pluginop.sanctions", "count", "lower"),
    ("pluginop.fallbacks", "count", "lower"),
    ("ebpf.insns_per_pkt.multipath", "insns", "lower"),
    ("ebpf.insns_per_pkt.fec", "insns", "lower"),
    ("ebpf.insns_per_pkt.monitoring", "insns", "lower"),
    ("ebpf.admit_cold_us", "us", "lower"),
    ("engine.find_sub_ns", "ns", "lower"),
    ("engine.route_self_ns_per_dgram", "ns", "lower"),
    ("engine.shard_batch_mean", "count", "higher"),
    ("engine.table_load", "ratio", "lower"),
    ("engine.table_tombstones", "count", "lower"),
    ("engine.wheel_arms_per_conn", "count", "lower"),
    ("engine.wheel_fires_per_conn", "count", "lower"),
    ("engine.wheel_cascades_per_conn", "count", "lower"),
    ("engine.wheel_drivers_per_conn", "count", "lower"),
    ("gc.minor_words_per_pkt", "words", "lower"),
    ("gc.major_collections", "count", "lower"),
    ("gc.heap_top_bytes", "B", "lower"),
    ("trace.share_netsim", "ratio", "lower"),
    ("trace.share_core_rx", "ratio", "lower"),
    ("trace.share_core_tx", "ratio", "lower"),
    ("trace.share_accept", "ratio", "lower"),
    ("trace.share_engine", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("not the root of a PQUIC checkout (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/harness.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(HARNESS):
        sys.stderr.write(r.stdout)
        fail("build failed")


def sample(workload, seed, trace):
    """Run one harness process; returns its parsed result line."""
    spans = os.path.join(OUT_DIR, "spans-%s.csv" % workload)
    cmd = [HARNESS, workload, str(seed), "1" if trace else "0", spans]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=SAMPLE_TIMEOUT_S)
        lines = r.stdout.strip().splitlines()
        if r.returncode == 0 and lines:
            return json.loads(lines[-1])
        reason = "exit %d: %s" % (r.returncode, r.stderr.strip()[-300:])
    except subprocess.TimeoutExpired:
        reason = "timed out"
    except ValueError as e:
        reason = "unreadable result: %s" % e
    # a sample that produced no result counts as one failed operation
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": 1,
            "failed": 1, "failures": ["harness " + reason], "metrics": {}}


def subseed(seed, i):
    return seed * SUBSEEDS + i % SUBSEEDS


def collect(workload, seed, seconds, trace):
    """Fresh processes until the time is up; with trace, alternate
    untraced and traced ones so both see the same machine state.

    Samples taken while the machine ramps up from idle run up to 25%
    slow, so samples of the first WARMUP_S seconds are checked but
    kept out of the medians."""
    warm_until = time.monotonic() + WARMUP_S
    warmup = []
    while time.monotonic() < warm_until:
        warmup.append(sample(workload, subseed(seed, len(warmup)), False))
    deadline = time.monotonic() + seconds
    untraced, traced = [], []
    while True:
        want_traced = trace and len(traced) < len(untraced)
        runs = traced if want_traced else untraced
        runs.append(sample(workload, subseed(seed, len(runs)), want_traced))
        done = len(untraced) >= MIN_SAMPLES and (
            not trace or len(traced) >= MIN_SAMPLES)
        if done and time.monotonic() >= deadline:
            return warmup, untraced, traced


def calibrated(sample, key, scaling):
    """A sample's figure at the reference machine speed.

    Every sample first times a fixed loop that uses nothing from the
    library (calib_s). The VMs this runs on slow down by up to 1.7x for
    minutes at a time; the loop slows down with them, while a change to
    the library leaves it alone. Times are divided, and rates
    multiplied, by calib_s / CAL_REF_S."""
    raw = sample["metrics"].get(key)
    cal = sample["metrics"].get("calib_s")
    if raw is None or scaling == "none":
        return raw
    if not cal:
        return None
    speed = cal / CAL_REF_S
    return raw * speed if scaling == "rate" else raw / speed


def median_of(samples, key):
    vals = [s["metrics"][key] for s in samples
            if s["metrics"].get(key) is not None]
    return statistics.median(vals) if vals else None


def run(workload, seed, seconds, trace):
    warmup, untraced, traced = collect(workload, seed, seconds, trace)
    every = warmup + untraced + traced
    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["failed"] for s in every)
    problems = [f for s in every for f in s["failures"]]
    # the simulated download time is a function of the input seed alone
    by_seed = {}
    for s in every:
        if "netsim.sim_dct_s" in s["metrics"]:
            by_seed.setdefault(s["seed"], []).append(
                s["metrics"]["netsim.sim_dct_s"])
    for sd, dcts in sorted(by_seed.items()):
        if len(set(dcts)) > 1:
            common = statistics.mode(dcts)
            failed += sum(1 for d in dcts if d != common)
            problems.append("sim_dct_s differs across repeats of input %d: %s"
                            % (sd, sorted(set(dcts))))
    metrics = {}
    if not trace:
        for name, unit, scaling in END_TO_END:
            vals = [calibrated(s, SOURCE[workload][name], scaling)
                    for s in untraced]
            vals = [v for v in vals if v is not None]
            metrics[name] = {"value": statistics.median(vals) if vals
                             else None, "unit": unit}
    else:
        for name, unit, _ in PER_LAYER:
            v = median_of(traced, name)
            if v is None:
                v = median_of(untraced, name)
            metrics[name] = {"value": v, "unit": unit}
        rate = RATE_KEY[workload]
        u, t = median_of(untraced, rate), median_of(traced, rate)
        metrics["trace.overhead_ratio"]["value"] = (
            u / t if u is not None and t else None)
        closure = metrics["trace.unattributed_share"]["value"]
        if closure is None or closure > CLOSURE_BOUND:
            problems.append("trace closure: unattributed share %s > %.2f"
                            % (closure, CLOSURE_BOUND))
    missing = [k for k, m in metrics.items() if m["value"] is None]
    if missing:
        problems.append("no value for " + ", ".join(missing))
    correct = failed == 0 and not problems
    summary(workload, seed, trace, untraced, traced, metrics, attempted,
            failed, problems)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def summary(workload, seed, trace, untraced, traced, metrics, attempted,
            failed, problems):
    print("== %s seed %d: %d untraced + %d traced samples"
          % (workload, seed, len(untraced), len(traced)))
    if not trace:
        cal = median_of(untraced, "calib_s")
        print("  machine speed: calibration loop %.3gx the reference"
              % ((cal or 0) / CAL_REF_S))
        print("  %-22s %14s %14s" % ("", "calibrated", "as measured"))
        for name, unit, _ in END_TO_END:
            src = SOURCE[workload][name]
            alias = "" if src == name else "  (%s)" % src
            print("  %-22s %14.6g %14.6g %-6s%s"
                  % (name, metrics[name]["value"] or 0,
                     median_of(untraced, src) or 0, unit, alias))
        dct = median_of(untraced, "netsim.sim_dct_s")
        print("  %-22s %14.6g %-6s" % ("sim_dct_s", dct or 0, "sim_s"))
    else:
        for name, unit, _ in PER_LAYER:
            print("  %-34s %14.6g %s"
                  % (name, metrics[name]["value"] or 0, unit))
    print("  %-22s %14.6g      (%d failed of %d attempted)"
          % ("fail_ratio", failed / max(1, attempted), failed, attempted))
    for p in problems:
        print("  FAILED: " + p)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if a.workload == "all":
        out = {w: run(w, a.seed, a.seconds, a.trace == 1) for w in WORKLOADS}
    else:
        out = run(a.workload, a.seed, a.seconds, a.trace == 1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
