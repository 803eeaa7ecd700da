#!/usr/bin/env python3
"""Repository benchmark: three simulated-CDN workloads, one experiment each.

Usage (from the repository root):

    python3 perfbench/run.py --workload mesh34|mesh34_off|hostile \\
        --seed N --seconds S --trace 0|1 [--sim-seconds X] [--record]

Builds perfbench_workload from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. It then
constructs the workload's experiment in SETUP_PROCESSES fresh processes and
runs its fixed batch in fresh processes, one after another, for about S
seconds of host time (at least two batches). Every batch is checked: probe
accounting, an empty segment pool after the experiment is destroyed, and
the same fingerprint and exact counters in every process.

--trace 0 reports the end-to-end metrics (medians over processes).
--trace 1 alternates untraced and traced batches and reports the per-layer
split. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted counts batches plus probes issued; failed counts batches that
failed a check plus probes that failed. --sim-seconds shortens the batch
(smoke test); --record rewrites this workload's entry in
perfbench/expected.json from the run. See perfbench/README.md.
"""

import argparse
import collections
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORKLOADS = ("mesh34", "mesh34_off", "hostile")
DEADLINE_S = 170  # a run must end within 180 s once built
SETUP_PROCESSES = 101  # cold constructions per run; ~5 ms each

# Outputs that are exact for a (workload, seed, length): every batch of a
# run, traced or not, must agree on all of them.
EXACT_KEYS = (
    "probes_issued", "probes_completed", "probes_failed", "probes_in_flight",
    "flows", "probe_p50_ms", "probe_p99_ms", "probe_p999_ms", "fingerprint",
    "sim_events", "sim_cascades", "sim_buckets", "net_packets", "net_bytes",
    "net_drops_queue_full", "net_drops_random", "tcp_segments",
    "tcp_heap_allocs", "tcp_pool_high_water", "tcp_retransmissions",
    "tcp_timeouts", "host_packets_sent", "host_connections_opened",
    "core_agent_polls", "core_routes_set", "core_governor_actions",
    "core_cooldown_polls",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_workload; returns the binary path."""
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, env=env,
                           stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "perfbench_workload", "-j", jobs],
                       check=True, env=env, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_workload")


def run_batch(binary, args, mode, deadline):
    """One process, mode "--traced", "--setup-only" or None; returns
    (record, wall seconds)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.sim_seconds:
        cmd += ["--sim-seconds", repr(args.sim_seconds)]
    if mode:
        cmd.append(mode)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        log("batch timed out: " + " ".join(cmd))
        return None, time.monotonic() - start
    wall = time.monotonic() - start
    if proc.returncode != 0:
        log(f"batch exited {proc.returncode}: {proc.stderr.strip()}")
        return None, wall
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall
    except (ValueError, IndexError):
        log("batch printed no JSON: " + proc.stdout[-200:])
        return None, wall


def batch_problems(rec, majority):
    """Output checks on one batch; returns the failed ones."""
    problems = []
    if rec is None:
        return ["batch failed"]
    if exact_outputs(rec) != majority:
        problems.append("exact outputs differ from the other batches")
    if not rec["probe_accounting_ok"]:
        problems.append("issued != completed + failed + in_flight")
    if rec["pool_live_after_destroy"] != 0:
        problems.append("segment pool not empty after the experiment ended")
    if rec["flows"] != rec["probes_completed"] or rec["flows"] == 0:
        problems.append("flow records do not match completed probes")
    return problems


def set_up(binary, args, started):
    """Cold set-up times from SETUP_PROCESSES fresh processes."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        rec, _ = run_batch(binary, args, "--setup-only", started + DEADLINE_S)
        if rec is None:
            return None
        samples.append(rec["setup_s"])
    return samples


def run_batches(binary, args, traced_mode, started):
    """Runs batches for about args.seconds, and at least two, so the repeat
    check always has a pair to compare.

    Returns a list of (traced, record or None for a failed process)."""
    deadline = started + DEADLINE_S
    batches, walls = [], []
    while True:
        for is_traced in ((False, True) if traced_mode else (False,)):
            rec, wall = run_batch(binary, args,
                                  "--traced" if is_traced else None, deadline)
            walls.append(wall)
            batches.append((is_traced, rec))
        elapsed = time.monotonic() - started
        step = max(walls) * (2 if traced_mode else 1)
        if time.monotonic() + step > deadline or (
                len(batches) >= 2 and elapsed + step > args.seconds):
            return batches


def exact_outputs(rec):
    return tuple(rec[k] for k in EXACT_KEYS)


def check_expected(args, rec):
    """Compares a default-length batch with perfbench/expected.json.

    A difference is reported, not failed: a change that legitimately
    alters simulated behaviour re-records the entry with --record."""
    with open(EXPECTED_PATH) as f:
        expected = json.load(f)
    entry = expected.get(args.workload, {})
    if args.sim_seconds or entry.get("seed") != args.seed:
        return
    drift = [k for k, v in entry.get("exact", {}).items() if rec.get(k) != v]
    if drift:
        log("expected.json drift: " + ", ".join(
            f"{k} {entry['exact'][k]} -> {rec.get(k)}" for k in drift))
    else:
        log(f"expected.json: {args.workload} seed {args.seed} matches")


def record_expected(args, rec):
    with open(EXPECTED_PATH) as f:
        expected = json.load(f)
    expected[args.workload] = {
        "seed": args.seed,
        "sim_seconds": rec["sim_seconds"],
        "exact": {k: rec[k] for k in EXACT_KEYS},
    }
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"recorded {args.workload} seed {args.seed} in {EXPECTED_PATH}")


def med(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end_metrics(plain, setup):
    first = plain[0]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (med(plain, "run_s"), "s"),
        "peak_rss_mb": (med(plain, "peak_rss_mb"), "MB"),
        "probe_p50_ms": (first["probe_p50_ms"], "ms"),
        "probe_p99_ms": (first["probe_p99_ms"], "ms"),
        "probe_p999_ms": (first["probe_p999_ms"], "ms"),
    }


def per_layer_metrics(plain, traced):
    first = traced[0]
    plain_run = med(plain, "run_s")
    traced_run = med(traced, "run_s")
    ss_s = med(traced, "ss_s")
    poll_s = med(traced, "poll_s")
    self_s = statistics.median(
        r["poll_s"] - r["ss_s"] - r["program_in_poll_s"] for r in traced)
    # The spans are wall-clock, so they are set against the run's wall time.
    traced_wall = med(traced, "run_wall_s")
    unattributed = statistics.median(
        r["run_wall_s"] - r["poll_s"]
        - (r["program_s"] - r["program_in_poll_s"]) for r in traced)
    ss_calls, ss_conns = first["ss_calls"], first["ss_conns"]

    def count(key):
        return (first[key], "count")

    return {
        "sim.events": count("sim_events"),
        "sim.cascades": count("sim_cascades"),
        "sim.buckets": count("sim_buckets"),
        "sim.ns_per_event": (plain_run / first["sim_events"] * 1e9, "ns"),
        "net.packets": count("net_packets"),
        "net.bytes": (first["net_bytes"], "B"),
        "net.drops_queue_full": count("net_drops_queue_full"),
        "net.drops_random": count("net_drops_random"),
        "tcp.segments": count("tcp_segments"),
        "tcp.heap_allocs": count("tcp_heap_allocs"),
        "tcp.pool_high_water": count("tcp_pool_high_water"),
        "tcp.retransmissions": count("tcp_retransmissions"),
        "tcp.timeouts": count("tcp_timeouts"),
        "host.ss_calls": (ss_calls, "count"),
        "host.ss_s": (ss_s, "s"),
        "host.ss_conns_per_call": (ss_conns / ss_calls if ss_calls else 0.0,
                                   "count"),
        "host.ss_ns_per_conn": (ss_s / ss_conns * 1e9 if ss_conns else 0.0,
                                "ns"),
        "host.packets_sent": count("host_packets_sent"),
        "host.connections_opened": count("host_connections_opened"),
        "host.route_entries": (first["route_entries_per_host"], "count"),
        "host.lookup_ns": (statistics.median(
            r["lookup_s"] / r["lookups"] * 1e9 for r in traced), "ns"),
        "core.polls": count("core_agent_polls"),
        "core.polls_timed": count("polls_timed"),
        "core.poll_s": (poll_s, "s"),
        "core.self_s": (self_s, "s"),
        "core.program_calls": count("program_calls"),
        "core.program_s": (med(traced, "program_s"), "s"),
        "core.routes_set": count("core_routes_set"),
        "core.governor_actions": count("core_governor_actions"),
        "core.cooldown_polls": count("core_cooldown_polls"),
        "core.ss_self_share": ((ss_s + self_s) / traced_wall, "ratio"),
        "cdn.probes_issued": count("probes_issued"),
        "cdn.probes_completed": count("probes_completed"),
        "cdn.probes_failed": count("probes_failed"),
        "cdn.flows": count("flows"),
        "cdn.fingerprint": (first["fingerprint"], "crc32"),
        "trace.overhead_frac": (traced_run / plain_run - 1.0, "ratio"),
        "run.unattributed_s": (unattributed, "s"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--sim-seconds", type=float, default=0.0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.sim_seconds < 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "cdn", "experiment.h")):
        log(f"perfbench: no simulator sources under {ROOT}/src; run from a "
            "full checkout")
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    started = time.monotonic()
    setup = None if args.trace else set_up(binary, args, started)
    if not args.trace and setup is None:
        log("perfbench: a set-up process failed")
        return 1
    batches = run_batches(binary, args, args.trace == 1, started)
    plain = [r for t, r in batches if r is not None and not t]
    traced = [r for t, r in batches if r is not None and t]
    if not plain or (args.trace and not traced):
        log("perfbench: no batch completed")
        return 1
    records = plain + traced
    # The exact outputs most batches agree on; any other batch fails.
    majority = collections.Counter(
        map(exact_outputs, records)).most_common(1)[0][0]
    failed = 0
    for is_traced, rec in batches:
        problems = batch_problems(rec, majority)
        for p in problems:
            log(f"check failed ({'traced' if is_traced else 'plain'}): {p}")
        failed += bool(problems)
    correct = failed == 0
    check_expected(args, plain[0])
    if args.record and correct:
        record_expected(args, plain[0])

    attempted = len(batches) + sum(r["probes_issued"] for r in records)
    failed_total = failed + sum(r["probes_failed"] for r in records)
    metrics = (per_layer_metrics(plain, traced) if args.trace
               else end_to_end_metrics(plain, setup))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"sim {plain[0]['sim_seconds']:g} s  batches {len(plain)} plain"
          f" + {len(traced)} traced  probes/batch {plain[0]['flows']}")
    print(f"run wall time {med(plain, 'run_wall_s'):.4g} s (median; run_s is "
          "thread CPU time)")
    print(f"failed_frac {failed_total / attempted:.6g} "
          f"({failed_total} of {attempted} batches+probes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_total,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
