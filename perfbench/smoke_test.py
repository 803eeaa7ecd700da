#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a short length.

Run from the repository root:

    python3 perfbench/smoke_test.py

For each workload it runs perfbench/run.py with a 20 s simulated batch,
untraced and traced, and asserts that the result line has exactly the
contract's keys, that every metric BENCHMARK.json names is present with its
unit, and that every output check passed. It also asserts the per-layer
ordering the workloads were chosen for, and that run.py refuses to run in a
directory holding only BENCHMARK.json and perfbench/. Exits non-zero on the
first failure.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_SECONDS = "20"


def run(workload, trace, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--sim-seconds", SIM_SECONDS]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(proc, specs, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n" \
        f"{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: checks failed\n" \
        f"{proc.stderr[-2000:]}"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {s["name"] for s in specs}, \
        f"{label}: metric names differ: {sorted(metrics)}"
    for spec in specs:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], \
            f"{label}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), spec["name"]
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    layers = {}
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(run(workload, 0), bench["end_to_end"],
                     f"{workload} --trace 0")
        layers[workload] = check_result(run(workload, 1), bench["per_layer"],
                                        f"{workload} --trace 1")
        print(f"ok  {workload}")

    # The agent's `ss` + self time is the larger share of the run on the
    # read-heavy mesh, and absent when Riptide is off.
    share = {w: m["core.ss_self_share"]["value"] for w, m in layers.items()}
    assert share["mesh34"] > share["hostile"] > 0, share
    off = layers["mesh34_off"]
    for name in ("host.ss_calls", "host.ss_s", "core.polls", "core.self_s"):
        assert off[name]["value"] == 0, (name, off[name])
    assert off["host.route_entries"]["value"] == 1
    print("ok  per-layer ordering")

    # Without the simulator sources the benchmark must fail, not report.
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("mesh34", 0, cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok  bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
