#!/usr/bin/env bash
# CI entry point: build + test the two configurations that matter.
#
#   1. Release        — the configuration benches and figure reproductions
#                       use; catches optimizer-dependent breakage.
#   2. Debug+ASan/UBSan — memory and UB errors in the event-queue slab,
#                       the SBO callback, and the thread-pool fan-out.
#
# Usage: tools/ci.sh [jobs]   (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"; shift
  echo "==== configure $dir ($*) ===="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "==== build $dir ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== test $dir ===="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_config build-ci-release -DCMAKE_BUILD_TYPE=Release

run_config build-ci-asan \
  -DCMAKE_BUILD_TYPE=Debug \
  -DRIPTIDE_SANITIZE=ON

# The chaos label (fault-injection + stress suites) re-runs under the
# sanitizers with a hard per-test timeout: injected failures exercise the
# exception/retry/restart paths where lifetime bugs hide, and a wedged
# simulation must fail the build rather than hang it.
echo "==== chaos suite (ASan/UBSan) ===="
ctest --test-dir build-ci-asan -L chaos --output-on-failure \
  --timeout 300 -j "$JOBS"

# The persist label (snapshot codec, stores, checkpointer, governor,
# reconciliation) likewise re-runs under the sanitizers: the decoder
# walks attacker-shaped bytes and must never read past them.
echo "==== persist suite (ASan/UBSan) ===="
ctest --test-dir build-ci-asan -L persist --output-on-failure \
  --timeout 300 -j "$JOBS"

# The sched label (timer-wheel differential/property suites, the core
# simulator tests, and the golden-determinism pins) re-runs under the
# sanitizers: the scheduler is an intrusive slab of raw indices where an
# off-by-one cascade or a stale unlink corrupts silently — exactly what
# ASan/UBSan turn into a loud failure.
echo "==== sched suite (ASan/UBSan) ===="
ctest --test-dir build-ci-asan -L sched --output-on-failure \
  --timeout 300 -j "$JOBS"

# The hostile label (incast/flash-crowd wave generators, the governed
# policy end-to-end ordering, the governed CLI path) re-runs under the
# sanitizers: waves of short-lived connections churn through socket
# teardown and the governor's withdraw/rollback sweeps, prime ground for
# use-after-free.
echo "==== hostile suite (ASan/UBSan) ===="
ctest --test-dir build-ci-asan -L hostile --output-on-failure \
  --timeout 300 -j "$JOBS"

# The chaos-search label (spec codec, invariant oracles, shrinker,
# campaign engine, repro replay) re-runs under the sanitizers: a campaign
# composes every other subsystem's failure modes in one process, so a
# lifetime bug anywhere tends to surface here first.
echo "==== chaos-search suite (ASan/UBSan) ===="
ctest --test-dir build-ci-asan -L chaos-search --output-on-failure \
  --timeout 300 -j "$JOBS"

# The cc label (pacer release arithmetic, HyStart round tracking, the
# BBR-lite delivery-rate filter, per-route CC programming, and the paced
# determinism pins) re-runs under the sanitizers: the controllers keep
# per-connection state machines whose stale-pointer/uninitialized-read
# failure modes are silent in Release.
echo "==== cc suite (ASan/UBSan) ===="
ctest --test-dir build-ci-asan -L cc --output-on-failure \
  --timeout 300 -j "$JOBS"

# The grammar label (the shared spec lexer, the fault-plan and
# hostile/policy fuzz-seed corpora, the CLI's numeric flag check) re-runs
# under the sanitizers: every scenario string is parsed through it, and
# float-cast-overflow turns a number that escapes its bounds into a loud
# failure instead of a silently wrapped sim::Time.
echo "==== grammar suite (ASan/UBSan) ===="
ctest --test-dir build-ci-asan -L grammar --output-on-failure \
  --timeout 300 -j "$JOBS"

# Chaos campaign smoke (Release): a short seeded campaign end to end
# through the CLI. A healthy tree must come back with zero findings; any
# finding writes its minimized .min.spec next to the build for triage.
echo "==== chaos campaign smoke (Release) ===="
./build-ci-release/tools/riptide_sim --chaos 48 --chaos-seed 1 \
  --chaos-out build-ci-release

# Event-queue bench diff (informational, never a gate): one JSONL row per
# workload, diffed against the checked-in wheel-vs-heap baseline.
echo "==== event-queue throughput (Release) ===="
./build-ci-release/bench/bench_micro --queue-json \
  | tee build-ci-release/BENCH_eventwheel.ci.json
python3 tools/bench_diff.py BENCH_eventwheel.json \
  build-ci-release/BENCH_eventwheel.ci.json || true

# Hotpath bench diff (informational, never a gate): zero baselines render
# as "n/a" rows, and bench_diff.py always exits 0 — `|| true` guards only
# against the bench itself failing to run.
echo "==== hotpath bench diff vs checked-in baseline ===="
./build-ci-release/bench/bench_micro --hotpath-json \
  > build-ci-release/BENCH_hotpath.ci.json
python3 tools/bench_diff.py BENCH_hotpath.json \
  build-ci-release/BENCH_hotpath.ci.json || true

# Hybrid-fidelity bench (informational): quick mode keeps CI short; the
# JSON's hardware-independent facts — event and cross-flow counts and the
# hybrid/packet event ratio — are what reviewers read.
echo "==== hybrid fidelity bench (quick) ===="
./build-ci-release/bench/bench_hybrid_fidelity --quick --json \
  | tail -1 > build-ci-release/BENCH_hybrid.ci.json
python3 tools/bench_diff.py BENCH_hybrid.json \
  build-ci-release/BENCH_hybrid.ci.json || true

# Policy zoo bench (informational): quick mode keeps CI short. The
# headline block — static IW50 vs governed adaptive per hostile scenario —
# is what reviewers read; quick-mode numbers are not comparable with the
# checked-in full-length BENCH_policy.json, so the diff is advisory.
echo "==== policy zoo x hostile scenario bench (quick) ===="
./build-ci-release/bench/bench_policy_zoo --quick --json \
  > build-ci-release/BENCH_policy.ci.json
python3 tools/bench_diff.py BENCH_policy.json \
  build-ci-release/BENCH_policy.ci.json || true

# CC matrix bench (informational): quick mode keeps CI short. The headline
# — jump-start gain per congestion-control regime — is what reviewers
# read; quick-mode numbers are not comparable with the checked-in
# full-length BENCH_cc.json, so the diff is advisory.
echo "==== cc regime matrix bench (quick) ===="
./build-ci-release/bench/bench_cc_matrix --quick --json \
  > build-ci-release/BENCH_cc.ci.json
python3 tools/bench_diff.py BENCH_cc.json \
  build-ci-release/BENCH_cc.ci.json || true

# Docs lint: every relative markdown link must resolve (offline check; no
# network fetches in CI), and docs/CLI.md must match riptide_sim --help
# exactly (drift fails the build; regenerate with --update). The --binary
# cross-check also pins the kHelpText extraction against what the built
# binary actually prints.
echo "==== docs lint ===="
python3 tools/check_md_links.py
python3 tools/check_cli_docs.py --binary build-ci-release/tools/riptide_sim

# Trace smoke: one traced run through the CLI, then schema/order
# validation of the emitted JSONL.
echo "==== trace smoke ===="
./build-ci-release/tools/riptide_sim --pops 3 --duration 20 --seed 7 \
  --trace build-ci-release/trace_ci.jsonl
python3 tools/trace_report.py build-ci-release/trace_ci.jsonl --check

# Benchmark smoke: perfbench/ builds its own workload binary from src/ and
# includes agent headers, so an API change there must fail here rather
# than only when the benchmark next runs. Every workload at a short length,
# untraced and traced, with its output checks.
echo "==== perfbench smoke ===="
python3 perfbench/smoke_test.py

echo "CI passed."
