#!/usr/bin/env bash
# Local CI gate: build, tests, formatting, lints. Run from anywhere;
# everything happens at the repository root. The build environment is
# offline, so every cargo invocation passes --offline.
#
# The workspace test suite runs twice — once pinned to a single worker
# and once at four workers — because the parallel hot paths (linalg,
# EM inference, batched DQN scoring) promise bit-identical results at
# every pool width; a regression that only reproduces under threading
# must fail CI, not just tests/determinism.rs. Each suite reports its
# wall-clock so thread-scaling regressions are visible in the log.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run "$@" (from the second argument on) and report the wall-clock
# seconds for the labelled suite (first argument).
timed() {
  local label=$1
  shift
  local start end
  start=$(date +%s)
  "$@"
  end=$(date +%s)
  echo "-- ${label}: $((end - start))s"
}

echo "== cargo build --release =="
timed "build" cargo build --release --offline

echo "== perf_pairs.sh syntax =="
# The paired-timing script builds and runs a second tree, minutes of
# work, so CI only parses it.
timed "perf_pairs syntax" bash -n scripts/perf_pairs.sh

echo "== perfbench check (locked) =="
# The benchmark package builds the workspace crates by path under its
# own committed perfbench/Cargo.lock, which records every crate's
# dependency list. --locked fails as soon as a crate in that graph
# changes its dependencies, so the benchmark keeps building the same
# graph at every commit.
timed "perfbench check" cargo check --offline --locked --manifest-path perfbench/Cargo.toml

echo "== perfbench tests =="
# The rollup's self-tests on hand-built traces.
timed "perfbench tests" cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== perfbench work gate =="
# Each workload at the seed in scripts/perfbench_expected.json runs once
# untraced and once traced. Both runs must exit 0 and check every output
# ("correct": true, "failed": 0), and each metric the file names must
# print exactly its value there: the outcome from the untraced run, the
# work counts and the ratios that repeat bit for bit from the traced
# one. No timing is gated: wall time on a shared host is measured in
# alternating pairs, not bounded here (DESIGN.md §14.5). A change that
# moves a value edits the file by hand and says why in CHANGES.md; the
# current values of the file's traced metrics for, e.g., tenants print
# with
#   cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
#     --workload tenants --seed 7 --seconds 0 --trace 1 | tail -n 1 |
#     jq --slurpfile e scripts/perfbench_expected.json \
#       '.metrics | with_entries(select(.key | in($e[0].workloads.tenants.traced)) | .value |= .value)'
# (--trace 0 and .untraced for the outcome).
perfbench_gate() {
  local expected=scripts/perfbench_expected.json
  local seed workload trace mode out want diff
  seed=$(jq .seed "$expected")
  for workload in $(jq -r '.workloads | keys_unsorted[]' "$expected"); do
    for trace in 0 1; do
      mode=$( ((trace)) && echo traced || echo untraced)
      if ! out=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 0 --trace "$trace"); then
        echo "perfbench $workload ($mode) exited non-zero" >&2
        return 1
      fi
      want=$(jq -c --arg w "$workload" --arg m "$mode" '.workloads[$w][$m]' "$expected")
      diff=$(tail -n 1 <<<"$out" | jq -c --argjson want "$want" '
        . as $run
        | (if .correct != true or .failed != 0 then {correct, failed} else empty end),
          ($want | to_entries[] | select($run.metrics[.key].value != .value)
            | {metric: .key, expected: .value, got: $run.metrics[.key].value})')
      if [[ -n "$diff" ]]; then
        echo "perfbench $workload ($mode) at seed $seed moved:" >&2
        echo "$diff" >&2
        return 1
      fi
      echo "$workload $mode: $(jq length <<<"$want") values equal"
    done
  done
}
timed "perfbench gate" perfbench_gate

echo "== cargo test (workspace, CROWDRL_THREADS=1) =="
timed "tests @1 thread" env CROWDRL_THREADS=1 cargo test -q --offline --workspace

echo "== cargo test (workspace, CROWDRL_THREADS=4) =="
timed "tests @4 threads" env CROWDRL_THREADS=4 cargo test -q --offline --workspace

echo "== cargo test (release: linalg + nn) =="
# The debug runs above do not auto-vectorize the matmul tile loops, so
# the kernel bit pin (crates/linalg/tests/kernel_bits.rs), the
# equivalence suites and the network tests run again on optimized code.
timed "tests release linalg+nn" cargo test -q --release --offline -p crowdrl-linalg -p crowdrl-nn

echo "== pool stress (release, 50 passes) =="
# A pooled call returns once every chunk a helper claimed has finished,
# so a helper job can start after its caller returned. Whether such a
# late helper stays away from the caller's closure depends on timing one
# pass rarely reaches, so the pool's unit tests run 50 times at 8 test
# threads.
pool_stress() {
  local pass out
  for ((pass = 1; pass <= 50; pass++)); do
    if ! out=$(cargo test -q --release --offline -p crowdrl-linalg --lib pool:: -- \
      --test-threads 8 2>&1); then
      echo "pool tests failed on pass $pass:" >&2
      echo "$out" >&2
      return 1
    fi
  done
  echo "pool tests passed $((pass - 1)) times"
}
timed "pool stress" pool_stress

echo "== traced run + crowdrl-trace smoke test =="
# The observability layer must produce a trace the analyzer can profile:
# run a small traced experiment and assert the phase profile is non-empty.
trace_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-trace.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" cargo run -q --release --offline --example trace_demo >/dev/null
  local profile
  profile=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  echo "$profile" | head -n 6
  rm -f "$tracefile"
  if ! echo "$profile" | grep -q "workflow.run"; then
    echo "crowdrl-trace profile is missing workflow.run" >&2
    return 1
  fi
  if ! echo "$profile" | grep -q "serve.run"; then
    echo "crowdrl-trace profile is missing serve.run" >&2
    return 1
  fi
}
timed "trace smoke" trace_smoke

echo "== chaos demo + fault & recovery report smoke test =="
# The chaos layer end to end: a faulted, quarantined, checkpointed run
# is killed mid-flight, restored, and must match the uninterrupted run
# (the example asserts bit-identity itself); the analyzer must then
# surface the fault & recovery section from the trace.
chaos_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-chaos.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" cargo run -q --release --offline --example chaos_demo >/dev/null
  local report
  report=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  rm -f "$tracefile"
  local needle
  for needle in "fault & recovery" "fault.injected.drift" "quarantine.entered" "checkpoint.write"; do
    if ! echo "$report" | grep -q "$needle"; then
      echo "crowdrl-trace report is missing '$needle'" >&2
      return 1
    fi
  done
  echo "$report" | sed -n '/fault & recovery/,/^$/p' | head -n 14
}
timed "chaos smoke" chaos_smoke

echo "== multi-project service smoke test =="
# The multi-tenant service end to end at a small scale: several projects
# over one shared pool, run in both execution modes (the demo asserts
# bit-identity itself); the analyzer must then surface the per-project
# phase profile grouped by tenant scope.
service_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-service.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" \
    SERVICE_DEMO_PROJECTS=3 SERVICE_DEMO_OBJECTS=60 SERVICE_DEMO_ANNOTATORS=40 \
    cargo run -q --release --offline --example service_demo >/dev/null
  local report
  report=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  rm -f "$tracefile"
  local needle
  for needle in "per-project phase profile" "service.run" "project.2.serve.refresh"; do
    if ! echo "$report" | grep -q "$needle"; then
      echo "crowdrl-trace report is missing '$needle'" >&2
      return 1
    fi
  done
  echo "$report" | sed -n '/per-project phase profile/,/^$/p' | head -n 8
}
timed "service smoke" service_smoke

echo "== service chaos + checkpoint/restore smoke test =="
# Tenant-isolated fault containment end to end: a multi-project run
# with an injected shard panic, a project outage, and a shed admission
# is killed at a checkpoint and restored (the example asserts
# bit-identity itself); the analyzer must then surface the service-level
# fault & recovery counters from the trace.
service_chaos_smoke() {
  local tracefile
  tracefile=$(mktemp /tmp/crowdrl-service-chaos.XXXXXX.jsonl)
  CROWDRL_TRACE="$tracefile" \
    cargo run -q --release --offline --example service_chaos_demo >/dev/null
  local report
  report=$(cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace "$tracefile")
  rm -f "$tracefile"
  local needle
  for needle in "fault & recovery" "service.checkpoint.write" \
    "service.project_failed" "admission.shed"; do
    if ! echo "$report" | grep -q "$needle"; then
      echo "crowdrl-trace report is missing '$needle'" >&2
      return 1
    fi
  done
  echo "$report" | sed -n '/fault & recovery/,/^$/p' | head -n 12
}
timed "service chaos smoke" service_chaos_smoke

echo "== decide pruning equivalence smoke test =="
# The pruned decide path (one forward per distinct annotator block,
# class-merged ranking and panel fill) must be invisible end to end: the
# same small service round in pruned and exhaustive mode must print the
# identical outcome — labels, accuracies, rounds, budgets, sim time. The
# pool has 2,000 annotators, the `tenants` benchmark scale, where classes
# are far fewer than annotators. Only the wall-clock figures (the thing
# pruning is allowed to change) are stripped before diffing.
decide_smoke() {
  local out_pruned out_exhaustive
  out_pruned=$(SERVICE_DEMO_PROJECTS=3 SERVICE_DEMO_OBJECTS=60 \
    SERVICE_DEMO_ANNOTATORS=2000 SERVICE_DEMO_DECIDE=pruned \
    cargo run -q --release --offline --example service_demo |
    sed -E 's/wall [0-9.]+s( \([0-9.]+x\))?//')
  out_exhaustive=$(SERVICE_DEMO_PROJECTS=3 SERVICE_DEMO_OBJECTS=60 \
    SERVICE_DEMO_ANNOTATORS=2000 SERVICE_DEMO_DECIDE=exhaustive \
    cargo run -q --release --offline --example service_demo |
    sed -E 's/wall [0-9.]+s( \([0-9.]+x\))?//')
  if [[ "$out_pruned" != "$out_exhaustive" ]]; then
    echo "pruned vs exhaustive service outputs diverged:" >&2
    diff <(echo "$out_exhaustive") <(echo "$out_pruned") >&2 || true
    return 1
  fi
  echo "decide equivalence: pruned == exhaustive service outcome ✓"
}
timed "decide smoke" decide_smoke

echo "== crowdrl-trace --diff smoke test =="
# Two traced runs of the same deterministic workload must profile as
# equivalent: the diff gate, which compares the phase times of two
# traces, must exit zero at a generous threshold. Both traces come from
# one build; comparing two commits is left to perfbench's alternating
# pairs (DESIGN.md §14.5).
# This also exercises the incremental engine's warm path end to end —
# the demo runs with the default (warm-started) config.
diff_smoke() {
  local trace_a trace_b
  trace_a=$(mktemp /tmp/crowdrl-diff-a.XXXXXX.jsonl)
  trace_b=$(mktemp /tmp/crowdrl-diff-b.XXXXXX.jsonl)
  CROWDRL_TRACE="$trace_a" cargo run -q --release --offline --example trace_demo >/dev/null
  CROWDRL_TRACE="$trace_b" cargo run -q --release --offline --example trace_demo >/dev/null
  cargo run -q --release --offline -p crowdrl-bench --bin crowdrl-trace -- \
    --diff "$trace_a" "$trace_b" --threshold 0.5 | tail -n 3
  rm -f "$trace_a" "$trace_b"
}
timed "diff smoke" diff_smoke

echo "== cargo fmt --check =="
# perfbench is its own workspace, so it is checked by its own manifest.
timed "fmt" cargo fmt --check
timed "perfbench fmt" cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "== cargo clippy -D warnings =="
timed "clippy" cargo clippy --workspace --all-targets --offline -- -D warnings
timed "perfbench clippy" cargo clippy --offline --locked --all-targets \
  --manifest-path perfbench/Cargo.toml -- -D warnings

echo "== cargo doc -D warnings =="
# Every intra-doc link must resolve. A moved, renamed or private item
# breaks the links that name it, and rustdoc only warns about that.
timed "rustdoc" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "CI OK"
