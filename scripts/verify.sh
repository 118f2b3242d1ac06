#!/usr/bin/env bash
# Full offline verification: build, test, format and lint checks, bench smoke.
# The workspace is hermetic (no external crates), so everything below
# runs with --offline on a machine that has never touched crates.io.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace --no-fail-fast"
cargo test -q --offline --workspace --no-fail-fast

echo "==> session layer (budgets, deadlines, cancellation, observers)"
cargo test -q --offline -p farmer-core --test session
# release mode runs the search fastest: stop/deadline tests must hold
# there too (their workload is endless by construction)
cargo test -q --offline --release -p farmer-core --test session
cargo test -q --offline -p farmer-baselines adapters

echo "==> allocation guard (hot path must not allocate once warm; release)"
cargo test -q --offline --release -p farmer-core --test alloc_guard

echo "==> parallel determinism matrix (1/2/4/8 threads, byte-pinned)"
cargo test -q --offline -p farmer-core --test parallel_matrix

echo "==> parallel hammer (8 threads vs sequential oracle)"
cargo test -q --offline --test stress parallel_hammer

echo "==> CLI --stats-json smoke (output must parse with support::json)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/farmer synth --preset custom --rows 20 --genes 50 --out "$tmp/m.csv"
./target/release/farmer discretize --in "$tmp/m.csv" --method equal-depth:4 --out "$tmp/m.txt"
./target/release/farmer mine --in "$tmp/m.txt" --min-sup 3 --stats-json > "$tmp/stats.json"
grep -q '"nodes_visited"' "$tmp/stats.json"
grep -q '"stop": "completed"' "$tmp/stats.json"
# a budgeted run must still exit 0 and report the truncation
./target/release/farmer mine --in "$tmp/m.txt" --node-budget 5 --stats-json > "$tmp/trunc.json"
grep -q '"stop": "budget"' "$tmp/trunc.json"
# parallel run reports the scheduler block (per-worker nodes, steals)
./target/release/farmer mine --in "$tmp/m.txt" --min-sup 3 --threads 2 --stats-json > "$tmp/par.json"
grep -q '"scheduler"' "$tmp/par.json"
grep -q '"peak_arena_depth"' "$tmp/par.json"
# unknown flags (here a removed one) fail loudly, naming the flag
if ./target/release/farmer mine --in "$tmp/m.txt" --memo-capacity 1 \
  > /dev/null 2> "$tmp/unknown.err"; then
  echo "farmer mine accepted the unknown flag --memo-capacity" >&2
  exit 1
fi
grep -q -- '--memo-capacity' "$tmp/unknown.err"

echo "==> trace smoke (--trace-out / --metrics-out / stats trace block)"
./target/release/farmer mine --in "$tmp/m.txt" --min-sup 3 --threads 2 \
  --trace-out "$tmp/trace.json" --metrics-out "$tmp/metrics.prom" \
  --stats-json > "$tmp/traced.json"
# the Chrome trace shape is pinned by the CLI's trace_exports_are_valid
# test; here the Prometheus text must expose every expected metric family
for family in farmer_span_seconds_total farmer_span_calls_total \
  farmer_node_visit_ns_bucket farmer_fused_scan_ns_count \
  farmer_lower_bound_ns_sum farmer_trace_dropped_events_total; do
  grep -q "$family" "$tmp/metrics.prom"
done
# the stats report folds the trace block in (and the pruned parity key)
grep -q '"trace"' "$tmp/traced.json"
grep -q '"dropped_events"' "$tmp/traced.json"
grep -q '"confidence_floor"' "$tmp/traced.json"

echo "==> store & serve smoke (mine --save-irgs -> serve -> client -> clean exit)"
./target/release/farmer mine --in "$tmp/m.txt" --min-sup 3 \
  --save-irgs "$tmp/m.fgi" > "$tmp/mine_save.txt"
grep -q 'rule groups to' "$tmp/mine_save.txt"
# at --threads 2 MineLB runs on the worker threads (lower bounds are on
# by default); the artifact must not change by a byte
for t in 1 2; do
  ./target/release/farmer mine --in "$tmp/m.txt" --min-sup 3 --threads "$t" \
    --save-irgs "$tmp/m_t$t.fgi" > /dev/null
done
cmp "$tmp/m_t1.fgi" "$tmp/m_t2.fgi"
# offline query against the saved artifact answers without a server
./target/release/farmer query "$tmp/m.fgi" --items 0,1 --limit 3 > "$tmp/query.txt"
grep -q 'classified as' "$tmp/query.txt"
# serve on an ephemeral port; --idle-exit-ms lets it exit 0 by itself.
# Each server log is created before its server starts: the background
# child opens its own redirect, so the address poll below could
# otherwise read a file that does not exist yet.
: > "$tmp/serve.log"
./target/release/farmer serve "$tmp/m.fgi" --workers 2 --idle-exit-ms 2000 \
  --log-out "$tmp/access.jsonl" --slow-ms 0 > "$tmp/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's|.*at http://||p' "$tmp/serve.log" | head -n1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ]
client=./target/release/fgi-client
# the versioned API; paths outside /v1 are 404s
"$client" "$addr" /v1/healthz --expect 200 | grep -q '"status":"ok"'
"$client" "$addr" "/v1/classify?items=0,1" --expect 200 | grep -q '"class"'
"$client" "$addr" /v1/classify --batch "0,1;2" --expect 200 | grep -q '"predictions"'
"$client" "$addr" "/v1/query?items=0,1&limit=2" --expect 200 | grep -q '"groups"'
"$client" "$addr" /v1/nope --expect 404 | grep -q '"code":"not_found"'
"$client" "$addr" /healthz --expect 404 | grep -q '"code":"not_found"'
# build + artifact versions ride along in the health report
"$client" "$addr" /v1/healthz --expect 200 | grep -q '"artifact_version":2'
# both admin endpoints are admin-disabled when no token was configured
"$client" "$addr" /v1/admin/reload --post --expect 403 | grep -q 'admin_disabled'
"$client" "$addr" /v1/admin/stats --expect 403 | grep -q 'admin_disabled'
# every response carries a request id, and the access log echoes it
rid="$("$client" "$addr" /v1/healthz --print-header X-Request-Id)"
[ -n "$rid" ]
grep -q "\"id\":\"$rid\"" "$tmp/access.jsonl"
"$client" "$addr" /v1/metrics --expect 200 > "$tmp/serve_metrics.prom"
for family in farmer_serve_request_ns farmer_serve_classify_ns \
  farmer_serve_healthz_ns farmer_serve_requests_total \
  farmer_serve_errors_total farmer_serve_shed_total farmer_serve_inflight; do
  grep -q "$family" "$tmp/serve_metrics.prom"
done
# two frames of the live dashboard render without a token
"$client" watch "$addr" --frames 2 --interval-ms 100 > "$tmp/watch.txt"
grep -q 'req/s' "$tmp/watch.txt"
wait "$serve_pid"
grep -q 'shut down cleanly' "$tmp/serve.log"

echo "==> hot-reload smoke (authenticated reload + SIGHUP, old artifact keeps serving)"
./target/release/farmer mine --in "$tmp/m.txt" --min-sup 4 \
  --save-irgs "$tmp/hot.fgi" > /dev/null
: > "$tmp/hot.log"
./target/release/farmer serve "$tmp/hot.fgi" --workers 2 --admin-token sekrit \
  --idle-exit-ms 4000 > "$tmp/hot.log" &
hot_pid=$!
hot_addr=""
for _ in $(seq 1 100); do
  hot_addr="$(sed -n 's|.*at http://||p' "$tmp/hot.log" | head -n1)"
  [ -n "$hot_addr" ] && break
  sleep 0.1
done
[ -n "$hot_addr" ]
groups_before="$("$client" "$hot_addr" /v1/healthz --expect 200 \
  | sed -n 's/.*"groups":\([0-9]*\).*/\1/p')"
# remine with a lower support floor: strictly more groups land on disk
./target/release/farmer mine --in "$tmp/m.txt" --min-sup 2 \
  --save-irgs "$tmp/hot.fgi" > /dev/null
# unauthenticated reload is refused, authenticated one swaps
"$client" "$hot_addr" /v1/admin/reload --post --expect 401 > /dev/null
"$client" "$hot_addr" /v1/admin/reload --post --token sekrit --expect 200 \
  | grep -q '"reloaded":true'
"$client" "$hot_addr" /v1/healthz --expect 200 | grep -q '"epoch":1'
groups_after="$("$client" "$hot_addr" /v1/healthz --expect 200 \
  | sed -n 's/.*"groups":\([0-9]*\).*/\1/p')"
[ "$groups_after" -gt "$groups_before" ]
# /v1/admin/stats shares the reload auth and has seen that reload
"$client" "$hot_addr" /v1/admin/stats --expect 401 | grep -q 'unauthorized'
"$client" "$hot_addr" /v1/admin/stats --token sekrit --expect 200 \
  > "$tmp/stats.json"
grep -q '"uptime_ns"' "$tmp/stats.json"
grep -q '"serve_reloads":1' "$tmp/stats.json"
# SIGHUP hot-reloads from disk too
kill -HUP "$hot_pid"
for _ in $(seq 1 100); do
  grep -q 'SIGHUP: reloaded' "$tmp/hot.log" && break
  sleep 0.1
done
"$client" "$hot_addr" /v1/healthz --expect 200 | grep -q '"epoch":2'
wait "$hot_pid"
grep -q 'shut down cleanly' "$tmp/hot.log"

echo "==> streaming pipeline smoke (ingest -> remine -> hot publish)"
./target/release/farmer mine --in "$tmp/m.txt" --min-sup 3 \
  --save-irgs "$tmp/live.fgi" > /dev/null
: > "$tmp/live.log"
./target/release/farmer serve "$tmp/live.fgi" --workers 2 \
  --watch --base "$tmp/m.txt" --journal "$tmp/live.fgd" \
  --remine-debounce-ms 100 --min-sup 3 --class 1 \
  --admin-token sekrit --idle-exit-ms 4000 > "$tmp/live.log" &
live_pid=$!
live_addr=""
for _ in $(seq 1 100); do
  live_addr="$(sed -n 's|.*at http://||p' "$tmp/live.log" | head -n1)"
  [ -n "$live_addr" ] && break
  sleep 0.1
done
[ -n "$live_addr" ]
"$client" "$live_addr" /v1/healthz --expect 200 | grep -q '"epoch":0'
# journal-side ingest from a separate process; the watch daemon picks
# it up, remines, publishes atomically, and hot-swaps the served index
./target/release/farmer ingest --journal "$tmp/live.fgd" --base "$tmp/m.txt" \
  --items 0,1,2 --label 1 | grep -q 'appended 1 row'
for _ in $(seq 1 100); do
  "$client" "$live_addr" /v1/healthz --expect 200 | grep -q '"epoch":1' && break
  sleep 0.1
done
"$client" "$live_addr" /v1/healthz --expect 200 | grep -q '"epoch":1'
# the daemon hands the server the groups it has just published: the
# swap counts as one reload attempt and reports the artifact's version
"$client" "$live_addr" /v1/healthz --expect 200 | grep -q '"artifact_version":2'
# the republished artifact still answers, and the admin stats carry
# the pipeline block (journal rows, generation, publish counters)
"$client" "$live_addr" "/v1/classify?items=0,1" --expect 200 | grep -q '"class"'
"$client" "$live_addr" /v1/admin/stats --token sekrit --expect 200 \
  > "$tmp/live_stats.json"
grep -q '"reload_attempts":1' "$tmp/live_stats.json"
grep -q '"pipeline"' "$tmp/live_stats.json"
grep -q '"generation":1' "$tmp/live_stats.json"
wait "$live_pid"
grep -q 'shut down cleanly' "$tmp/live.log"

echo "==> perfbench builds against the current API (its unit tests; release)"
# perfbench is a workspace of its own, so the workspace build above does
# not compile it; without this step an API change could break the
# benchmark unnoticed
cargo test -q --offline --release --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (every target; warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc (broken, ambiguous or private doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> bench smoke (1 sample, substrates + serving)"
FARMER_BENCH_SAMPLES=1 cargo bench --offline -p farmer-bench --bench substrates
FARMER_BENCH_SAMPLES=1 cargo bench --offline -p farmer-bench --bench serving

echo "==> live perf guards (scheduler scaling, serving, incremental remine; release)"
# One test thread: serving_guard's req/s hammer must not run beside its
# artifact-size test, which mines on the other core.
cargo test -q --offline --release -p farmer-bench --test scheduler_guard \
  --test serving_guard --test pipeline_guard -- --ignored --test-threads=1

echo "==> verify OK"
