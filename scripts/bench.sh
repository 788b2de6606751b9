#!/usr/bin/env bash
# bench.sh — run the headline microbenchmarks behind the PRs' performance
# claims and capture benchstat-ready output plus JSON summaries.
#
# Usage: scripts/bench.sh [pr1-out.json] [pr2-out.json] [pr4-out.json] [pr5-out.json] [pr6-out.json] [pr7-out.json] [pr8-out.json] [pr9-out.json] [pr10-out.json]
# Stage 1: the four PR-1 hot-path microbenchmarks -> BENCH_PR1.json.
# Stage 2: the PR-2 service-throughput benchmark (batches/sec at 1, 2, and
# 4 clients over loopback TCP) -> BENCH_PR2.json.
# Stage 3: the PR-4 cluster-throughput benchmark (batches/sec routed across
# 1, 2, and 3 emulate-time loopback nodes) -> BENCH_PR4.json, plus a check
# that the 3-node aggregate beats the single node.
# Stage 4: the PR-5 materialized-batch-cache comparison (uncached vs cached
# service throughput at 1..8 clients, plus the pooled-encode benchmarks)
# -> BENCH_PR5.json, plus a check that cached clients=4 is at least 2x the
# uncached clients=1 baseline.
# Stage 5: the PR-6 split-point sample-cache comparison on the augmented
# workload (every iteration is a fresh epoch, so the batch cache never hits)
# -> BENCH_PR6.json, plus a check that the sampleCached series is at least
# 5x the cold series.
# Stage 6: the PR-7 warm-restart comparison (fresh server per iteration,
# cold recompute vs a disk directory warmed once) -> BENCH_PR7.json, plus a
# check that warmRestart is at least 5x cold.
# Stage 7: the PR-8 straggler-tail comparison (p99 epoch latency across a
# 3-node cluster with one degraded node, hedged vs unhedged) ->
# BENCH_PR8.json, plus a check that hedging cuts the p99 at least 2x.
# Stage 8: the PR-9 closed-loop balancer comparison (aggregate throughput of
# an imbalanced 3-node emulate cluster whose busiest node pays ~3x per
# batch, autotune off vs on) -> BENCH_PR9.json, plus a check that the
# balancer lifts throughput at least 1.5x.
# Stage 9: the PR-10 multi-tenancy scalability suite -> BENCH_PR10.json:
# per-session footprint (bytes and goroutines, idle and streaming), aggregate
# cache-served throughput at 8/64/256/1024 concurrent sessions, aggregate
# cold RealData throughput at 8/64/256 sessions each computing its own epoch
# on the shared worker pool (with peak goroutines and heap), and tenant
# fairness with one adversarial greedy tenant (Jain index, worst per-tenant
# p99). Gates: clients=256 aggregate >= 0.8x the clients=8 baseline on both
# the cached and the cold series; BenchmarkTenantFairness fails itself when
# Jain < 0.9 under the greedy tenant.
# The raw `go test -bench` output (6 repetitions, suitable for feeding to
# benchstat old.txt new.txt) is written next to each JSON as <outfile>.txt.
set -euo pipefail

cd "$(dirname "$0")/.."

# Fail loudly before any stage runs: a package that no longer builds would
# otherwise surface as a confusing mid-run awk parse of go's error text.
echo "preflight: go build ./... ..."
if ! go build ./...; then
    echo "FAIL: go build ./... failed — fix the build before benchmarking" >&2
    exit 1
fi

# require_bench FILE STAGE: a stage whose `go test -bench` output contains no
# benchmark lines produced nothing to summarize (regex typo, build failure
# swallowed by tee, benchmark renamed) — fail instead of writing empty JSON.
require_bench() {
    if ! grep -q '^Benchmark' "$1"; then
        echo "FAIL: $2 produced no benchmark lines in $1" >&2
        exit 1
    fi
}

# summarize PATTERN COLUMNS IN_TXT OUT_JSON: fold the benchmark lines matching
# PATTERN into one JSON object of per-benchmark medians (portable awk, no gawk
# extensions). ns/op is always reported; COLUMNS lists the further metrics as
# space-separated unit=json_key pairs in output order. A key with a trailing
# `?` is left out for a benchmark that never reports the unit; without it the
# key is always written (0 when absent).
summarize() {
    awk -v pat="$1" -v spec="$2" "$(cat <<'AWK'
BEGIN {
    n_cols = split(spec, cols, " ")
    for (c = 1; c <= n_cols; c++) {
        optional[c] = sub(/\?$/, "", cols[c])
        split(cols[c], kv, "=")
        unit[c] = kv[1]
        key[c] = kv[2]
    }
}
$0 ~ pat {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n_names] = name }
    ns[name] = ns[name] " " $3
    for (i = 4; i <= NF; i++)
        for (c = 1; c <= n_cols; c++)
            if ($(i+1) == unit[c]) val[name, c] = val[name, c] " " $i
}
function median(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    if (n % 2) return a[(n+1)/2]
    return (a[n/2] + a[n/2+1]) / 2
}
END {
    printf "{\n"
    for (i = 1; i <= n_names; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_op\": %s", name, median(ns[name])
        for (c = 1; c <= n_cols; c++)
            if (!optional[c] || val[name, c] != "")
                printf ", \"%s\": %s", key[c], median(val[name, c])
        printf "}%s\n", (i < n_names ? "," : "")
    }
    printf "}\n"
}
AWK
)" "$3" > "$4"
}

OUT_JSON="${1:-BENCH_PR1.json}"
OUT_TXT="${OUT_JSON%.json}.txt"
SERVE_JSON="${2:-BENCH_PR2.json}"
SERVE_TXT="${SERVE_JSON%.json}.txt"
CLUSTER_JSON="${3:-BENCH_PR4.json}"
CLUSTER_TXT="${CLUSTER_JSON%.json}.txt"
CACHE_JSON="${4:-BENCH_PR5.json}"
CACHE_TXT="${CACHE_JSON%.json}.txt"
SCACHE_JSON="${5:-BENCH_PR6.json}"
SCACHE_TXT="${SCACHE_JSON%.json}.txt"
DISK_JSON="${6:-BENCH_PR7.json}"
DISK_TXT="${DISK_JSON%.json}.txt"
STRAG_JSON="${7:-BENCH_PR8.json}"
STRAG_TXT="${STRAG_JSON%.json}.txt"
TUNE_JSON="${8:-BENCH_PR9.json}"
TUNE_TXT="${TUNE_JSON%.json}.txt"
MT_JSON="${9:-BENCH_PR10.json}"
MT_TXT="${MT_JSON%.json}.txt"

BENCHES='BenchmarkBilinearResize|BenchmarkSJPGDecode|BenchmarkUntracedEpoch|BenchmarkTracerEmit'

echo "running: $BENCHES (6 reps, -benchmem) ..."
go test -run '^$' -bench "$BENCHES" -benchmem -count=6 . | tee "$OUT_TXT"
require_bench "$OUT_TXT" "stage 1"

summarize '^Benchmark' 'B/op=B_op allocs/op=allocs_op' "$OUT_TXT" "$OUT_JSON"

echo "summary written to $OUT_JSON (raw benchstat input: $OUT_TXT)"

echo "running: BenchmarkServiceThroughput (6 reps) ..."
# Anchored so the PR-5 BenchmarkServiceThroughputCached does not pollute the
# PR-2 baseline series.
go test -run '^$' -bench '^BenchmarkServiceThroughput$' -count=6 ./internal/serve | tee "$SERVE_TXT"
require_bench "$SERVE_TXT" "stage 2"

summarize '^BenchmarkServiceThroughput/' 'batches/sec=batches_per_sec' "$SERVE_TXT" "$SERVE_JSON"

echo "summary written to $SERVE_JSON (raw benchstat input: $SERVE_TXT)"

echo "running: BenchmarkClusterThroughput (3 reps) ..."
go test -run '^$' -bench 'BenchmarkClusterThroughput' -count=3 ./internal/cluster | tee "$CLUSTER_TXT"
require_bench "$CLUSTER_TXT" "stage 3"

summarize '^BenchmarkClusterThroughput' 'batches/sec=batches_per_sec' "$CLUSTER_TXT" "$CLUSTER_JSON"

echo "summary written to $CLUSTER_JSON (raw benchstat input: $CLUSTER_TXT)"

# Scaling check: the 3-node cluster must out-serve the single node.
awk -F'[:,}]' '
/nodes=1/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) one = $(i+1) + 0 }
/nodes=3/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) three = $(i+1) + 0 }
END {
    printf "cluster scaling: nodes=1 %.1f batches/sec, nodes=3 %.1f batches/sec (%.2fx)\n", one, three, three / one
    if (!(three > one)) { print "FAIL: 3-node cluster is not faster than a single node" > "/dev/stderr"; exit 1 }
}' "$CLUSTER_JSON"

echo "running: BenchmarkServiceThroughput(Cached)? + encode benchmarks (6 reps) ..."
go test -run '^$' -bench '^(BenchmarkServiceThroughput|BenchmarkServiceThroughputCached|BenchmarkEncodeBatch|BenchmarkEncodeBatchPooled)$' \
    -benchmem -count=6 ./internal/serve | tee "$CACHE_TXT"
require_bench "$CACHE_TXT" "stage 4"

summarize '^Benchmark(ServiceThroughput|EncodeBatch)' 'batches/sec=batches_per_sec? allocs/op=allocs_op?' "$CACHE_TXT" "$CACHE_JSON"

echo "summary written to $CACHE_JSON (raw benchstat input: $CACHE_TXT)"

# Acceptance checks: cached clients=4 must be at least 2x the uncached
# clients=1 baseline, and the pooled encoder must be allocation-free.
awk -F'[:,}]' '
/"BenchmarkServiceThroughput\/clients=1"/       { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) base = $(i+1) + 0 }
/"BenchmarkServiceThroughputCached\/clients=4"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cached = $(i+1) + 0 }
/"BenchmarkEncodeBatchPooled"/                  { for (i = 1; i <= NF; i++) if ($i ~ /allocs_op/)       pooled_allocs = $(i+1) + 0 }
END {
    printf "cache scaling: uncached clients=1 %.1f batches/sec, cached clients=4 %.1f batches/sec (%.2fx)\n", base, cached, cached / base
    if (!(cached >= 2 * base)) { print "FAIL: cached clients=4 is not 2x the uncached clients=1 baseline" > "/dev/stderr"; exit 1 }
    printf "pooled encode: %d allocs/op\n", pooled_allocs
    if (pooled_allocs != 0) { print "FAIL: pooled batch encoder allocates" > "/dev/stderr"; exit 1 }
}' "$CACHE_JSON"

echo "running: BenchmarkServiceThroughputAugmented (6 reps) ..."
go test -run '^$' -bench '^BenchmarkServiceThroughputAugmented$' -count=6 ./internal/serve | tee "$SCACHE_TXT"
require_bench "$SCACHE_TXT" "stage 5"

summarize '^BenchmarkServiceThroughputAugmented/' 'batches/sec=batches_per_sec' "$SCACHE_TXT" "$SCACHE_JSON"

echo "summary written to $SCACHE_JSON (raw benchstat input: $SCACHE_TXT)"

# Acceptance check: the sample-cached augmented series must be at least 5x
# the cold series — the split-point cache's reason to exist.
awk -F'[:,}]' '
/"BenchmarkServiceThroughputAugmented\/cold"/         { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cold = $(i+1) + 0 }
/"BenchmarkServiceThroughputAugmented\/sampleCached"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cached = $(i+1) + 0 }
END {
    printf "sample cache: cold %.1f batches/sec, sampleCached %.1f batches/sec (%.2fx)\n", cold, cached, cached / cold
    if (!(cached >= 5 * cold)) { print "FAIL: sampleCached is not 5x the cold augmented baseline" > "/dev/stderr"; exit 1 }
}' "$SCACHE_JSON"

echo "running: BenchmarkServiceWarmRestart (6 reps) ..."
go test -run '^$' -bench '^BenchmarkServiceWarmRestart$' -count=6 ./internal/serve | tee "$DISK_TXT"
require_bench "$DISK_TXT" "stage 6"

summarize '^BenchmarkServiceWarmRestart/' 'batches/sec=batches_per_sec' "$DISK_TXT" "$DISK_JSON"

echo "summary written to $DISK_JSON (raw benchstat input: $DISK_TXT)"

# Acceptance check: a restart onto a warmed disk directory must stream at
# least 5x the cold-restart recompute — the persistent tier's reason to exist.
awk -F'[:,}]' '
/"BenchmarkServiceWarmRestart\/cold"/        { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) cold = $(i+1) + 0 }
/"BenchmarkServiceWarmRestart\/warmRestart"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) warm = $(i+1) + 0 }
END {
    printf "warm restart: cold %.1f batches/sec, warmRestart %.1f batches/sec (%.2fx)\n", cold, warm, warm / cold
    if (!(warm >= 5 * cold)) { print "FAIL: warmRestart is not 5x the cold restart baseline" > "/dev/stderr"; exit 1 }
}' "$DISK_JSON"

echo "running: BenchmarkStragglerTail (3 reps) ..."
# Each iteration routes a full epoch through a 3-node cluster whose busiest
# node stalls 1.5s per batch, so reps are expensive; 3 medians are enough for
# a >=2x gate.
go test -run '^$' -bench '^BenchmarkStragglerTail$' -benchtime 4x -count=3 -timeout 30m ./internal/cluster | tee "$STRAG_TXT"
require_bench "$STRAG_TXT" "stage 7"

summarize '^BenchmarkStragglerTail/' 'p99-epoch-ms=p99_epoch_ms batches/sec=batches_per_sec' "$STRAG_TXT" "$STRAG_JSON"

echo "summary written to $STRAG_JSON (raw benchstat input: $STRAG_TXT)"

# Acceptance check: hedged fetches must cut the straggler cluster's p99 epoch
# latency at least in half — the PR-8 headline claim. Output bytes are
# verified inside the benchmark itself (every epoch is compared to a healthy
# node's ground truth).
awk -F'[:,}]' '
/"BenchmarkStragglerTail\/hedge=off"/ { for (i = 1; i <= NF; i++) if ($i ~ /p99_epoch_ms/) off = $(i+1) + 0 }
/"BenchmarkStragglerTail\/hedge=on"/  { for (i = 1; i <= NF; i++) if ($i ~ /p99_epoch_ms/) on = $(i+1) + 0 }
END {
    printf "straggler tail: hedge=off p99 %.0f ms, hedge=on p99 %.0f ms (%.2fx)\n", off, on, off / on
    if (!(off >= 2 * on)) { print "FAIL: hedged fetches do not cut straggler p99 epoch latency 2x" > "/dev/stderr"; exit 1 }
}' "$STRAG_JSON"

echo "running: BenchmarkAutotuneImbalanced (3 reps) ..."
# Each iteration routes a full epoch through an imbalanced 3-node emulate
# cluster (the busiest node stalls 100ms per batch); the autotune=on series
# re-weights the ring as it goes, so 4 iterations per rep cover convergence
# plus the settled regime.
go test -run '^$' -bench '^BenchmarkAutotuneImbalanced$' -benchtime 4x -count=3 -timeout 30m ./internal/cluster | tee "$TUNE_TXT"
require_bench "$TUNE_TXT" "stage 8"

summarize '^BenchmarkAutotuneImbalanced/' 'batches/sec=batches_per_sec victim-weight=victim_weight?' "$TUNE_TXT" "$TUNE_JSON"

echo "summary written to $TUNE_JSON (raw benchstat input: $TUNE_TXT)"

# Acceptance check: the closed-loop balancer must lift the imbalanced
# cluster's aggregate throughput at least 1.5x — the PR-9 headline claim.
# Output bytes are verified inside the benchmark itself (every epoch is
# compared to ground truth).
awk -F'[:,}]' '
/"BenchmarkAutotuneImbalanced\/autotune=false"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) off = $(i+1) + 0 }
/"BenchmarkAutotuneImbalanced\/autotune=true"/  { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/) on = $(i+1) + 0 }
END {
    printf "autotune imbalance: off %.1f batches/sec, on %.1f batches/sec (%.2fx)\n", off, on, on / off
    if (!(on >= 1.5 * off)) { print "FAIL: the balancer does not lift imbalanced-cluster throughput 1.5x" > "/dev/stderr"; exit 1 }
}' "$TUNE_JSON"

echo "running: session-scalability suite (3 reps) ..."
# Footprint: 128 idle (or streaming) sessions per iteration, reporting heap
# bytes and goroutines per session. Scaling: every client holds a live
# session and re-fetches a cache-served epoch concurrently; clients=1024 is
# the O(1000)-session headline. Cold scaling: every client fetches an epoch
# nobody else wants, caches off, real pixels. Fairness: three polite tenants at 4 sessions
# each against one greedy tenant at 12; the worst per-iteration Jain index
# over per-tenant served batches is the fairness claim.
go test -run '^$' -bench 'BenchmarkSessionFootprint|BenchmarkSessionScaling|BenchmarkTenantFairness' \
    -benchtime 3x -count=3 -timeout 30m ./internal/serve | tee "$MT_TXT"
require_bench "$MT_TXT" "stage 9"

summarize '^Benchmark' \
    'batches/sec=batches_per_sec? samples/sec=samples_per_sec? peak-goroutines=peak_goroutines? peak-heap-MB=peak_heap_mb? bytes/session=bytes_per_session? goroutines/session=goroutines_per_session? jain=jain? p99-us=p99_us?' "$MT_TXT" "$MT_JSON"

echo "summary written to $MT_JSON (raw benchstat input: $MT_TXT)"

# Acceptance checks: the PR-10 headline claims. Scaling must be flat — the
# 256-session aggregate holds at least 0.8x the 8-session baseline (and the
# 1024-session series must exist: the benchmark fails internally if sessions
# die) — cached and cold alike: 256 cold sessions share the one worker pool,
# so they must not fall behind 8. Fairness needs no check here: the
# benchmark fails the go test run above when Jain < 0.9.
# Byte-identity under concurrency is asserted inside the soak/chaos tests.
awk -F'[:,}]' '
/"BenchmarkSessionScaling\/clients=8"/    { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/)  base = $(i+1) + 0 }
/"BenchmarkSessionScaling\/clients=256"/  { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/)  mid  = $(i+1) + 0 }
/"BenchmarkSessionScaling\/clients=1024"/ { for (i = 1; i <= NF; i++) if ($i ~ /batches_per_sec/)  big  = $(i+1) + 0 }
/"BenchmarkSessionScalingCold\/clients=8"/   { for (i = 1; i <= NF; i++) if ($i ~ /samples_per_sec/) cbase = $(i+1) + 0 }
/"BenchmarkSessionScalingCold\/clients=256"/ { for (i = 1; i <= NF; i++) if ($i ~ /samples_per_sec/) cmid  = $(i+1) + 0 }
/"BenchmarkTenantFairness"/               { for (i = 1; i <= NF; i++) if ($i ~ /"jain"/)           j    = $(i+1) + 0 }
END {
    printf "session scaling: clients=8 %.0f, clients=256 %.0f (%.2fx), clients=1024 %.0f batches/sec; jain %.3f\n", \
        base, mid, mid / base, big, j
    printf "cold session scaling: clients=8 %.0f, clients=256 %.0f samples/sec (%.2fx)\n", cbase, cmid, cmid / cbase
    if (!(cmid >= 0.8 * cbase)) { print "FAIL: 256 cold sessions fell below 0.8x the 8-session cold baseline" > "/dev/stderr"; exit 1 }
    if (big <= 0)            { print "FAIL: the 1024-session series produced no throughput" > "/dev/stderr"; exit 1 }
    if (!(mid >= 0.8 * base)) { print "FAIL: 256-session aggregate fell below 0.8x the 8-session baseline" > "/dev/stderr"; exit 1 }
}' "$MT_JSON"
