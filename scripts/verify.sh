#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must pass before merging.
# Run from the repository root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate must leave the working tree as it found it: whatever a step
# writes belongs under an ignored directory (target/), not in the tree.
tree_before=$(git status --porcelain)

echo "==> cargo build --release --all-features (warnings are errors)"
# Fail on any compiler warning. The deprecation shims retired in PR 8 took
# the allow-list with them: the tree must build warning-clean.
build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT
cargo build --release --all-features 2>&1 | tee "$build_log"
if grep "^warning" "$build_log" >/dev/null; then
    echo "verify: FAIL - compiler warnings:"
    grep "^warning" "$build_log"
    exit 1
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -p platod2gl-{gnn,samtree,fenwick,cuckoo,storage,graph,server,obs,pipeline,temporal} and tests/temporal.rs --release (the code the benchmark runs)"
# The gnn slice kernels' equivalence and gradient tests (and
# `both_builds_agree_bit_for_bit`, the baseline and AVX2 builds of the
# product kernels compared bit for bit: it means something only where the
# kernels vectorise), the samtree
# fixed-width CP-ID scan's properties, the bounded-slack growth rule of
# the leaf columns (samtree id lists and timestamp columns, fenwick
# tables, the storage memory split and its pinned per-tree figure: the
# rule's step arithmetic runs at opt-level 3 in the benchmark), the txn
# validator's equivalence
# proptest, the server's per-shard sample-lane tests (bit parity,
# concurrent callers, trace re-anchoring, and
# `sample_by_owner_draws_in_order_and_stitches_by_position`: one draw per
# request, the first group on the caller, a group's own panic message
# reaching it) and its per-shard txn-validation
# tests (the sharded-phase-1 proptest against the whole-txn walk, and the
# validation lanes' trace), the obs thread-striped span ring and
# histograms (exact totals and completion order under four threads, a
# lane's span chain across threads), the pipeline's cache rotation and
# golden block digests, and the vertex directory (the cuckoo eviction and
# growth core, the storage directory's model proptest against a `HashMap`,
# the `delete_source` race against inserts and readers of one tree while
# its stripe churns), and the windowed path (the temporal crate's window
# and decay tests, and tests/temporal.rs with its zero-future-edge-leak
# checks, both reading the leaves' CP-ID timestamp columns through
# `IdList`'s width-matched reads) must see the code the benchmark runs:
# hot loops vectorise only at opt-level 3 and lanes and stripes race
# differently, so the debug run above tests a different program.
cargo test -q -p platod2gl-gnn -p platod2gl-samtree -p platod2gl-fenwick -p platod2gl-cuckoo -p platod2gl-storage \
    -p platod2gl-graph -p platod2gl-server -p platod2gl-obs -p platod2gl-pipeline -p platod2gl-temporal \
    --release 2>&1 | tee "$build_log"
cargo test -q -p platod2gl --release --test temporal 2>&1 | tee -a "$build_log"
if grep "^warning" "$build_log" >/dev/null; then
    echo "verify: FAIL - compiler warnings in the release test build:"
    grep "^warning" "$build_log"
    exit 1
fi

echo "==> standing benchmark (perf/ is its own workspace: build, unit tests, every workload at smoke size)"
# perf/ compiles against the crates' public API from outside the workspace,
# so a signature change that breaks it passes every gate above. --locked:
# a workspace dependency edge that drifted from perf/Cargo.lock fails here,
# in cargo's words, instead of being rewritten into the lockfile.
cargo build --release --locked --manifest-path perf/Cargo.toml
cargo test -q --locked --manifest-path perf/Cargo.toml
if ! cargo run --release --quiet --locked --manifest-path perf/Cargo.toml -- suite --smoke >"$build_log" 2>&1; then
    echo "verify: FAIL - perf suite --smoke:"
    tail -n 40 "$build_log"
    exit 1
fi

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> example runs (quickstart, checkpoint_reshard, crash_recovery, fraud_detection, live_recommendation must exit 0)"
# A built example that panics passes every other gate. ~1 s for all five;
# streaming_updates (~8 s) stays build-only.
for example in quickstart checkpoint_reshard crash_recovery fraud_detection live_recommendation; do
    if ! cargo run -q -p platod2gl --release --example "$example" >"$build_log" 2>&1; then
        echo "verify: FAIL - example $example exited non-zero:"
        tail -n 40 "$build_log"
        exit 1
    fi
done

echo "==> pipeline smoke test (train_pipeline example, reduced size; blocks must come out compacted)"
pipeline_out=$(EPOCHS=2 VERTICES=200 cargo run -p platod2gl --release --example train_pipeline)
echo "$pipeline_out"
# A block that degenerated to the padded form holds as many rows as slots.
if ! grep -qE '^block: [0-9]+ slots -> [0-9]+ nodes \([1-9][0-9]*% compacted\)' <<<"$pipeline_out"; then
    echo "verify: FAIL - train_pipeline reported no block compaction"
    exit 1
fi

echo "==> observability smoke test (obs_snapshot example)"
obs_out=$(cargo run -p platod2gl --release --example obs_snapshot 2>/dev/null)
for needle in '"samtree.leaf_ops"' '"wal.appends"' '"cluster.requests"' \
    '"pipeline.batches"' 'plato_cluster_requests_total'; do
    if ! grep -qF "$needle" <<<"$obs_out"; then
        echo "verify: FAIL — obs snapshot missing $needle"
        exit 1
    fi
done

echo "==> admin plane smoke test (admin_serve example, std TcpStream probes)"
admin_out=$(cargo run -p platod2gl --release --example admin_serve 2>/dev/null)
for needle in 'slow-op log captured a traced sample request' \
    'GET /healthz -> 503' 'GET /healthz -> 200 (healed)' \
    'GET /metrics -> 200' 'GET /debug/memory -> 200' \
    'all endpoints probed, server shut down'; do
    if ! grep -qF "$needle" <<<"$admin_out"; then
        echo "verify: FAIL — admin smoke missing: $needle"
        exit 1
    fi
done

echo "==> distributed smoke test (remote_train example: TCP graph server + remote trainer)"
rpc_out=$(cargo run -p platod2gl --release --example remote_train 2>/dev/null)
for needle in 'graph server listening on' \
    'remote sampling bit-identical to local' \
    'remote update batch applied' \
    'trainer survived' \
    'remote heal drained' \
    'server shut down cleanly'; do
    if ! grep -qF "$needle" <<<"$rpc_out"; then
        echo "verify: FAIL — distributed smoke missing: $needle"
        exit 1
    fi
done

echo "==> txn crash-matrix smoke (txn_crash_sweep example: every crash point, fixed workload)"
txn_out=$(cargo run -p platod2gl --release --example txn_crash_sweep 2>/dev/null)
for needle in 'crash at wal-append: recovered pre-txn graph' \
    'crash at txn-after-commit: recovered post-txn graph' \
    'crash matrix: 7/7 crash points verified'; do
    if ! grep -qF "$needle" <<<"$txn_out"; then
        echo "verify: FAIL — txn crash-matrix smoke missing: $needle"
        exit 1
    fi
done

echo "==> fleet smoke test (fleet_train example: 3-server fleet + live join/migration)"
fleet_out=$(cargo run -p platod2gl --release --example fleet_train 2>/dev/null)
for needle in 'fleet client connected: 3 servers' \
    'partition-routed ingest' \
    'epoch 2 trained through a live migration' \
    '0 degraded' \
    'joiner owns its migrated partitions and serves their data' \
    'fleet admin /debug/trace: one stitched tree spanning' \
    'fleet admin /fleet/metrics: merged exposition' \
    'fleet shut down cleanly'; do
    if ! grep -qF "$needle" <<<"$fleet_out"; then
        echo "verify: FAIL — fleet smoke missing: $needle"
        exit 1
    fi
done

echo "==> fleet scale-out trail (report_fleet -> target/bench/BENCH_7.json, speedup_3v1 >= 1.5)"
cargo run -p platod2gl-bench --release --bin report_fleet
if ! grep -qF '"bench":"fleet_scaleout"' target/bench/BENCH_7.json; then
    echo "verify: FAIL — target/bench/BENCH_7.json missing or malformed"
    exit 1
fi
speedup=$(sed -n 's/.*"speedup_3v1":\([0-9.]*\).*/\1/p' target/bench/BENCH_7.json)
if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "verify: FAIL — fleet speedup_3v1 = $speedup < 1.5"
    exit 1
fi

echo "==> tracing-overhead trail (report_obs_overhead -> target/bench/BENCH_9.json, overhead_ratio >= 0.9)"
cargo run -p platod2gl-bench --release --bin report_obs_overhead
if ! grep -qF '"bench":"obs_overhead"' target/bench/BENCH_9.json; then
    echo "verify: FAIL — target/bench/BENCH_9.json missing or malformed"
    exit 1
fi
obs_ratio=$(sed -n 's/.*"overhead_ratio":\([0-9.]*\).*/\1/p' target/bench/BENCH_9.json)
if ! awk -v r="$obs_ratio" 'BEGIN { exit !(r >= 0.9) }'; then
    echo "verify: FAIL — tracing overhead_ratio = $obs_ratio < 0.9 (tracing costs > 10%)"
    exit 1
fi

echo "==> temporal smoke test (temporal_link_prediction example: windowed training + fleet parity)"
temporal_out=$(cargo run -p platod2gl --release --example temporal_link_prediction 2>/dev/null)
for needle in 'time-ordered negative redraws' \
    'time-respecting k-hop: 0 future-edge leaks' \
    'temporal training beats shuffled-time ablation' \
    'fleet windowed epochs bit-identical to local' \
    'recency decay:' \
    'temporal link prediction complete'; do
    if ! grep -qF "$needle" <<<"$temporal_out"; then
        echo "verify: FAIL — temporal smoke missing: $needle"
        exit 1
    fi
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
# A deleted public name that a doc comment still links to fails here
# instead of rotting as an unresolved link.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> line, pub fn and config-field counts (informational: what a simplicity PR reports before/after)"
./scripts/loc.sh

tree_after=$(git status --porcelain)
if [ "$tree_before" != "$tree_after" ]; then
    echo "verify: FAIL — the run changed the working tree:"
    diff <(echo "$tree_before") <(echo "$tree_after") || true
    exit 1
fi

echo "verify: all gates passed"
