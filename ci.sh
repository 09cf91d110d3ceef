#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, and the full test suite.
# Everything runs without network access — the workspace has no registry
# dependencies (see crates/proptest and crates/criterion for the
# vendored dev-dependency shims).
set -euo pipefail
cd "$(dirname "$0")"

# Run one filtered test lane: `lane <cargo test arguments>`. A filter
# that matches nothing (a renamed or moved test) makes cargo print
# "running 0 tests" and succeed, so a lane fails when it ran no test, or
# fewer tests than the names it lists after `--`.
lane() {
    local out ran names=0 after=0 arg
    for arg in "$@"; do
        if [ "$after" = 1 ]; then names=$((names + 1)); fi
        if [ "$arg" = "--" ]; then after=1; fi
    done
    out="$(cargo test -q "$@" 2>&1)" || { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out"
    ran="$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' <<< "$out" |
        awk '{ s += $1 } END { print s + 0 }')"
    if [ "$ran" -eq 0 ] || [ "$ran" -lt "$names" ]; then
        echo "error: 'cargo test $*' ran $ran test(s) for $names name(s)" >&2
        return 1
    fi
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test perfbench (the benchmark builds and checks answers against this API)"
# perfbench is a workspace of its own, built by path against these
# crates; testing it here makes an API change that breaks the benchmark,
# or its answer-checker self-tests, fail CI instead of the benchmark run.
# Its build output goes under the root target directory.
cargo test --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> guard: build artifacts must not be tracked"
if [ -n "$(git ls-files target/)" ]; then
    echo "error: files under target/ are tracked in git" >&2
    exit 1
fi

echo "==> fast lane: optimizer pipeline tests"
lane -p uniq-core pipeline

echo "==> fast lane: cost model tests"
cargo test -q -p uniq-cost

echo "==> fast lane: physical planning (fixed plans keep their work, cost-based plans do no more)"
lane -p uniq-bench e16

echo "==> fast lane: columnar kernels, the store kept current across writes, columnar/row agreement"
lane -p uniq-engine columnar
# Word-range filters are exact at every domain edge (the i64 extremes,
# literals outside a column's bounds or dictionary, NULL literals and an
# all-NULL column); code-word keys are exact on NULLs, '' and the i64
# extremes, and past the inline width; the dense join, group and
# DISTINCT tables are exact on NULL beside code 0 and integer 0, '' and
# negative integers, leave too-wide domains to the hashed tables, and
# follow domains an INSERT moves; the direct-index kernel guards wide
# integer spans; aggregation folds each item in its own pass over dense
# groups and the COUNT(DISTINCT) bitmap; the one keyed hasher spreads
# keys that differ only in their high bits; the set operations' hash
# paths keep first appearances in order without copying rows; and the
# kernels allocate per query, not per tuple, in tables sized by their
# input (the root binary; perfbench's statements book the hashed
# tables' counters in columnar_agreement below).
lane -p uniq-engine -- \
    encoded_filters_are_exact_at_the_domain_edges \
    code_word_keys_are_exact_on_nulls_empty_strings_and_integer_extremes \
    keys_wider_than_the_inline_words_spill_and_stay_exact \
    dense_tables_are_exact_on_nulls_empty_strings_and_negative_integers \
    dense_tables_follow_domains_that_move_without_a_second_analyze \
    direct_index_int_guards_wide_spans \
    dense_groups_and_the_bitmap_fold_each_item_in_its_own_pass \
    sum_wraps_and_avg_truncates_the_wrapped_sum \
    keys_differing_only_in_high_bits_spread_over_buckets_and_tags \
    builders_in_one_process_hash_alike \
    hash_paths_keep_first_appearances_in_order
cargo test -q -p uniqueness --test kernel_allocations
# The column store is refreshed by every write, DDL included, so the
# kernels keep serving without a second ANALYZE; a reader pinned to an
# older snapshot falls back to rows; one panicking subscription sink
# drops only itself and leaves the write path working.
lane -p uniq-engine -- \
    refresh_matches_a_rebuild_and_shares_untouched_tables \
    column_store_stays_current_across_inserts \
    create_index_keeps_other_tables_columnar \
    create_table_keeps_columnar_and_encodes_the_new_table \
    new_dictionary_strings_keep_string_comparisons_exact \
    a_snapshot_older_than_the_store_runs_on_rows \
    concurrent_readers_of_a_covered_aggregate_see_published_states \
    a_panicking_sink_drops_only_its_subscription
cargo test -q -p uniqueness --test columnar_agreement
lane -p uniq-bench e18

echo "==> fast lane: snapshot storage (shared row chunks, index overlays, no snapshot chain)"
# A write appends into row chunks the snapshots share and copies only
# small index overlays, never the whole table; every snapshot, pinned or
# not, answers like a database rebuilt from its own rows across chunk
# boundaries and overlay folds, and the store keeps no replaced snapshot
# alive.
lane -p uniq-catalog -- \
    views_index_iterate_and_range_across_chunks \
    clones_share_chunks_and_copy_one_only_when_they_diverge \
    a_shared_base_takes_no_write_until_the_overlay_folds \
    keys_and_parents_only_in_the_overlay_are_enforced \
    insert_unchecked_keeps_the_first_row_across_base_and_overlay \
    table_delta_spanning_a_seal_is_the_appended_rows \
    a_pinned_snapshot_keeps_no_later_snapshot_alive \
    index_walk_merges_both_layers_lazily_in_key_order
cargo test -q -p uniqueness --test index_agreement
cargo test -q -p uniqueness --test snapshot_delta

echo "==> fast lane: secondary indexes (sarg extraction, index paths, agreement)"
lane -p uniq-cost sarg
lane -p uniq-catalog index
lane -p uniq-engine index
# The plan carries each index access; before one runs, the executor checks
# only that the live catalog still holds the planned index, and otherwise
# runs the planned full scan, join method or scan-sort-cut. An early-stop
# walk under LIMIT 0 reads no row.
lane -p uniq-engine -- \
    stale_index_license_falls_back_to_the_full_scan \
    a_probe_whose_index_is_gone_runs_the_planned_join_method \
    an_index_of_the_same_name_over_other_columns_is_not_probed \
    an_early_stop_whose_index_is_gone_scans_sorts_and_cuts \
    order_by_index_prefix_limit_stops_early
cargo test -q -p uniqueness --test index_agreement
lane -p uniq-bench e19
# The priced access choice: on perfbench-shaped data, unselective index
# blocks are licensed columnar and keep their index licenses, a unique
# point lookup keeps its index scan on rows, the early-stop block is
# priced at the limit's rows and keeps its plan, and blocks carrying both
# licenses answer alike served, on the row path and unoptimized, after
# an INSERT and on a snapshot older than the column store.
lane -p uniqueness --test index_agreement -- \
    unselective_index_blocks_are_licensed_columnar_and_keep_their_index_licenses \
    a_unique_point_lookup_keeps_its_index_scan_and_no_columnar_license \
    the_early_stop_block_is_priced_at_the_limits_rows_and_keeps_its_plan \
    blocks_with_both_licenses_agree_served_on_rows_and_unoptimized

echo "==> fast lane: U-semiring proof checker (soundness + adversarial corpus)"
cargo test -q -p uniq-proof
cargo test -q -p uniqueness --test proof_soundness

echo "==> fast lane: planned/unoptimized agreement on random instances"
cargo test -q -p uniqueness --test plan_agreement

echo "==> fast lane: aggregation / Top-K (elision kernels + agreement suite)"
lane -p uniq-engine agg
cargo test -q -p uniqueness --test agg_agreement
lane -p uniq-bench e23

echo "==> fast lane: subscriptions (delta terms on the block pipeline, tiers, snapshot deltas)"
lane -p uniq-engine ivm
# A view compiles through the shared plan cache and runs every whole
# query on the serving path: after ANALYZE its recompute round is a
# cached columnar read with no rebuild, such a round saves no rows, and
# ANALYZE leaves views serving while DDL rebuilds them.
lane -p uniq-engine -- \
    after_analyze_an_aggregate_view_recomputes_on_the_served_plan \
    a_recompute_round_saves_no_rows_on_the_encoded_access \
    ddl_rebuilds_views_and_analyze_leaves_them_serving
cargo test -q -p uniqueness --test ivm_agreement
cargo test -q -p uniqueness --test snapshot_delta

echo "==> fast lane: wire codec + server end-to-end tests"
cargo test -q -p uniq-server

echo "==> fast lane: uniqd multi-client smoke test (loopback, ephemeral port)"
# Spawn the daemon on port 0, parse the actual port from its banner,
# then hammer it with a writer and two readers concurrently. The hard
# timeout guards CI against a wedged daemon; everything is loopback.
cargo build -q -p uniq-server --bins
SMOKE_LOG="$(mktemp)"
./target/debug/uniqd --port 0 > "$SMOKE_LOG" &
UNIQD_PID=$!
trap 'kill "$UNIQD_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    grep -q "uniqd listening on" "$SMOKE_LOG" && break
    sleep 0.1
done
UNIQD_ADDR="$(sed -n 's/^uniqd listening on //p' "$SMOKE_LOG")"
if [ -z "$UNIQD_ADDR" ]; then
    echo "error: uniqd never printed its listen address" >&2
    exit 1
fi
CLI=./target/debug/uniq-cli
timeout 60 "$CLI" --addr "$UNIQD_ADDR" \
    -e "INSERT INTO SUPPLIER VALUES (401, 'Smoke', 'Toronto', 7, 'Active');" &
WRITER=$!
for i in 1 2; do
    timeout 60 "$CLI" --addr "$UNIQD_ADDR" \
        -e "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'" \
        > /dev/null &
    eval "READER$i=\$!"
done
wait "$WRITER" "$READER1" "$READER2"
# The write must be visible to a fresh snapshot, with a proof-carrying
# EXPLAIN served over the same wire.
timeout 60 "$CLI" --addr "$UNIQD_ADDR" \
    -e "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 401" | grep -q Smoke
EXPLAIN_OUT="$(timeout 60 "$CLI" --addr "$UNIQD_ADDR" --explain \
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO")"
grep -q "proof=✓" <<< "$EXPLAIN_OUT"
# Before ANALYZE the one plan section is the fixed plan, labels only.
grep -q "Physical plan:" <<< "$EXPLAIN_OUT"
# After ANALYZE the EXPLAIN served over the wire shows the cost-based
# plan the daemon runs, with estimated and actual rows per operator,
# and no second plan section. ANALYZE builds the column store and the
# daemon licenses the columnar kernels with no flag, so the covered
# join block runs columnar.
timeout 60 "$CLI" --addr "$UNIQD_ADDR" --analyze > /dev/null
EXPLAIN_OUT="$(timeout 60 "$CLI" --addr "$UNIQD_ADDR" --explain \
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO")"
grep -q "Cost-based plan (est/act rows)" <<< "$EXPLAIN_OUT"
grep -q "exec=columnar" <<< "$EXPLAIN_OUT"
if grep -q "Physical plan:" <<< "$EXPLAIN_OUT"; then
    echo "error: EXPLAIN after ANALYZE prints a second plan section" >&2
    exit 1
fi
# Aggregation round-trip over the wire: with the smoke INSERT above,
# Toronto has the most suppliers, so the top GROUP BY row names it.
timeout 60 "$CLI" --addr "$UNIQD_ADDR" \
    -e "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SCITY ORDER BY N DESC LIMIT 1" \
    | grep -q "Toronto"
echo "==> fast lane: subscription deltas over the wire (one writer, two subscribers)"
# Two subscribers register the same set-tier view, a writer inserts one
# PARTS row, and both must receive the pushed ViewDelta before their
# --timeout-ms expires (uniq-cli exits 1 on a missed delta, so `wait`
# propagates delivery failure). Then the unsubscribe path must answer.
SUB_SQL="SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO"
for i in 1 2; do
    timeout 60 "$CLI" --addr "$UNIQD_ADDR" \
        --subscribe "$SUB_SQL" --deltas 1 --timeout-ms 30000 > /dev/null 2>&1 &
    eval "SUBSCRIBER$i=\$!"
done
sleep 1   # let both subscriptions register before the write publishes
timeout 60 "$CLI" --addr "$UNIQD_ADDR" \
    -e "INSERT INTO PARTS VALUES (401, 1, 'Delta', 491, 'RED');"
wait "$SUBSCRIBER1" "$SUBSCRIBER2"
kill "$UNIQD_PID" 2>/dev/null || true
trap - EXIT
rm -f "$SMOKE_LOG"

echo "==> cargo build --release"
cargo build --release

echo "==> uniq-bench unit tests in release (a timing test the optimizer folds away fails here)"
cargo test -q --release -p uniq-bench --lib

echo "==> E22 in release: subscription oracle rounds, maintenance work bars, publish time"
# Every view equals a full recompute after every statement, set-tier
# maintenance work stays >= 10x under recompute and flat when the tables
# double, and a one-row INSERT publishes within 1.5x when its table
# doubles; the binary asserts all three. An experiment name report does
# not know must fail instead of running nothing.
./target/release/report e22
# E24 asserts the priced access choice's plan facts on perfbench's data
# (statements 3-5 encoded with their index licenses, the other analytic
# statements, the oltp shapes and the views as before) and that the
# analytic statements answer alike served, on rows and unoptimized; its
# prices and timings are printed, not asserted.
./target/release/report e24
if ./target/release/report e99 > /dev/null 2>&1; then
    echo "error: 'report e99' exited 0 for an unknown experiment" >&2
    exit 1
fi

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "CI green."
