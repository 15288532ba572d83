#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, smoke benches.
#
# Usage: scripts/check.sh
# Run from anywhere; operates on the workspace containing this script.
#
# Every stage is named and timed; on failure the exit trap prints which
# stage died and after how long, so a red CI run names its culprit in the
# final log line instead of requiring a scroll-back.

set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STAGE="(startup)"
STAGE_START=$SECONDS

on_exit() {
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "FAILED in stage '$CURRENT_STAGE' after $((SECONDS - STAGE_START))s (exit $status)" >&2
    fi
}
trap on_exit EXIT

# stage NAME CMD... — announce, run, report wall time.
stage() {
    CURRENT_STAGE=$1
    shift
    echo "==> $CURRENT_STAGE"
    STAGE_START=$SECONDS
    "$@"
    echo "    $CURRENT_STAGE: $((SECONDS - STAGE_START))s"
}

stage "fmt" cargo fmt --check

stage "clippy" cargo clippy --workspace --all-targets -- -D warnings

stage "test" cargo test -q

# Fused kernel == parse + from_value, chunk-parallel loader == line-at-a-time
# reader for every block size and 1-4 workers, lowest bad line wins,
# arbitrary bytes never panic or hang.
stage "ingest equivalence" cargo test -q -p ssj-json --test ingest_equivalence

# Lazy-tail FP-tree == NLJ oracle on prefix-heavy batches (tail equal /
# ends inside / diverges, foreign probes, post-seal inserts), logical shape ==
# prefix tree, dense attribute order == hash-map reference.
stage "lazy-tail differential" cargo test -q -p ssj-join --test lazy_tail

# Tagged FP-tree probed with a skip mask == brute force `joins_with && tag &
# skip == 0` across every lazy-tail case, a stale order, seal and reset;
# every node's tag AND == the AND over its subtree; panes joined on arrival
# find exactly the pairs with disjoint tags (the Joiner's owner rule). A
# frozen pane's pair set == the pairs its documents carry (after resets and
# empty panes too), and where `FrozenPane::may_join` turns a probe away, the
# tree reports nothing under every skip mask.
stage "pruned-probe differential" cargo test -q -p ssj-join --test pruned_probe

# FP-tree under another batch's order (the Joiner's open pane runs under the
# previous pane's) == NLJ oracle, fast path on and off: a predicted-ubiquitous
# attribute missing from a stored document, attributes the order never saw,
# the empty order; counters fed on insert == AttrOrder::compute.
stage "stale-order differential" cargo test -q -p ssj-join --test stale_order

# Count-allocs build, 0 allocs per steady-state probe; test mode runs every
# bench body once and leaves BENCH_fptree.json alone.
stage "fptree alloc audit" cargo test -q -p ssj-bench --features count-allocs --bench fptree

# Count-allocs build of the json layer bench: the pairs of 20 000 nbData
# lines interned through `Dictionary::intern`, twice. A hit never allocates,
# a miss at most once (the store's buffers doubling); test mode runs every
# bench body once and writes nothing.
stage "dictionary alloc audit" cargo test -q -p ssj-bench --features count-allocs --bench json_layer

# Crash injection: a crash coordinate fires deterministically and ends the
# run in TaskPanicked naming its task, fault-free output is identical across
# pool sizes 1/2/8; then every differential crash case, each resumed at its
# first undelivered window to the oracle (crashes are the only injected
# fault).
chaos_smoke() {
    cargo test -q -p ssj-runtime --test chaos
    cargo test -q -p ssj-core --test differential crash
}
stage "chaos smoke" chaos_smoke
stage "partitioner differential" cargo test -q -p ssj-partition --test cross_partitioners

# The one differential harness: every topology run == the brute-force
# oracle, pane for pane — any window shape, m (up to 64), batch, pool size,
# partitioner, reader, socket-linked group or resumed crash (joiner after a
# joined micro-batch, creator before a repartition, reporter mid-window); a
# group or crash run also == the same case without it; sampled axis table
# plus pinned regressions.
stage "differential harness" cargo test -q -p ssj-core --test differential

# Metric conservation laws and the scheduler_* counter family.
stage "metrics conservation" cargo test -q -p ssj-runtime --test metrics_conservation

# Every reported quantile within 12.5% of the exact order statistic.
stage "histogram accuracy" cargo test -q -p ssj-runtime --test histogram_error

# Wire codec round trips through per-link symbol tables (a symbol's text
# crosses a link once; an undefined link id is BadSymbol; a 30 k-symbol
# stream reaches an empty dictionary) plus a decode fuzz (arbitrary bodies,
# definitions, truncated or byte-flipped encodings of every Msg tag: an
# error, never a panic; a joiner id or table width beyond the run's m — or
# beyond 64 — is a named error), 2-worker Unix-socket CLI run incl. a
# killed-and-relaunched worker: the streamed --joins-out files
# byte-identical, one line per window, and the resume pane named; only the
# leader reads the input (the binary's unit tests: a member is spawned
# without the input's flags; a group fed through a pipe == the solo run);
# --joins-out failures, an m outside 1..=64 and a snapshot table claiming
# more partitions are named errors; `ssj route` prints a snapshot's
# targets by the Assigners' rule, an unknown pair's content-derived home
# included. The reader's
# process streams its --input, solo or as a 2-process group: a truncated or
# malformed file is exit 1 naming the line after exactly the windows before
# it, and a solo run's peak RSS on a 10x longer stream stays within 1.5x.
stage "wire codec" cargo test -q -p ssj-core --test wire_codec
stage "distributed CLI" cargo test -q -p ssj-cli --bins --test distributed --test route

# A retained sliding table stops routing once its last pane leaves the
# lookback, with no deploy to mark the moment, and every copy ships exactly
# the joiners it reached; then the Router's own unit tests (homes, retained
# tables' masks and homes, a table's expiry).
retained_table_expiry() {
    cargo test -q -p ssj-core --test retained_table_expiry
    cargo test -q -p ssj-core --lib assign::
}
stage "retained-table expiry" retained_table_expiry

# The reporter hands each window to the run's sink once, in order, canonical,
# each pair reported by exactly one joiner (the owner rule: a lone joiner 1
# reports a pair only when the copies' masks leave it to joiner 1), while
# the stream is still being read: the reader, in memory or streaming a file,
# never runs more than READER_LEAD panes ahead of the sink (its reported
# lead; a reader without credit stops at its lead) — also across a
# reporter crashed mid-window (tumbling and sliding, the run resumed, over
# the file source too); a lock-step run whose reporter dies in every attempt
# ends in the reporter's error within seconds.
result_path() {
    cargo test -q --test end_to_end results_leave_the_topology_window_by_window
    cargo test -q -p ssj-core --test components a_joiner_reports_only_the_pairs_it_owns
    cargo test -q -p ssj-core --lib reader::
    cargo test -q -p ssj-core --test differential reporter_crash
    cargo test -q -p ssj-core --test differential file_source
    cargo test -q -p ssj-core --test lockstep reporter_crash
}
stage "result path" result_path

# A repartition that fires: a vocabulary shift sends every new pair to its
# hash home, so the pane's homed share jumps past θ and the Reporter
# signals, once;
# every creator builds groups a second time over its whole lookback
# (tumbling with and without expansion, sliding), a second table is
# deployed, documents are routed by it again, output == brute force; the
# lock-step pipeline that makes the figures rebuilds exactly one window
# after the one that signalled; a sliding lock-step rebuild keeps pairs
# homed before it and known after it exact through the retained table; a
# creator bolt's LocalGroups == association_groups over exactly its
# retained panes, under the chain its build's Repartition carried == what a
# GroupIndex derives from the same deltas. §VI-B's chain is decided once per
# build, by the reader over the whole pane: broadcast before the first
# document of the attempt's first pane and of a θ pane, and of no other, the
# pane's synthetic pairs interned in document order; two creators whose
# shares would detect other chains build under it and the Merger deploys it;
# `ssj pipeline --window-by Hour:1`'s homed share is the same at 1, 2 and 4
# creators; a 2-process group with expansion routes every pane as the solo
# run does (ten repetitions per case: the synthetic pairs' ids no longer
# depend on which creator meets them first).
repartition_path() {
    cargo test -q --test end_to_end vocabulary_shift_forces_a_repartition
    cargo test -q -p ssj-core --test lockstep drifting_stream_triggers_repartition
    cargo test -q -p ssj-core --test differential pane_spanning_pairs_meet_across_a_rebuild
    cargo test -q -p ssj-core --test components creator_builds_over_exactly_its_lookback
    cargo test -q -p ssj-core --lib reader::tests::a_build_pane_begins_with_the_chain_detected_over_it
    cargo test -q -p ssj-core --test components creators_build_and_the_merger_deploys_the_panes_chain
    cargo test -q -p ssj-cli --test pipeline pipeline_homed_share_does_not_depend_on_the_creator_count
    cargo test -q -p ssj-core --test differential expansion_routes_a_group_like_a_solo_run
}
stage "repartition path" repartition_path

# Key routing: a build pane's routing key is the attributes every document
# of the pane carries, adopted only if its tuples spread the pane over the
# m joiners (a ubiquitous constant or Boolean alone is not), and mixed in
# name order, so two dictionaries home a document alike. A keyed table
# sends a document to its key tuple's home and one without the key to
# every joiner (homed); a retained table's own key keeps the pairs that
# span a change of key at a θ rebuild exact.
key_routing() {
    cargo test -q -p ssj-partition --lib key::
    cargo test -q -p ssj-core --lib assign::tests::a_keyed_table_sends_a_document_to_its_key_home
    cargo test -q -p ssj-core --test differential documents_without_the_key_reach_every_joiner
    cargo test -q -p ssj-core --test differential pairs_meet_across_a_change_of_key
}
stage "key routing" key_routing

# Control-plane determinism: the Reporter judges θ once over each whole
# pane, and its signal rides the reader's credit and acts at a fixed pane,
# so routing is a function of the stream. `ssj run`'s routing line (tables
# deployed, rebuilds, homed share) is the same for two solo runs and a
# 2-process group over one file, also with a creator on the member, whose
# dictionary interns in its own order, and the same at 1 and 8 Assigners;
# --theta 0 rebuilds, --theta 10 never does, and the --theta 0 line is the
# same at 1 and 8 Assigners too; in release, where thread timing is
# tightest.
stage "control-plane determinism" cargo test -q --release -p ssj-cli --test distributed the_routing_line_is_the_same_in_every_run

# Figs. 6-10 come from the lock-step Fig. 2 topology (one Assigner, batch
# 1): the committed figures.txt is exactly their stdout (Fig. 11 is
# wall-clock and lives in EXPERIMENTS.md only).
figures() {
    cargo build --release -q -p ssj-bench --bin figures
    ./target/release/figures fig6 fig7 fig8 fig9 fig10 | diff figures.txt -
}
stage "figures" figures

stage "bench_partition build" cargo build --release -q -p ssj-bench --bin bench_partition
# Partitioning smoke bench: the in-process ratio of fast over legacy routing
# >= 0.75x the committed baseline's, best of two runs; absolute rates are
# printed, not gated, and the >= 1x claim is enforced by the run that records a
# baseline, not here.
stage "bench_partition gate" ./target/release/bench_partition --check BENCH_partition.json

# Count-allocs build, 0 allocs/route; a 5 k- and a 50 k-pair PartitionTable
# each clone and drop in at most m + 8 heap blocks (no per-pair allocation).
stage "routing alloc audit" cargo run --release -q -p ssj-bench --features count-allocs --bin bench_partition -- --audit

stage "bench_runtime build" cargo build --release -q -p ssj-bench --bin bench_runtime
# Runtime smoke bench: three in-process ratios (16-pane over 1-pane sliding,
# socket over in-process transport, batch 32 over batch 1 chain) >= 0.75x the
# committed baseline's, best of two runs; absolute rates are printed, not
# gated.
stage "bench_runtime gate" ./target/release/bench_runtime --check BENCH_runtime.json

# Join smoke, metrics on vs off, >5% fails.
stage "metrics overhead gate" ./target/release/bench_runtime --overhead

stage "bench_latency build" cargo build --release -q -p ssj-bench --bin bench_latency
# Open-loop paced runs (constant, zipf, bursty): the constant profile's
# end-to-end p99 <= 4x the committed baseline's.
stage "bench_latency gate" ./target/release/bench_latency --check BENCH_latency.json

# The end-to-end benchmark on 10 % streams: fails when a pinned input or
# `--joins-out` hash (benchmark/expected.json), the brute-force oracle or an
# in-process cross-check breaks.
stage "benchmark smoke" benchmark/run.sh --smoke

CURRENT_STAGE="(done)"
echo "==> all checks passed"
