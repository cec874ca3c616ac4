#!/usr/bin/env bash
# The full local gate, in the order a reviewer would want failures surfaced:
#
#   1. release build + the whole test suite (unit, integration, doc-adjacent),
#      then the API docs with rustdoc warnings as errors, so a doc link to a
#      deleted, renamed or private item fails here, then the public-API check
#      (scripts/check_pub_api.py): every non-test `pub fn` of a library crate
#      must be named by a file outside its crate (another crate's src, a
#      crate's tests/, the root tests/ and examples/, benchmark/driver) or
#      carry an allow-list entry saying why it is public; the rest are
#      `pub(crate)`
#   2. the determinism invariant: byte-identical CSVs and metrics ledger
#      at --jobs 1, --jobs max(nproc, 8), and --no-cache, which also
#      covers per-worker scratch reuse on every figure (the DASH/LRD
#      ext-qoe sweep included) and the cross-figure session cache on the
#      cells a later figure re-reads (both on by default); the --jobs pair
#      again at held-out seed 7, whose losses reuse the engine's SACK-slab
#      slots in another order; and trace
#      neutrality: `repro all` with --trace-dir leaves
#      figures, the QoE table, stdout and the wall-off ledger
#      byte-identical, dumps the ablation harnesses' sessions too, and every
#      emitted Chrome trace JSON parses
#   3. metrics neutrality: a figure slice rendered with and without
#      --metrics must produce byte-identical CSVs, and the ledger must be
#      well-formed JSON carrying its schema_version key
#   3b. default-run memory, event roads and the committed results: a plain
#      metered `repro all` must retain no packet trace anywhere (zero
#      peak_trace_bytes, and peak_flowstate_bytes pinned at 548 864 in the
#      wall-mode ledger), must keep every packet delivery on the event
#      queue's FIFO lanes (zero sim_lane_fallbacks), must count every engine run in the
#      ledger's app-layer slots as well as its engine-level ones (463
#      sessions, 415 of them players that started, 56 stalls — the ablation
#      harnesses included), must hit the session cache 76 times and
#      retain only those 76 re-read replies (76 misses), must schedule
#      exactly the events it scheduled
#      before (sim_events_scheduled and sim_lane_pushes pinned, so a change
#      to which events the engine schedules fails here even where no CSV
#      moves), must recover from loss exactly as before (tcp_retx_segments,
#      tcp_fast_retransmits, tcp_rto_fires and tcp_sack_blocks_sent pinned)
#      and must reproduce the committed results/ tree byte for byte
#   3c. campaign smoke: a small hybrid campaign passes its cross-validation
#      gate, an interrupted run resumed from the checkpoint ledger emits
#      byte-identical output, the ledger's shard checkpoints (format v3)
#      and summary are well-formed, and a ledger missing one checkpoint
#      recomputes exactly that shard into the same output
#   3d. the five examples/, run once in release mode: they are the
#      library-facing callers of the folds (`Trace::replay` into
#      `TotalsFold`, `SummariesFold`, `ThroughputFold`, `from_trace`), which
#      `cargo test` compiles but never executes
#   4. the packed-format roundtrip suite in release mode: the trace-vs-
#      reference record checks and the pack/unpack exactness tests of
#      `-p vstream-capture`, compiled with release assertions so the checked
#      truncation/corruption paths in PackedTrace::unpack are exercised as
#      an optimized build runs them (the capture reductions are folds in
#      vstream-analysis, held to their references in stage 1). The stage
#      stays as long as pack.rs does
#   5. the repo benchmark's own smoke check (benchmark/check.sh): its unit
#      tests, then a scaled-down pass of every workload, end to end and
#      traced. benchmark/driver builds against crates/* by path, so a
#      public-API deletion it depends on fails here rather than at the next
#      benchmark run
#
# Usage: scripts/ci.sh
# Everything runs offline; no network access is required.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> build (release)"
cargo build --release --offline

echo "==> tests"
cargo test --offline --quiet

echo "==> rustdoc: no broken, ambiguous or private intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> public API: every pub fn has a caller outside its crate"
python3 scripts/check_pub_api.py

echo "==> determinism: CSVs and metrics ledger invariant under --jobs (seeds 2026 and 7), --no-cache and --trace-dir"
scripts/check_determinism.sh

echo "==> metrics neutrality: --metrics must not change the figures"
obs_out="$(mktemp -d)"
trap 'rm -rf "$obs_out"' EXIT
target/release/repro fig2 fig4 --csv "$obs_out/plain" > /dev/null
target/release/repro fig2 fig4 --csv "$obs_out/metered" \
    --metrics "$obs_out/metrics.json" > /dev/null
diff -r "$obs_out/plain" "$obs_out/metered"
python3 -m json.tool "$obs_out/metrics.json" > /dev/null
grep -q '"schema_version"' "$obs_out/metrics.json"

echo "==> default run: no retained trace, and results/ is what the code produces"
# No session of a default run retains a trace — figure drivers and the
# ablation harnesses alike fold on the live tap, and only a Trace passed as
# the sink keeps packets — so the wall-mode ledger must report
# peak_trace_bytes = 0 while the fold state that replaced it registers as
# nonzero peak_flowstate_bytes.
target/release/repro all --csv "$obs_out/all" --metrics "$obs_out/all.metrics.json" > /dev/null
grep -q '"peak_trace_bytes":0[,}]' "$obs_out/all.metrics.json"
grep -qE '"peak_flowstate_bytes":[1-9]' "$obs_out/all.metrics.json"
# Link deliveries are FIFO, so no packet may have been pushed off its lane
# into the timer heap; a nonzero count means a link reordered (or a new caller
# of schedule_fifo is not monotone) and the fast road silently narrowed.
grep -q '"sim_lane_fallbacks":0[,}]' "$obs_out/all.metrics.json"
# The event roads themselves are pinned: every packet delivery is a lane
# push, and the rest of the scheduled events (TCP ticks, application timers,
# cross-traffic ticks) are timers. A refactor of the engine that schedules
# one event more or less moves these counts even when no figure byte moves;
# update them only in a change that means to alter the event sequence.
grep -q '"sim_events_scheduled":32304897[,}]' "$obs_out/all.metrics.json"
grep -q '"sim_lane_pushes":30563862[,}]' "$obs_out/all.metrics.json"
# Loss recovery is pinned the same way: a change to the SACK scoreboard, the
# receiver's out-of-order map or the repairs in flight that alters which
# segments TCP retransmits, or when, moves these counts even where no CSV
# moves. They read the same at any --jobs.
grep -q '"tcp_retx_segments":777891[,}]' "$obs_out/all.metrics.json"
grep -q '"tcp_fast_retransmits":34748[,}]' "$obs_out/all.metrics.json"
grep -q '"tcp_rto_fires":6916[,}]' "$obs_out/all.metrics.json"
grep -q '"tcp_sack_blocks_sent":3361872[,}]' "$obs_out/all.metrics.json"
# Every engine run goes through one bracket, so the app-layer slots cover
# the same sessions as the engine-level ones: all 463, of which the 415
# with a player (the 48 ext-sack bulk transfers have none) start playback.
# A harness that builds its own engine again shows up here as a shortfall.
grep -q '"sim_sessions":463[,}]' "$obs_out/all.metrics.json"
grep -q '"app_playback_started":415[,}]' "$obs_out/all.metrics.json"
grep -q '"app_player_stalls":56[,}]' "$obs_out/all.metrics.json"
# The session cache retains exactly the replies a later figure re-reads
# (`figures::cell_specs` marks them shared): 76 entries, each hit once. A
# driver change that loses a hit, or retains a session no later figure
# reads, moves these counts instead of silently costing memory.
grep -q '"cache_hits":76[,}]' "$obs_out/all.metrics.json"
grep -q '"cache_misses":76[,}]' "$obs_out/all.metrics.json"
# Fold state is pinned too: the largest per-session fold footprint of a
# default run. Per-connection state lives in one flow table per query
# (DESIGN §11.2), so a fold that regrows a table of its own, or a series
# that retains more than its figure reads, moves this gauge.
grep -q '"peak_flowstate_bytes":548864[,}]' "$obs_out/all.metrics.json"
# The committed tree is `repro all --seed 2026 --csv results` (the default
# seed); regenerate it in the same change as any output-moving edit.
diff -r results "$obs_out/all"

echo "==> campaign smoke: gate passes, interrupt + resume and a lost checkpoint are byte-identical, ledger parses"
# One uninterrupted run (the gate FAILing would exit nonzero here), then
# the same campaign executed as two interrupted runs against a checkpoint
# ledger plus a resuming run — stdout must match the one-shot run byte for
# byte, and the content-addressed ledger must hold every shard checkpoint
# plus a well-formed summary.
target/release/repro campaign --viewers 10000 --csv "$obs_out/camp-oneshot" \
    > "$obs_out/camp-oneshot.txt"
target/release/repro campaign --viewers 10000 --ledger "$obs_out/camp-ledger" \
    --max-shards 1 > /dev/null
target/release/repro campaign --viewers 10000 --ledger "$obs_out/camp-ledger" \
    --max-shards 1 --jobs 8 > /dev/null
target/release/repro campaign --viewers 10000 --ledger "$obs_out/camp-ledger" \
    --jobs 8 --csv "$obs_out/camp-resumed" > "$obs_out/camp-resumed.txt"
diff -r "$obs_out/camp-oneshot" "$obs_out/camp-resumed"
diff <(sed "s|$obs_out/camp-oneshot|CSV|" "$obs_out/camp-oneshot.txt") \
     <(sed "s|$obs_out/camp-resumed|CSV|" "$obs_out/camp-resumed.txt")
ledger_dir=("$obs_out"/camp-ledger/campaign-*)
test "$(ls "${ledger_dir[0]}"/shard-*.ckpt | wc -l)" -eq 4
head -n 1 "${ledger_dir[0]}"/shard-0000.ckpt | grep -q '^vstream-campaign-shard v3$'
grep -q '^gate PASS$' "${ledger_dir[0]}/summary.txt"
# A kill mid-shard leaves the ledger without that shard's checkpoint (it is
# written to a temp file and renamed), a state --max-shards never produces:
# delete one checkpoint from the finished ledger, and the rerun must
# restore the other three, recompute exactly that one, and print the same
# report and CSVs.
rm "${ledger_dir[0]}"/shard-0002.ckpt
target/release/repro campaign --viewers 10000 --ledger "$obs_out/camp-ledger" --progress \
    --csv "$obs_out/camp-refilled" > "$obs_out/camp-refilled.txt" 2> "$obs_out/camp-refilled.err"
test "$(grep -c 'shard done in' "$obs_out/camp-refilled.err")" -eq 1
test "$(grep -c 'shard restored from ledger' "$obs_out/camp-refilled.err")" -eq 3
test -f "${ledger_dir[0]}"/shard-0002.ckpt
diff -r "$obs_out/camp-oneshot" "$obs_out/camp-refilled"
diff <(sed "s|$obs_out/camp-oneshot|CSV|" "$obs_out/camp-oneshot.txt") \
     <(sed "s|$obs_out/camp-refilled|CSV|" "$obs_out/camp-refilled.txt")

echo "==> examples: the library-facing callers of the folds run to completion"
for example in quickstart strategy_comparison capacity_planning interruption_waste trace_inspector; do
    cargo run --release --offline --quiet --example "$example" > /dev/null
done

echo "==> packed-format roundtrip (release mode: checked unpack corruption paths)"
cargo test --offline --release --quiet -p vstream-capture

echo "==> repo benchmark smoke (benchmark/check.sh: driver builds against crates/*, outputs repeat)"
benchmark/check.sh

echo "OK: build, tests, determinism, metrics neutrality, default-run memory and results/, campaign smoke, examples, roundtrip, and repo benchmark smoke all passed"
