#!/usr/bin/env bash
# Verifies the executor's and session cache's core invariant: `repro`
# emits byte-identical CSVs — and, with wall-clock timing disabled, a
# byte-identical metrics ledger — for any --jobs value, with the session
# cache on or off, and with --trace-dir on or off. Runs the full suite four
# times (serial, a multi-worker pool, --no-cache, and a traced pass) and
# diffs the output trees and ledgers, then runs campaign mode (the sharded,
# resumable hybrid executor) at both worker counts and diffs its tables and
# stdout the same way, and finally runs the full suite again at a held-out
# seed (7) at both worker counts.
#
# The second pass uses max(nproc, 8) workers: even on a single-core host
# this exercises the threaded executor path (8 OS threads racing over the
# work queue), which is the path the determinism invariant protects. The
# third pass re-simulates every session instead of cloning cached replies,
# which is the path the purity invariant protects. The traced pass
# (DESIGN.md §12) holds two things at once: the flight recorder never
# perturbs any output (CSV tree, QoE table, stdout, ledger all byte-match
# pass 1), and the dump files themselves are deterministic — pass 1 also
# dumps, at --jobs 1, and pass 4 at --jobs N must reproduce its trace
# directory file for file, which must hold the ablation harnesses' dumps
# (ext-cc among them) and nothing but parseable Chrome trace JSON. A small
# --trace-cap bounds dump volume; ring truncation is itself deterministic
# (last N events). The seed-7 passes exist because the engine's slab of
# queued SACK options reuses slots in an order set by each seed's loss
# pattern; one seed exercises one such order.
#
# Usage: [JOBS=N] scripts/check_determinism.sh [repro-args...]
#   e.g. scripts/check_determinism.sh --seed 7 --n 4
set -euo pipefail

cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

jobs_n="${JOBS:-$(nproc)}"
if [ "$jobs_n" -lt 8 ]; then jobs_n=8; fi

cargo build --release --offline --bin repro

echo "==> pass 1: --jobs 1 --trace-dir"
VSTREAM_WALL=off target/release/repro all --jobs 1 --csv "$out/jobs1" \
    --trace-dir "$out/tr1" --trace-cap 1024 \
    --metrics "$out/jobs1.metrics.json" "$@" > "$out/jobs1.txt"
echo "==> pass 2: --jobs $jobs_n"
VSTREAM_WALL=off target/release/repro all --jobs "$jobs_n" --csv "$out/jobsN" \
    --metrics "$out/jobsN.metrics.json" "$@" > "$out/jobsN.txt"

echo "==> pass 3: --no-cache"
VSTREAM_WALL=off target/release/repro all --jobs "$jobs_n" --no-cache --csv "$out/nocache" \
    --metrics "$out/nocache.metrics.json" "$@" > "$out/nocache.txt"

echo "==> pass 4: --trace-dir --jobs $jobs_n"
VSTREAM_WALL=off target/release/repro all --jobs "$jobs_n" --csv "$out/traceN" \
    --trace-dir "$out/trN" --trace-cap 1024 \
    --metrics "$out/traceN.metrics.json" "$@" > "$out/traceN.txt"

# Campaign mode has its own executor (sharded, resumable) on top of the
# same session layer, so its worker-count invariance is checked separately
# from the figure suite.
echo "==> pass 5: campaign --jobs 1"
VSTREAM_WALL=off target/release/repro campaign --viewers 10000 --jobs 1 \
    --csv "$out/camp1" > "$out/camp1.txt"
echo "==> pass 6: campaign --jobs $jobs_n"
VSTREAM_WALL=off target/release/repro campaign --viewers 10000 --jobs "$jobs_n" \
    --csv "$out/campN" > "$out/campN.txt"

for variant in jobsN nocache traceN; do
    diff -r "$out/jobs1" "$out/$variant"
    # The stdout reports embed the csv paths; compare them with the paths
    # normalised away.
    diff <(sed "s|$out/jobs1|CSV|" "$out/jobs1.txt") \
         <(sed "s|$out/$variant|CSV|" "$out/$variant.txt")
    # The telemetry ledger must be jobs-, cache-, and tracing-invariant too
    # (wall timing is off, so every remaining quantity is a pure function of
    # the session set; the cache_* counters and peak_*_bytes gauges are
    # execution-dependent and zeroed).
    diff "$out/jobs1.metrics.json" "$out/$variant.metrics.json"
done
# The dump files must themselves be deterministic: serial vs multi-worker
# must produce the same file set with the same bytes.
diff -r "$out/tr1" "$out/trN"
# The harness sessions dump too, and every Chrome trace JSON is valid JSON.
ls "$out/tr1"/ext-cc-*.trace.json > /dev/null
python3 - "$out/tr1" <<'PY'
import glob, json, sys
for path in glob.glob(sys.argv[1] + "/*.trace.json"):
    with open(path) as f:
        json.load(f)
PY
diff -r "$out/camp1" "$out/campN"
diff <(sed "s|$out/camp1|CSV|" "$out/camp1.txt") \
     <(sed "s|$out/campN|CSV|" "$out/campN.txt")

echo "==> pass 7: --seed 7 --jobs 1"
VSTREAM_WALL=off target/release/repro all --jobs 1 --csv "$out/seed7_1" \
    --metrics "$out/seed7_1.metrics.json" "$@" --seed 7 > "$out/seed7_1.txt"
echo "==> pass 8: --seed 7 --jobs $jobs_n"
VSTREAM_WALL=off target/release/repro all --jobs "$jobs_n" --csv "$out/seed7_N" \
    --metrics "$out/seed7_N.metrics.json" "$@" --seed 7 > "$out/seed7_N.txt"
diff -r "$out/seed7_1" "$out/seed7_N"
diff <(sed "s|$out/seed7_1|CSV|" "$out/seed7_1.txt") \
     <(sed "s|$out/seed7_N|CSV|" "$out/seed7_N.txt")
diff "$out/seed7_1.metrics.json" "$out/seed7_N.metrics.json"

echo "OK: output and metrics ledger are byte-identical across --jobs 1, --jobs $jobs_n, --no-cache, and --trace-dir, and across --jobs at held-out seed 7 (and the trace dumps and campaign mode are deterministic too)"
