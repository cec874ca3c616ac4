#!/bin/sh
# Smoke check of the benchmark itself, for CI to adopt: its unit tests, then
# one scaled-down pass of every workload, end to end and traced (about 30 s
# once built). Checks that everything runs and that outputs repeat; it
# measures nothing worth keeping.
set -eu
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/benchmark/out/build}"
python3 -m unittest discover -s benchmark -p 'test_*.py'
cargo test --offline --release --quiet --manifest-path benchmark/driver/Cargo.toml
python3 benchmark/run.py --quick
python3 benchmark/run.py --quick --trace 1
