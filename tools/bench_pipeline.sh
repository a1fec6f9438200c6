#!/usr/bin/env sh
# Build and run the throughput benches, leaving BENCH_pipeline.json,
# BENCH_store.json and BENCH_serve.json in the repository root so the
# analysis (streaming vs. parallel vs. offline EMCAP, resilience
# overhead, impairment injection), container codec and served-path
# trajectories are tracked across commits.
#
#   tools/bench_pipeline.sh [--samples N] [--runs N]
#
# The flags go to throughput_pipeline and throughput_store, which
# default to 64 Mi and 8 M samples and 5 timed runs per row after an
# untimed warm-up (median and quartiles land in the JSON).  The serve
# bench runs a fixed open-loop load twice: a clean baseline and a pass
# with 10% of sessions dropped once mid-upload, so BENCH_serve.json
# carries the resume-path metrics (resumed sessions, replayed bytes,
# lost sessions, p99 vs baseline).  Every file records the commit it
# was measured at; they are written to a scratch directory and moved
# into place together, so one program's output does not mark the tree
# dirty for the next.  BUILD_DIR overrides the build directory
# (default: build).
set -e
cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
cmake --build "$BUILD_DIR" --target throughput_pipeline throughput_store throughput_serve -j
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$BUILD_DIR/bench/throughput_pipeline" --json "$out/BENCH_pipeline.json" "$@"
"$BUILD_DIR/bench/throughput_store" --json "$out/BENCH_store.json" "$@"
"$BUILD_DIR/bench/throughput_serve" --devices 400 --rate 200 \
    --samples-per-capture 65536 --disconnect-rate 0.10 \
    --fail-on-lost --json "$out/BENCH_serve.json"
mv "$out"/BENCH_*.json .
