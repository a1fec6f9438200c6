#!/usr/bin/env sh
# Build and run the end-to-end pipeline throughput benchmarks, leaving
# BENCH_pipeline.json, BENCH_impair.json and BENCH_serve.json in the
# repository root so the streaming vs. parallel vs. offline EMCAP perf
# trajectory — plus the resilience layer's overhead and the served
# path's disconnect resilience — are tracked across PRs.
#
#   tools/bench_pipeline.sh [--samples N] [--runs N]
#
# The pipeline benches default to 64 Mi samples and best-of-3 timed
# runs per mode (run-to-run variance lands in the JSON); pass --runs 5
# on a noisy host.  The serve bench runs a fixed open-loop load twice —
# a clean baseline and a pass with 10% of sessions dropped once
# mid-upload — so BENCH_serve.json carries the resume-path metrics
# (resumed sessions, replayed bytes, lost sessions, p99 vs baseline).
# BUILD_DIR overrides the build directory (default: build).
set -e
cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
cmake --build "$BUILD_DIR" --target throughput_pipeline throughput_impair throughput_serve -j
"$BUILD_DIR/bench/throughput_pipeline" --json BENCH_pipeline.json "$@"
"$BUILD_DIR/bench/throughput_impair" --json BENCH_impair.json "$@"
"$BUILD_DIR/bench/throughput_serve" --devices 400 --rate 200 \
    --samples-per-capture 65536 --disconnect-rate 0.10 \
    --fail-on-lost --json BENCH_serve.json
