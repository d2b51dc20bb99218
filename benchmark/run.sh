#!/usr/bin/env bash
# The one command of the repo benchmark (BENCHMARK.json names it). Builds
# the benchmark package from source, offline, then runs it:
#
#   bash benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#   bash benchmark/run.sh sweep --out a.jsonl [--runs 10] [--seed 1] [--trace 0]
#   bash benchmark/run.sh compare a.jsonl b.jsonl
#
# Run from the repo root (paths in the output are relative to it). Cargo's
# build chatter goes to stderr; stdout is the benchmark's alone, and its
# last line is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The commit goes into the host fingerprint; a plain checkout has none.
GIST_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export GIST_BENCH_COMMIT
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
