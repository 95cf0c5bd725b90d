#!/usr/bin/env bash
# Builds the realbench binary and the sionserve/sionrouter binaries from
# source, then runs realbench with the given arguments. Run it from the
# repository root:
#
#   bash realbench/run.sh --workload scan-cold --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the repository: binaries, the Go build cache, scratch
# data sets and trace files.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
go build -C realbench -o "$out/bin/realbench" . >&2
go build -o "$out/bin/" ./cmd/sionserve ./cmd/sionrouter >&2

exec "$out/bin/realbench" -bin "$out/bin" -work "$out/work" "$@"
