#!/usr/bin/env bash
# Launcher named by BENCHMARK.json. Builds the system under test (ingestd)
# and the bench program from source, then runs the bench with the caller's
# arguments. Everything it writes — Go build cache included — stays under
# .bench_build/ in the checkout. The build is timed and handed to the bench
# as the per-layer metric bench.build_s; it is not part of setup_s.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local

t0=$(date +%s%N)
(cd "$root" && go build -o "$out/bin/ingestd" ./cmd/ingestd)
(cd "$here" && go build -o "$out/bin/netenergy-bench" .)
t1=$(date +%s%N)
build_s=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.6f", (b - a) / 1e9 }')

exec "$out/bin/netenergy-bench" -ingestd "$out/bin/ingestd" -work "$out/work" \
	-build-s "$build_s" -out "$here/out" "$@"
