#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload mesh-light --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's
# own scratch files all live under .bench_build/ in the current
# directory, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/work" "$@"
