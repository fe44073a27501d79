#!/usr/bin/env bash
# Builds the benchmark and the sitserve daemon from source and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload create --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/perfbench in the
# repository: the Go build cache, the binaries and the temporary segment and
# spill directories. Build output goes to stderr, so the last line on stdout
# is the result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/sitserve" github.com/sitstats/sits/cmd/sitserve
) >&2
exec "$out/perfbench" --sitserve "$out/sitserve" "$@"
