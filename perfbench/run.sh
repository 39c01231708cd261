#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The Go build cache, temporary files and the
# binary live under $CARGO_TARGET_DIR (default .bench_build), so the run
# reads and writes only inside the checkout. The benchmark module replaces
# `distbayes` with the parent directory, so without the repository sources
# around it the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
