#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload rtt|ingest|fanout --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and span dumps go under
# $CARGO_TARGET_DIR (default .bench_build, relative to the checkout
# root), so a run reads and writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
