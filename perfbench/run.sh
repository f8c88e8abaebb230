#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload pcl-bt256 --seed 1 --seconds 20 --trace 0
# Build output and the Go build cache stay in .bench_build at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/perfbench" -commit "$commit" -root "$root" "$@"
