#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Every build output (Go build cache, temp
# files, the binary, the determinism ledger) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout. The build is offline: no module
# download or toolchain switch is ever attempted.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOPROXY=off GOSUMDB=off
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" --state-dir "$build" "$@"
