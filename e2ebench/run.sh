#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash e2ebench/run.sh --workload sim-long --seed 1 --seconds 15 --trace 0
#
# Every file it reads or writes stays inside the checkout: the Go build
# cache, the binary, the WAL directories and the span files all live
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the root of a badabing checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out GOENV=off
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

# The revision is stamped into every result when the checkout is a git
# work tree; the search for .git stops at the checkout root.
rev=unknown
if [ -d "$root/.git" ]; then
	rev=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" -rev "$rev" -work "$out/run" "$@"
