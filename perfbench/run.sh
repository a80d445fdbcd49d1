#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it with the given
# arguments (README.md lists them). Run it from the repository root:
#
#   bash perfbench/run.sh --workload reuse-cube-coulomb --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and traced runs' Chrome traces go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

if [ ! -f perfbench/go.mod ]; then
    echo "run.sh: run from the repository root" >&2
    exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
    GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

commit=unknown
if [ -d .git ]; then
    commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/traces" -commit "$commit" "$@"
