#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it runs in, then
# hands every argument to it:
#
#   bash perfbench/run.sh --workload node-grid --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache, module cache, build
# temporaries and the binary all live under .bench_build/ so the
# benchmark writes nothing outside the checkout. Outside a full checkout
# (no ../go.mod beside this directory) the build fails and the script
# exits non-zero without a result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

# Fall back to the official distribution's default install location when
# go is not on PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
