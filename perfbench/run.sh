#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh -steady 10 -seconds 25
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the current directory. The build needs the module at
# the repository root (perfbench/go.mod replaces `dtexl` with ../), so
# outside a full checkout it fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
