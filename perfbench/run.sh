#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload shared-prompt --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, telemetry,
# the binary) stays under .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root; no go.mod and internal/ here" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$build/perfbench" .)

# The checkout may not be a git repository: fall back to a hash of the
# program's sources so a result still names the code it measured.
rev=$(git rev-parse HEAD 2>/dev/null) ||
	rev="src-$(find go.mod internal -type f -name '*.go' -o -name go.mod | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
exec "$build/perfbench" --commit "$rev" "$@"
