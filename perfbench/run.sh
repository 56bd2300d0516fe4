#!/usr/bin/env bash
# Builds the checker benchmark from source and runs it. Run from the root
# of the repository:
#
#   bash perfbench/run.sh --workload verify|sweep|tables --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps its env file and telemetry counters under the user
# config directory.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The results are stamped with the commit, or outside a git checkout with
# a digest of the Go sources.
commit=
if [ -d "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
  commit="tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
    LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --commit "$commit" "$@"
